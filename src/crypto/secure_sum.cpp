#include "crypto/secure_sum.h"

#include <algorithm>
#include <array>

#include "obs/obs.h"

namespace ppml::crypto {

SecureSumParty::SecureSumParty(std::size_t party_id, std::size_t num_parties,
                               FixedPointCodec codec, std::uint64_t seed)
    : party_id_(party_id),
      num_parties_(num_parties),
      codec_(codec),
      variant_(MaskVariant::kExchangedMasks),
      seed_(seed) {
  PPML_CHECK(num_parties >= 2, "SecureSumParty: need >= 2 parties");
  PPML_CHECK(party_id < num_parties, "SecureSumParty: bad party id");
}

SecureSumParty::SecureSumParty(std::size_t party_id, std::size_t num_parties,
                               FixedPointCodec codec,
                               std::vector<std::uint64_t> pairwise_seeds,
                               AggregationTopology topology,
                               std::size_t group_size)
    : party_id_(party_id),
      num_parties_(num_parties),
      codec_(codec),
      variant_(MaskVariant::kSeededMasks),
      pairwise_seeds_(std::move(pairwise_seeds)),
      topology_(topology),
      group_size_(group_size) {
  PPML_CHECK(num_parties >= 2, "SecureSumParty: need >= 2 parties");
  PPML_CHECK(party_id < num_parties, "SecureSumParty: bad party id");
  PPML_CHECK(pairwise_seeds_.size() == num_parties,
             "SecureSumParty: need one seed slot per party");
}

std::vector<std::vector<std::uint64_t>> SecureSumParty::outgoing_masks(
    std::size_t round, std::size_t dim) {
  PPML_CHECK(variant_ == MaskVariant::kExchangedMasks,
             "outgoing_masks: only meaningful for the exchanged variant");
  std::vector<std::vector<std::uint64_t>> out(num_parties_);
  for (std::size_t peer = 0; peer < num_parties_; ++peer) {
    if (peer == party_id_) continue;
    // Stream id encodes (sender, receiver, round) so masks never repeat.
    const std::uint64_t stream =
        (static_cast<std::uint64_t>(party_id_) << 40) ^
        (static_cast<std::uint64_t>(peer) << 20) ^ round;
    ChaCha20Stream prg(seed_, stream);
    out[peer].resize(dim);
    prg.fill(out[peer]);
  }
  obs::count("crypto.masks_generated",
             static_cast<std::int64_t>(num_parties_ - 1));
  if (obs::PrivacyLedger* ledger = obs::privacy_ledger())
    ledger->note_masks(static_cast<std::int64_t>(num_parties_ - 1));
  return out;
}

namespace {

/// Encodes `values` kMaskChunkWords at a time into one stack chunk, lets
/// `mask_chunk(offset, words)` mask it in place, and hands the result to
/// `store(offset, words)`. Modular addition commutes, so masking a chunk
/// stream by stream gives the words whole-vector masking gives.
template <typename MaskChunk, typename Store>
void masked_chunks(const FixedPointCodec& codec,
                   std::span<const double> values, MaskChunk mask_chunk,
                   Store store) {
  std::array<std::uint64_t, SecureSumParty::kMaskChunkWords> chunk;
  for (std::size_t at = 0; at < values.size(); at += chunk.size()) {
    const std::span<std::uint64_t> words(
        chunk.data(), std::min(chunk.size(), values.size() - at));
    codec.encode_into(values.subspan(at, words.size()), words);
    mask_chunk(at, words);
    store(at, std::span<const std::uint64_t>(words));
  }
}

/// Store for the vector-returning masks.
auto into_words(std::vector<std::uint64_t>& out) {
  return [&out](std::size_t at, std::span<const std::uint64_t> words) {
    std::copy(words.begin(), words.end(), out.begin() + at);
  };
}

/// Store for the wire masks: little-endian 8-byte words on every host.
auto into_wire(std::span<std::uint8_t> wire, std::size_t words) {
  PPML_CHECK(wire.size() == 8 * words,
             "SecureSumParty::mask: wire span must hold 8 bytes per value");
  return [wire](std::size_t at, std::span<const std::uint64_t> chunk) {
    std::uint8_t* p = wire.data() + 8 * at;
    for (const std::uint64_t w : chunk)
      for (int b = 0; b < 8; ++b) *p++ = static_cast<std::uint8_t>(w >> (8 * b));
  };
}

}  // namespace

template <typename Store>
void SecureSumParty::mask_exchanged(std::span<const double> values,
                                    PeerStreams sent, PeerStreams received,
                                    std::size_t round, Store store) const {
  PPML_CHECK(variant_ == MaskVariant::kExchangedMasks,
             "SecureSumParty::mask(sent, received): exchanged variant only");
  PPML_CHECK(sent.size() == num_parties_ && received.size() == num_parties_,
             "SecureSumParty::mask: need one mask slot per party");
  for (std::size_t peer = 0; peer < num_parties_; ++peer)
    PPML_CHECK(peer == party_id_ || sent[peer].size() == values.size(),
               "SecureSumParty::mask: sent mask dimension mismatch");
  for (std::size_t peer = 0; peer < num_parties_; ++peer)
    PPML_CHECK(peer == party_id_ || received[peer].size() == values.size(),
               "SecureSumParty::mask: received mask dimension mismatch");
  masked_chunks(
      codec_, values,
      [&](std::size_t at, std::span<std::uint64_t> words) {
        // + Sed_i: the masks this party generated for its peers this round.
        for (std::size_t peer = 0; peer < num_parties_; ++peer)
          if (peer != party_id_)
            ring_add_inplace(words, sent[peer].subspan(at, words.size()));
        // - Rev_i: the masks received from peers.
        for (std::size_t peer = 0; peer < num_parties_; ++peer)
          if (peer != party_id_)
            ring_sub_inplace(words, received[peer].subspan(at, words.size()));
      },
      store);
  obs::count("crypto.masked_contributions");
  if (obs::PrivacyLedger* ledger = obs::privacy_ledger()) {
    ledger->note_pad_use(detail::exchanged_pad_key(party_id_, sent),
                         obs::PrivacyLedger::fingerprint(values),
                         static_cast<int>(party_id_),
                         static_cast<int>(party_id_), round, "exchanged");
    ledger->note_contribution(static_cast<std::int64_t>(values.size()),
                              static_cast<std::int64_t>(values.size() * 8));
  }
}

std::vector<std::uint64_t> SecureSumParty::mask(
    std::span<const double> values, PeerStreams sent, PeerStreams received,
    std::size_t round) const {
  std::vector<std::uint64_t> out(values.size());
  mask_exchanged(values, sent, received, round, into_words(out));
  return out;
}

void SecureSumParty::mask(std::span<const double> values, PeerStreams sent,
                          PeerStreams received, std::size_t round,
                          std::span<std::uint8_t> wire) const {
  mask_exchanged(values, sent, received, round,
                 into_wire(wire, values.size()));
}

template <typename Store>
void SecureSumParty::mask_seeded(std::span<const double> values,
                                 std::size_t round,
                                 std::span<const std::size_t> participants,
                                 Store store) const {
  PPML_CHECK(variant_ == MaskVariant::kSeededMasks,
             "SecureSumParty::mask(round, participants): seeded variant only");
  bool included = false;
  for (std::size_t p : participants) {
    PPML_CHECK(p < num_parties_,
               "SecureSumParty::mask: participant out of range");
    if (p == party_id_) included = true;
  }
  PPML_CHECK(included, "SecureSumParty::mask: this party must participate");
  std::vector<std::size_t> peers;
  if (topology_ == AggregationTopology::kGroupedRing) {
    // Every party derives the identical layout from the sorted participant
    // set, so both endpoints of each edge agree on it.
    peers = mask_peers(build_group_layout(participants, group_size_),
                       party_id_);
  } else {
    for (std::size_t p : participants)
      if (p != party_id_) peers.push_back(p);
  }

  // One keystream per edge, each advanced one chunk at a time.
  std::vector<ChaCha20Stream> streams;
  streams.reserve(peers.size());
  for (std::size_t peer : peers)
    streams.emplace_back(pairwise_seeds_[peer], round);
  std::array<std::uint64_t, kMaskChunkWords> pad;
  masked_chunks(
      codec_, values,
      [&](std::size_t, std::span<std::uint64_t> words) {
        const std::span<std::uint64_t> stream(pad.data(), words.size());
        for (std::size_t k = 0; k < peers.size(); ++k) {
          streams[k].fill(stream);
          // Antisymmetric sign convention: the lower-id party adds, the
          // higher-id party subtracts, so each pair's masks cancel in the
          // reducer's sum.
          if (party_id_ < peers[k]) {
            ring_add_inplace(words, stream);
          } else {
            ring_sub_inplace(words, stream);
          }
        }
      },
      store);
  const auto edges = static_cast<std::int64_t>(peers.size());
  obs::count("crypto.masks_generated", edges);
  obs::count("crypto.masked_contributions");
  if (obs::PrivacyLedger* ledger = obs::privacy_ledger()) {
    // One pad record per edge, keyed on the actual pairwise seed VALUE (not
    // the caller's session identity): two sessions that derive the same
    // seeds — a missed rekey, a protocol seed shared across instances —
    // collide here even though each one's own bookkeeping looks clean.
    const std::uint64_t fp = obs::PrivacyLedger::fingerprint(values);
    for (std::size_t peer : peers)
      ledger->note_pad_use(
          obs::PrivacyLedger::pad_key(pairwise_seeds_[peer], round, party_id_),
          fp, static_cast<int>(party_id_), static_cast<int>(peer), round,
          "seeded");
    ledger->note_masks(edges);
    ledger->note_contribution(static_cast<std::int64_t>(values.size()),
                              static_cast<std::int64_t>(values.size() * 8));
  }
}

std::vector<std::uint64_t> SecureSumParty::mask(
    std::span<const double> values, std::size_t round,
    std::span<const std::size_t> participants) const {
  std::vector<std::uint64_t> out(values.size());
  mask_seeded(values, round, participants, into_words(out));
  return out;
}

void SecureSumParty::mask(std::span<const double> values, std::size_t round,
                          std::span<const std::size_t> participants,
                          std::span<std::uint8_t> wire) const {
  mask_seeded(values, round, participants, into_wire(wire, values.size()));
}

std::vector<std::vector<std::uint64_t>> agree_pairwise_seeds(
    std::size_t num_parties, std::uint64_t session_seed) {
  PPML_CHECK(num_parties >= 2, "agree_pairwise_seeds: need >= 2 parties");
  const DhGroup group = DhGroup::standard_group();
  std::vector<DhKeyPair> keys(num_parties);
  for (std::size_t i = 0; i < num_parties; ++i) {
    Xoshiro256 rng(session_seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
    keys[i] = dh_keygen(group, rng);
  }
  // Each public value is validated once, then serves every pair it is in.
  for (const DhKeyPair& key : keys) dh_check_public(group, key.public_value);
  std::vector<std::vector<std::uint64_t>> seeds(
      num_parties, std::vector<std::uint64_t>(num_parties, 0));
  // g^{x_i x_j} == g^{x_j x_i}: one exponentiation per unordered pair.
  for (std::size_t i = 0; i < num_parties; ++i) {
    for (std::size_t j = i + 1; j < num_parties; ++j) {
      seeds[i][j] = static_cast<std::uint64_t>(
          powmod(keys[j].public_value, keys[i].secret, group.p));
      seeds[j][i] = seeds[i][j];
    }
  }
  return seeds;
}

namespace detail {

std::uint64_t exchanged_pad_key(std::size_t party_id, PeerStreams sent) {
  std::uint64_t key = obs::PrivacyLedger::combine(0xE5C4A97ED5B1A0C3ULL,
                                                  party_id);
  for (std::size_t peer = 0; peer < sent.size(); ++peer) {
    if (peer == party_id) continue;
    key = obs::PrivacyLedger::combine(
        key, obs::PrivacyLedger::fingerprint_words(sent[peer]));
  }
  return key;
}

}  // namespace detail

// secure_average lives in secure_sum_session.cpp: it is a thin wrapper over
// SecureSumSession::average_once.

}  // namespace ppml::crypto
