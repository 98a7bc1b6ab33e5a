#include "crypto/secure_sum.h"

#include <algorithm>

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
                               std::vector<std::uint64_t> pairwise_seeds)
    : party_id_(party_id),
      num_parties_(num_parties),
      codec_(codec),
      variant_(MaskVariant::kSeededMasks),
      pairwise_seeds_(std::move(pairwise_seeds)) {
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

std::vector<std::uint64_t> SecureSumParty::masked_contribution(
    std::span<const double> values,
    const std::vector<std::vector<std::uint64_t>>& received,
    std::size_t round) {
  PPML_CHECK(variant_ == MaskVariant::kExchangedMasks,
             "masked_contribution(received): exchanged variant only");
  PPML_CHECK(received.size() == num_parties_,
             "masked_contribution: need one slot per party");
  std::vector<std::uint64_t> out = codec_.encode_vector(values);
  // + Sed_i: the masks this party generated for its peers this round.
  const auto sent = outgoing_masks(round, values.size());
  for (std::size_t peer = 0; peer < num_parties_; ++peer) {
    if (peer == party_id_) continue;
    ring_add_inplace(out, sent[peer]);
  }
  // - Rev_i: the masks received from peers.
  for (std::size_t peer = 0; peer < num_parties_; ++peer) {
    if (peer == party_id_) continue;
    PPML_CHECK(received[peer].size() == values.size(),
               "masked_contribution: received mask dimension mismatch");
    ring_sub_inplace(out, received[peer]);
  }
  obs::count("crypto.masked_contributions");
  if (obs::PrivacyLedger* ledger = obs::privacy_ledger()) {
    ledger->note_pad_use(detail::exchanged_pad_key(party_id_, sent),
                         obs::PrivacyLedger::fingerprint(values),
                         static_cast<int>(party_id_),
                         static_cast<int>(party_id_), round, "exchanged");
    ledger->note_contribution(static_cast<std::int64_t>(out.size()),
                              static_cast<std::int64_t>(out.size() * 8));
  }
  return out;
}

std::vector<std::uint64_t> SecureSumParty::masked_contribution_cached(
    std::span<const double> values,
    const std::vector<std::vector<std::uint64_t>>& sent,
    const std::vector<std::vector<std::uint64_t>>& received) {
  PPML_CHECK(variant_ == MaskVariant::kExchangedMasks,
             "masked_contribution_cached: exchanged variant only");
  PPML_CHECK(sent.size() == num_parties_ && received.size() == num_parties_,
             "masked_contribution_cached: need one slot per party");
  std::vector<std::uint64_t> out = codec_.encode_vector(values);
  for (std::size_t peer = 0; peer < num_parties_; ++peer) {
    if (peer == party_id_) continue;
    PPML_CHECK(sent[peer].size() == values.size(),
               "masked_contribution_cached: sent mask dimension mismatch");
    ring_add_inplace(out, sent[peer]);
  }
  for (std::size_t peer = 0; peer < num_parties_; ++peer) {
    if (peer == party_id_) continue;
    PPML_CHECK(received[peer].size() == values.size(),
               "masked_contribution_cached: received mask dimension mismatch");
    ring_sub_inplace(out, received[peer]);
  }
  obs::count("crypto.masked_contributions");
  if (obs::PrivacyLedger* ledger = obs::privacy_ledger()) {
    // No round parameter here — the pad identity IS the cached streams, so
    // the key still collides with any other application of the same pads.
    ledger->note_pad_use(detail::exchanged_pad_key(party_id_, sent),
                         obs::PrivacyLedger::fingerprint(values),
                         static_cast<int>(party_id_),
                         static_cast<int>(party_id_), 0, "exchanged_cached");
    ledger->note_contribution(static_cast<std::int64_t>(out.size()),
                              static_cast<std::int64_t>(out.size() * 8));
  }
  return out;
}

std::vector<std::uint64_t> SecureSumParty::masked_contribution(
    std::span<const double> values, std::size_t round) {
  PPML_CHECK(variant_ == MaskVariant::kSeededMasks,
             "masked_contribution(round): seeded variant only");
  std::vector<std::uint64_t> out = codec_.encode_vector(values);
  std::vector<std::uint64_t> mask(values.size());
  for (std::size_t peer = 0; peer < num_parties_; ++peer) {
    if (peer == party_id_) continue;
    ChaCha20Stream prg(pairwise_seeds_[peer], round);
    prg.fill(mask);
    // Antisymmetric sign convention: the lower-id party adds, the higher-id
    // party subtracts, so each pair's masks cancel in the reducer's sum.
    if (party_id_ < peer) {
      ring_add_inplace(out, mask);
    } else {
      ring_sub_inplace(out, mask);
    }
  }
  obs::count("crypto.masks_generated",
             static_cast<std::int64_t>(num_parties_ - 1));
  obs::count("crypto.masked_contributions");
  if (obs::PrivacyLedger* ledger = obs::privacy_ledger()) {
    // One pad record per edge, keyed on the actual pairwise seed VALUE (not
    // the caller's session identity): two sessions that derive the same
    // seeds — a missed rekey, a protocol seed shared across instances —
    // collide here even though each one's own bookkeeping looks clean.
    const std::uint64_t fp = obs::PrivacyLedger::fingerprint(values);
    for (std::size_t peer = 0; peer < num_parties_; ++peer) {
      if (peer == party_id_) continue;
      ledger->note_pad_use(
          obs::PrivacyLedger::pad_key(pairwise_seeds_[peer], round, party_id_),
          fp, static_cast<int>(party_id_), static_cast<int>(peer), round,
          "seeded");
    }
    ledger->note_masks(static_cast<std::int64_t>(num_parties_ - 1));
    ledger->note_contribution(static_cast<std::int64_t>(out.size()),
                              static_cast<std::int64_t>(out.size() * 8));
  }
  return out;
}

std::vector<std::uint64_t> SecureSumParty::masked_contribution_subset(
    std::span<const double> values, std::size_t round,
    std::span<const std::size_t> participants) {
  PPML_CHECK(variant_ == MaskVariant::kSeededMasks,
             "masked_contribution_subset: seeded variant only");
  bool included = false;
  for (std::size_t p : participants) {
    PPML_CHECK(p < num_parties_,
               "masked_contribution_subset: participant out of range");
    if (p == party_id_) included = true;
  }
  PPML_CHECK(included,
             "masked_contribution_subset: this party must participate");
  std::vector<std::uint64_t> out = codec_.encode_vector(values);
  std::vector<std::uint64_t> mask(values.size());
  for (std::size_t peer : participants) {
    if (peer == party_id_) continue;
    ChaCha20Stream prg(pairwise_seeds_[peer], round);
    prg.fill(mask);
    if (party_id_ < peer) {
      ring_add_inplace(out, mask);
    } else {
      ring_sub_inplace(out, mask);
    }
  }
  obs::count("crypto.masks_generated",
             static_cast<std::int64_t>(participants.size() - 1));
  obs::count("crypto.masked_contributions");
  if (obs::PrivacyLedger* ledger = obs::privacy_ledger()) {
    const std::uint64_t fp = obs::PrivacyLedger::fingerprint(values);
    for (std::size_t peer : participants) {
      if (peer == party_id_) continue;
      ledger->note_pad_use(
          obs::PrivacyLedger::pad_key(pairwise_seeds_[peer], round, party_id_),
          fp, static_cast<int>(party_id_), static_cast<int>(peer), round,
          "seeded_subset");
    }
    ledger->note_masks(static_cast<std::int64_t>(participants.size() - 1));
    ledger->note_contribution(static_cast<std::int64_t>(out.size()),
                              static_cast<std::int64_t>(out.size() * 8));
  }
  return out;
}

SecureSumAggregator::SecureSumAggregator(std::size_t num_parties,
                                         FixedPointCodec codec)
    : num_parties_(num_parties), codec_(codec) {
  PPML_CHECK(num_parties >= 2, "SecureSumAggregator: need >= 2 parties");
}

void SecureSumAggregator::add(std::span<const std::uint64_t> contribution) {
  PPML_CHECK(contributions_ < num_parties_,
             "SecureSumAggregator: too many contributions");
  if (accumulator_.empty()) {
    accumulator_.assign(contribution.begin(), contribution.end());
  } else {
    ring_add_inplace(accumulator_, contribution);
  }
  ++contributions_;
}

std::vector<double> SecureSumAggregator::sum() const {
  PPML_CHECK(contributions_ == num_parties_,
             "SecureSumAggregator: masks cancel only with all " +
                 std::to_string(num_parties_) + " contributions (have " +
                 std::to_string(contributions_) + ")");
  return codec_.decode_vector(accumulator_);
}

std::vector<double> SecureSumAggregator::average() const {
  std::vector<double> out = sum();
  for (double& v : out) v /= static_cast<double>(num_parties_);
  return out;
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

std::uint64_t exchanged_pad_key(
    std::size_t party_id,
    const std::vector<std::vector<std::uint64_t>>& sent) {
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

// secure_average lives in secure_sum_session.cpp: it is now a thin wrapper
// over SecureSumSession::average_once.

}  // namespace ppml::crypto
