#include "crypto/secure_sum_session.h"

#include <algorithm>

#include "obs/obs.h"

namespace ppml::crypto {

namespace {

/// The exchanged variant regenerates masks every round and never re-keys,
/// so epochs do not mix into the per-party seeds.
std::uint64_t exchanged_party_seed(const SecureSumConfig& config,
                                   std::size_t party) {
  return config.protocol_seed ^ (party * 0x9e3779b97f4a7c15ULL);
}

}  // namespace

FixedPointCodec SecureSumSession::codec_for(const SecureSumConfig& config) {
  const std::size_t terms =
      config.codec_terms != 0 ? config.codec_terms : config.num_parties;
  return FixedPointCodec(config.fixed_point_bits, terms);
}

SecureSumSession::SecureSumSession(const SecureSumConfig& config,
                                   std::size_t epoch)
    : SecureSumSession(config, codec_for(config), epoch) {}

SecureSumSession::SecureSumSession(const SecureSumConfig& config,
                                   FixedPointCodec codec, std::size_t epoch)
    : config_(config), codec_(codec), epoch_(epoch) {
  PPML_CHECK(config_.num_parties >= 2,
             "SecureSumSession: need >= 2 parties");
  PPML_CHECK(config_.topology == AggregationTopology::kPairwise ||
                 config_.variant == MaskVariant::kSeededMasks,
             "SecureSumSession: the grouped-ring topology requires the "
             "seeded-mask variant (its sparse edge set rides on the "
             "pairwise-seed matrix)");
  const std::size_t m = config_.num_parties;
  if (config_.variant == MaskVariant::kSeededMasks) {
    seeds_ = agree_pairwise_seeds(m, epoch_key(config_.protocol_seed, epoch));
    // DH setup leakage: each party broadcasts one public value per key
    // agreement epoch (a deliberate protocol disclosure — shared secrets
    // derive from it, the seeds themselves never travel).
    if (obs::PrivacyLedger* ledger = obs::privacy_ledger()) {
      for (std::size_t i = 0; i < m; ++i)
        ledger->note_cleartext_for(static_cast<int>(i),
                                   obs::ClearKind::kDhPublic, 1, 8);
    }
  }
  build_parties();
}

void SecureSumSession::build_parties() {
  const std::size_t m = config_.num_parties;
  parties_.clear();
  parties_.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    if (config_.variant == MaskVariant::kSeededMasks)
      parties_.emplace_back(i, m, codec_, seeds_[i], config_.topology,
                            config_.group_size);
    else
      parties_.emplace_back(i, m, codec_, exchanged_party_seed(config_, i));
  }
}

std::uint64_t SecureSumSession::epoch_key(std::uint64_t base,
                                          std::size_t epoch) {
  return base ^ (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(epoch));
}

std::uint64_t SecureSumSession::epoch_sharing_seed(std::uint64_t base,
                                                   std::size_t epoch) {
  return (base * 0xBF58476D1CE4E5B9ULL) ^
         (0x94D049BB133111EBULL * static_cast<std::uint64_t>(epoch)) ^
         0xD509ULL;
}

std::size_t SecureSumSession::auto_threshold(std::size_t num_parties,
                                             std::size_t requested) {
  if (requested != 0) return requested;
  return std::clamp<std::size_t>(num_parties / 2 + 1, 2, num_parties - 1);
}

SecureSumParty SecureSumSession::make_party(const SecureSumConfig& config,
                                            std::size_t party_id,
                                            std::size_t epoch) {
  const FixedPointCodec codec = codec_for(config);
  if (config.variant == MaskVariant::kSeededMasks) {
    // Key agreement is deterministic in the epoch key, so a lone mapper can
    // derive the full matrix and keep only its row.
    const auto seeds = agree_pairwise_seeds(
        config.num_parties, epoch_key(config.protocol_seed, epoch));
    return SecureSumParty(party_id, config.num_parties, codec,
                          seeds[party_id], config.topology, config.group_size);
  }
  return SecureSumParty(party_id, config.num_parties, codec,
                        exchanged_party_seed(config, party_id));
}

void SecureSumSession::arm_recovery(std::size_t threshold,
                                    std::uint64_t sharing_seed) {
  PPML_CHECK(config_.variant == MaskVariant::kSeededMasks,
             "SecureSumSession: dropout recovery requires the seeded-mask "
             "variant (recovery reconstructs pairwise seeds)");
  PPML_CHECK(config_.num_parties >= 3,
             "SecureSumSession: dropout recovery needs M >= 3 (Shamir)");
  recovery_.emplace(seeds_, auto_threshold(config_.num_parties, threshold),
                    sharing_seed);
}

void SecureSumSession::set_topology(AggregationTopology topology,
                                    std::size_t group_size) {
  PPML_CHECK(!epoch_active_,
             "SecureSumSession::set_topology: the aggregation topology is "
             "pinned for the lifetime of a key-agreement epoch — masks "
             "already expanded this epoch assume the current edge set, so "
             "switching now would leave uncancelled streams in every "
             "in-flight round. Rekey (new epoch) before changing topology");
  PPML_CHECK(topology == AggregationTopology::kPairwise ||
                 config_.variant == MaskVariant::kSeededMasks,
             "SecureSumSession::set_topology: the grouped-ring topology "
             "requires the seeded-mask variant");
  config_.topology = topology;
  config_.group_size = group_size;
  build_parties();
}

std::size_t SecureSumSession::recovery_threshold() const {
  PPML_CHECK(recovery_.has_value(),
             "SecureSumSession: recovery not armed");
  return recovery_->threshold();
}

std::span<const double> SecureSumSession::batch(
    std::span<const Tensor> tensors) {
  PPML_CHECK(!tensors.empty(), "SecureSumSession: no tensors to contribute");
  std::size_t total = 0;
  for (const Tensor& t : tensors) total += t.size();
  obs::count("crypto.sum.contributions");
  obs::count("crypto.sum.batched_tensors",
             static_cast<std::int64_t>(tensors.size()));
  obs::count("crypto.sum.batched_elems", static_cast<std::int64_t>(total));
  if (tensors.size() == 1) return tensors.front();
  batch_scratch_.clear();
  batch_scratch_.reserve(total);
  for (const Tensor& t : tensors)
    batch_scratch_.insert(batch_scratch_.end(), t.begin(), t.end());
  return batch_scratch_;
}

std::vector<std::uint64_t> SecureSumSession::contribute(
    std::size_t party, std::span<const Tensor> tensors, std::size_t round,
    std::span<const std::size_t> mask_set) {
  PPML_CHECK(party < config_.num_parties,
             "SecureSumSession::contribute: bad party id");
  // Mask expansion bills to the contributing party even when the caller
  // (e.g. the in-memory ConsensusEngine) runs every party on one thread.
  obs::PartyScope scope(party);
  epoch_active_ = true;
  const std::span<const double> values = batch(tensors);
  if (config_.variant == MaskVariant::kSeededMasks)
    return parties_[party].mask(values, round, mask_set);

  PPML_CHECK(mask_set.size() == config_.num_parties,
             "SecureSumSession::contribute: the exchanged variant masks over "
             "the full cohort");
  if (exchange_round_ != round || exchange_dim_ != values.size())
    exchange_round(round, values.size());
  // Party `party` adds its own row of the round's streams and subtracts its
  // column — views into the cache, so no stream is copied.
  std::vector<std::span<const std::uint64_t>> sent(sent_[party].begin(),
                                                   sent_[party].end());
  std::vector<std::span<const std::uint64_t>> received(config_.num_parties);
  for (std::size_t peer = 0; peer < config_.num_parties; ++peer)
    received[peer] = sent_[peer][party];
  return parties_[party].mask(values, sent, received, round);
}

void SecureSumSession::exchange_round(std::size_t round, std::size_t dim) {
  sent_.resize(config_.num_parties);
  for (std::size_t i = 0; i < config_.num_parties; ++i) {
    obs::PartyScope scope(i);  // each party expands its own mask streams
    sent_[i] = parties_[i].outgoing_masks(round, dim);
  }
  exchange_round_ = round;
  exchange_dim_ = dim;
}

const std::vector<double>& SecureSumSession::reduce_average(
    std::size_t round, std::span<const std::size_t> mask_set,
    std::span<const std::size_t> present,
    const std::vector<std::vector<std::uint64_t>>& contributions,
    ReduceAudit* audit) {
  return reduce_average_of(
      round, mask_set, present,
      [&](std::size_t i) {
        return i < contributions.size() ? contributions[i].size() : 0;
      },
      [&](std::size_t i) { ring_add_inplace(acc_, contributions[i]); },
      audit);
}

const std::vector<double>& SecureSumSession::reduce_average(
    std::size_t round, std::span<const std::size_t> mask_set,
    std::span<const std::size_t> present, WireContributions wire,
    ReduceAudit* audit) {
  return reduce_average_of(
      round, mask_set, present,
      [&](std::size_t i) { return i < wire.size() ? wire[i].size() / 8 : 0; },
      [&](std::size_t i) {
        PPML_CHECK(wire[i].size() == 8 * acc_.size(),
                   "SecureSumSession::reduce_average: wire contribution is "
                   "not a whole number of words");
        const std::uint8_t* p = wire[i].data();
        for (std::uint64_t& a : acc_) {
          std::uint64_t w = 0;
          for (int b = 7; b >= 0; --b) w = (w << 8) | p[b];
          a += w;
          p += 8;
        }
      },
      audit);
}

template <typename Words, typename Add>
const std::vector<double>& SecureSumSession::reduce_average_of(
    std::size_t round, std::span<const std::size_t> mask_set,
    std::span<const std::size_t> present, Words words, Add add,
    ReduceAudit* audit) {
  PPML_CHECK(!present.empty(), "SecureSumSession::reduce_average: no "
                               "contributions present");
  // Unmasking and dropout recovery are reducer work by definition.
  obs::PartyScope scope(obs::kReducerParty);
  epoch_active_ = true;
  std::vector<std::uint64_t>& acc = acc_;
  acc.clear();
  for (std::size_t i : present) {
    const std::size_t n = words(i);
    PPML_CHECK(n != 0, "SecureSumSession::reduce_average: present party has "
                       "no contribution");
    if (acc.empty()) acc.assign(n, 0);
    PPML_CHECK(acc.size() == n,
               "SecureSumSession::reduce_average: contribution dims differ");
    add(i);
  }

  std::vector<std::size_t> dropped;
  for (std::size_t i : mask_set) {
    if (std::find(present.begin(), present.end(), i) == present.end())
      dropped.push_back(i);
  }
  if (!dropped.empty()) {
    PPML_CHECK(recovery_.has_value(),
               "SecureSumSession::reduce_average: contribution missing but "
               "dropout recovery is not armed (requires kSeededMasks and "
               "M >= 3)");
    PPML_CHECK(present.size() >= recovery_->threshold(),
               "SecureSumSession::reduce_average: fewer survivors than the "
               "Shamir threshold — cannot reconstruct the dropped seeds");
    // Declare the dropouts to the privacy ledger BEFORE any share is
    // revealed: reconstructing a dropped party's seeds is the sanctioned
    // recovery trade-off; the same reveals against a live pair would trip.
    if (obs::PrivacyLedger* ledger = obs::privacy_ledger()) {
      for (std::size_t d : dropped)
        ledger->note_party_dropped(recovery_->sharing_seed(), d);
    }
    const std::vector<std::size_t> survivors(present.begin(), present.end());
    // Grouped topology: a dropped party's uncancelled masks live only on
    // its grouped-ring edges, so only the seeds it shares with SURVIVING
    // NEIGHBORS need reconstruction. (An edge whose two endpoints both
    // dropped contributed no stream to the accumulator at all.) The share
    // HOLDERS stay the first `threshold` survivors of the full present set
    // — Shamir custody is topology-independent.
    std::optional<GroupLayout> layout;
    if (config_.topology == AggregationTopology::kGroupedRing)
      layout = build_group_layout(mask_set, config_.group_size);
    for (std::size_t d : dropped) {
      std::vector<std::size_t> correction_set = survivors;
      if (layout) {
        const std::vector<std::size_t> neighbors = mask_peers(*layout, d);
        correction_set.clear();
        for (std::size_t j : survivors)
          if (std::binary_search(neighbors.begin(), neighbors.end(), j))
            correction_set.push_back(j);
        if (correction_set.empty()) continue;  // whole neighborhood dropped
      }
      // Reducer side: `threshold` survivors reveal their shares of the
      // dropped party's seeds; reconstruct and strip the stale masks.
      obs::Span recovery_span("dropout_recovery", "crypto");
      recovery_span.arg("dropped_party", static_cast<double>(d));
      std::vector<std::uint64_t> reconstructed(config_.num_parties, 0);
      for (std::size_t j : correction_set) {
        std::vector<ShamirShare> shares;
        shares.reserve(recovery_->threshold());
        for (std::size_t h = 0; h < recovery_->threshold(); ++h)
          shares.push_back(recovery_->share(survivors[h], d, j));
        reconstructed[j] = DropoutRecoverySession::reconstruct_seed(shares);
        if (obs::PrivacyLedger* ledger = obs::privacy_ledger())
          ledger->note_seed_reconstructed(recovery_->sharing_seed(), d, j);
      }
      ring_add_inplace(acc, DropoutRecoverySession::mask_correction(
                                d, correction_set, reconstructed, round,
                                acc.size()));
    }
  }

  std::vector<double>& sum = sum_;
  sum.resize(acc.size());
  codec_.decode_into(acc, sum);
  // The decoded round sum is the protocol's deliberate output disclosure —
  // the one thing the reducer is SUPPOSED to learn. Account it.
  if (obs::PrivacyLedger* ledger = obs::privacy_ledger())
    ledger->note_cleartext(obs::ClearKind::kAggregate,
                           static_cast<std::int64_t>(sum.size()),
                           static_cast<std::int64_t>(sum.size() * 8));
  if (audit != nullptr) {
    audit->dropped = std::move(dropped);
    audit->decoded_sum = sum;
  }
  average_.resize(sum.size());
  for (std::size_t j = 0; j < sum.size(); ++j)
    average_[j] = sum[j] / static_cast<double>(present.size());
  return average_;
}

std::vector<double> SecureSumSession::sum_once(
    std::span<const Tensor> per_party_values, std::size_t round) {
  ReduceAudit audit;
  (void)average_once_impl(per_party_values, round, &audit);
  return std::move(audit.decoded_sum);
}

std::vector<double> SecureSumSession::average_once(
    std::span<const Tensor> per_party_values, std::size_t round) {
  return average_once_impl(per_party_values, round, nullptr);
}

std::vector<double> SecureSumSession::average_once_impl(
    std::span<const Tensor> per_party_values, std::size_t round,
    ReduceAudit* audit) {
  const std::size_t m = config_.num_parties;
  PPML_CHECK(per_party_values.size() == m,
             "SecureSumSession: need one value vector per party");
  const std::size_t dim = per_party_values.front().size();
  for (const Tensor& v : per_party_values)
    PPML_CHECK(v.size() == dim, "SecureSumSession: dimension mismatch");

  std::vector<std::size_t> everyone(m);
  for (std::size_t i = 0; i < m; ++i) everyone[i] = i;

  std::vector<std::vector<std::uint64_t>> contributions(m);
  for (std::size_t i = 0; i < m; ++i)
    contributions[i] =
        contribute(i, {&per_party_values[i], 1}, round, everyone);
  return reduce_average(round, everyone, everyone, contributions, audit);
}

std::vector<double> secure_average(
    const std::vector<std::vector<double>>& party_values,
    const FixedPointCodec& codec, std::uint64_t session_seed,
    MaskVariant variant, std::size_t round) {
  const std::size_t m = party_values.size();
  PPML_CHECK(m >= 2, "secure_average: need >= 2 parties");
  const std::size_t dim = party_values.front().size();
  for (const auto& v : party_values)
    PPML_CHECK(v.size() == dim, "secure_average: dimension mismatch");

  SecureSumConfig config;
  config.num_parties = m;
  config.variant = variant;
  config.protocol_seed = session_seed;
  SecureSumSession session(config, codec);
  const std::vector<SecureSumSession::Tensor> tensors(party_values.begin(),
                                                      party_values.end());
  return session.average_once(tensors, round);
}

}  // namespace ppml::crypto
