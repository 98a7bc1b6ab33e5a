#include "core/feature_selection.h"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "crypto/prng.h"
#include "crypto/secure_sum_session.h"

namespace ppml::core {

namespace {

/// Layout of the statistics vector: [count+, count-,
/// sum+_0..k, sum-_0..k, sumsq+_0..k, sumsq-_0..k].
linalg::Vector local_statistics(const data::Dataset& shard) {
  const std::size_t k = shard.features();
  linalg::Vector stats(2 + 4 * k, 0.0);
  for (std::size_t i = 0; i < shard.size(); ++i) {
    const bool positive = shard.y[i] > 0.0;
    stats[positive ? 0 : 1] += 1.0;
    const std::size_t sum_base = 2 + (positive ? 0 : k);
    const std::size_t sq_base = 2 + 2 * k + (positive ? 0 : k);
    for (std::size_t j = 0; j < k; ++j) {
      const double v = shard.x(i, j);
      stats[sum_base + j] += v;
      stats[sq_base + j] += v * v;
    }
  }
  return stats;
}

linalg::Vector fisher_from_statistics(const linalg::Vector& stats,
                                      std::size_t k) {
  const double n_pos = stats[0];
  const double n_neg = stats[1];
  PPML_CHECK(n_pos > 1.0 && n_neg > 1.0,
             "fisher scores: need > 1 sample per class globally");
  linalg::Vector scores(k);
  for (std::size_t j = 0; j < k; ++j) {
    const double mean_pos = stats[2 + j] / n_pos;
    const double mean_neg = stats[2 + k + j] / n_neg;
    const double var_pos =
        std::max(0.0, stats[2 + 2 * k + j] / n_pos - mean_pos * mean_pos);
    const double var_neg =
        std::max(0.0, stats[2 + 3 * k + j] / n_neg - mean_neg * mean_neg);
    const double spread = var_pos + var_neg;
    const double gap = mean_pos - mean_neg;
    scores[j] = spread > 1e-12 ? gap * gap / spread
                               : (gap == 0.0 ? 0.0 : 1e12);
  }
  return scores;
}

}  // namespace

linalg::Vector centralized_fisher_scores(const data::Dataset& dataset) {
  dataset.validate();
  return fisher_from_statistics(local_statistics(dataset),
                                dataset.features());
}

FeatureSelectionResult secure_fisher_scores(
    const data::HorizontalPartition& partition, const AdmmParams& params) {
  const std::size_t m = partition.learners();
  PPML_CHECK(m >= 2, "secure_fisher_scores: need >= 2 learners");
  const std::size_t k = partition.shards.front().features();

  // Sums (not averages) are what the formula needs; the protocol averages,
  // so scale back by M afterwards — exact in fixed point up to one round.
  std::vector<std::vector<double>> contributions;
  contributions.reserve(m);
  for (const data::Dataset& shard : partition.shards) {
    PPML_CHECK(shard.features() == k,
               "secure_fisher_scores: shard widths differ");
    contributions.push_back(local_statistics(shard));
  }

  crypto::SecureSumConfig config;
  config.num_parties = m;
  config.fixed_point_bits = params.fixed_point_bits;
  config.variant = params.mask_variant;
  // One-shot round-0 session: domain-separate from the training seed (which
  // also masks at round 0) and mix a per-call nonce so repeated selection
  // runs never re-expand a previous call's pads over new statistics. The
  // averaged sum is seed-independent — masks cancel exactly in the ring —
  // so scores are unchanged.
  static std::atomic<std::uint64_t> fisher_nonce{0};
  config.protocol_seed =
      crypto::Xoshiro256(params.protocol_seed ^
                         (0x66697368657221ULL +
                          fisher_nonce.fetch_add(1,
                                                 std::memory_order_relaxed)))
          .next();
  config.topology = params.agg_topology;
  config.group_size = params.agg_group_size;
  crypto::SecureSumSession session(config);

  const std::vector<crypto::SecureSumSession::Tensor> tensors(
      contributions.begin(), contributions.end());
  const std::vector<double> average = session.average_once(tensors,
                                                           /*round=*/0);

  linalg::Vector totals(average.size());
  for (std::size_t i = 0; i < totals.size(); ++i)
    totals[i] = average[i] * static_cast<double>(m);

  FeatureSelectionResult result;
  result.contribution_dim = totals.size();
  result.fisher_scores = fisher_from_statistics(totals, k);
  result.ranking.resize(k);
  std::iota(result.ranking.begin(), result.ranking.end(), 0);
  std::sort(result.ranking.begin(), result.ranking.end(),
            [&](std::size_t a, std::size_t b) {
              return result.fisher_scores[a] > result.fisher_scores[b];
            });
  return result;
}

std::pair<data::HorizontalPartition, std::vector<std::size_t>>
select_top_features(const data::HorizontalPartition& partition,
                    const FeatureSelectionResult& selection,
                    std::size_t keep) {
  PPML_CHECK(keep >= 1 && keep <= selection.ranking.size(),
             "select_top_features: keep out of range");
  std::vector<std::size_t> kept(selection.ranking.begin(),
                                selection.ranking.begin() +
                                    static_cast<std::ptrdiff_t>(keep));
  data::HorizontalPartition out;
  out.shards.reserve(partition.learners());
  for (const data::Dataset& shard : partition.shards)
    out.shards.push_back(shard.feature_subset(kept));
  return {std::move(out), std::move(kept)};
}

}  // namespace ppml::core
