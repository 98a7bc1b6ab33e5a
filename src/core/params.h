// Parameters and result types shared by the four privacy-preserving
// trainers (paper §IV, evaluation defaults from §VI).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/grouped_ring.h"
#include "crypto/secure_sum.h"
#include "svm/kernel.h"

namespace ppml::core {

/// Weight of a carried-forward (stale) contribution in asynchronous
/// bounded-staleness rounds, as a function of its staleness s (rounds since
/// the broadcast it consumed). Fresh contributions (s = 0) always weigh 1.
enum class StaleWeight {
  kGeometric,  ///< stale_decay^s — the FDML-style exponential fade
  kInverse,    ///< 1 / (1 + s)
  kUniform,    ///< 1 while s <= max_staleness (pure bounded-delay ADMM)
};

/// ADMM + protocol knobs. Defaults are the paper's §VI settings.
struct AdmmParams {
  double c = 50.0;     ///< slack penalty (paper: C = 50)
  double rho = 100.0;  ///< augmented-Lagrangian weight (paper: rho = 100)
  std::size_t max_iterations = 100;  ///< paper's plots run 100 iterations
  double convergence_tolerance = 0.0;  ///< stop early when ||dz||^2 below
                                       ///< this (0 = run all iterations,
                                       ///< like the paper's figures)

  // Inner QP controls.
  double qp_tolerance = 1e-6;
  std::size_t qp_max_sweeps = 2000;
  /// Largest shard (rows) for which the linear-horizontal learner
  /// materializes the dense n x n dual Q (qp::BoxQpSolver). Bigger shards
  /// switch to the matrix-free qp::FactoredBoxQpSolver — O(nk) memory and
  /// sweep cost instead of O(n^2) — which is deterministic but not
  /// bit-identical to the dense path (different accumulation order). The
  /// default keeps every existing run/baseline on the dense, bit-pinned
  /// path; HIGGS-scale shards (10^6 rows would need ~TBs dense) cross it.
  std::size_t dense_q_row_limit = 20000;

  // Kernel-horizontal specifics (paper §IV-B).
  std::size_t landmarks = 50;  ///< l — size of the reduced consensus space

  // Secure summation.
  unsigned fixed_point_bits = 20;
  crypto::MaskVariant mask_variant = crypto::MaskVariant::kSeededMasks;
  std::uint64_t protocol_seed = 0xC0FFEE;

  /// Which edge set the seeded-mask secure sum masks over
  /// (docs/secure_aggregation.md). kPairwise is the paper's dense protocol
  /// — every pair masks, M(M-1) streams per round. kGroupedRing masks only
  /// inside ~sqrt(M)-sized groups plus a ring of group leaders: ~linear
  /// mask work at large M with bit-identical decoded sums. Flows into
  /// every trainer, secure prediction and feature selection unchanged.
  crypto::AggregationTopology agg_topology =
      crypto::AggregationTopology::kPairwise;
  /// Grouped-ring group size (0 = auto ceil(sqrt(M))).
  std::size_t agg_group_size = 0;

  /// Shamir threshold for dropout recovery (survivors needed to
  /// reconstruct a dropped learner's pairwise seeds). 0 = auto:
  /// clamp(M/2 + 1, 2, M-1). Only used when the job tolerates mapper loss
  /// (requires kSeededMasks and M >= 3).
  std::size_t dropout_threshold = 0;

  std::uint64_t seed = 7;  ///< landmark sampling etc.

  /// Residual watchdog (core::DivergenceWatchdog): flag a run whose ADMM
  /// residuals diverge or stall over a `watchdog_window`-round window.
  /// 0 disables (the default — purely observational; trips only report,
  /// never alter the iterate). Fed only while a metrics session is
  /// installed, since the residual series exists only then.
  std::size_t watchdog_window = 0;
  double watchdog_stall_epsilon = 1e-3;
  double watchdog_stall_floor = 1e-8;

  // --- Asynchronous bounded-staleness rounds (core::BoundedStalenessPolicy,
  // docs/async_consensus.md). All opt-in: the defaults keep every driver on
  // the paper's bulk-synchronous loop, bit-identical to before these knobs
  // existed.

  /// 0 = synchronous (default). In (0, 1]: rounds close as soon as
  /// ceil(fraction * live) parties (clamped to [2, live]) have delivered a
  /// fresh local step; stragglers' last values are carried forward with
  /// stale-decayed weight instead of barriering the round.
  double async_quorum_fraction = 0.0;
  /// Per-round deadline in units of the nominal local-step time (the
  /// in-memory simulation's unit step; the fabric scales by the median live
  /// node). A round closes at min(quorum time, deadline). 0 = no deadline:
  /// wait for the quorum however long it takes.
  double async_round_deadline = 0.0;
  /// A carried contribution older than this many rounds means the party is
  /// presumed dead: it is dropped and the Shamir dropout-recovery path
  /// corrects the round. Must be >= 1 in async mode.
  std::size_t max_staleness = 4;
  /// How a carried contribution's weight decays with staleness.
  StaleWeight stale_weight_mode = StaleWeight::kGeometric;
  /// Base of the geometric decay (weight = stale_decay^s), in (0, 1].
  double stale_decay = 0.5;

  bool asynchronous() const noexcept { return async_quorum_fraction > 0.0; }
};

/// One row of the paper's Fig. 4 series for a run.
struct IterationRecord {
  std::size_t iteration = 0;
  double z_delta_sq = 0.0;       ///< ||z^{t+1} - z^t||^2 (panels a-d)
  double test_accuracy = 0.0;    ///< correct ratio        (panels e-h)
};

/// Full per-run trace (one per dataset/scheme combination).
struct ConvergenceTrace {
  std::vector<IterationRecord> records;

  double final_accuracy() const {
    return records.empty() ? 0.0 : records.back().test_accuracy;
  }
  double final_delta_sq() const {
    return records.empty() ? 0.0 : records.back().z_delta_sq;
  }
};

}  // namespace ppml::core
