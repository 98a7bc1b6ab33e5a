// The consensus abstraction all four trainers share.
//
// Every scheme in the paper reduces to the same loop (Fig. 1):
//
//   repeat:
//     reducer broadcasts the current consensus state
//     each learner runs a local step on its PRIVATE shard
//     the learners' contribution vectors are securely AVERAGED
//     the coordinator (reducer logic) turns the average into the next
//     consensus state and checks convergence
//
// ConsensusLearner is the Map() side; ConsensusCoordinator is the Reduce()
// side minus the secure summation. The loop itself lives in ONE place —
// core::ConsensusEngine (consensus_engine.h) — parameterized by a
// RoundPolicy (who participates) and a Transport (where rounds execute):
// the in-memory trainers run it on the InMemoryTransport, the cluster
// trainers on the FabricTransport (mapreduce_adapter.h).
#pragma once

#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>

#include "core/params.h"
#include "linalg/matrix.h"

namespace ppml::core {

using linalg::Vector;

/// Map() side: one learner's iterative local training.
class ConsensusLearner {
 public:
  virtual ~ConsensusLearner() = default;

  /// Dimension of the contribution vector (constant across rounds).
  virtual std::size_t contribution_dim() const = 0;

  /// One local ADMM step. `broadcast` is the coordinator's current state
  /// (empty on round 0). Returns this learner's contribution, which the
  /// protocol will average with all peers' — the individual vector is never
  /// revealed to anyone.
  virtual Vector local_step(const Vector& broadcast) = 0;

  /// The cohort shrank (learner dropout) or grew back (rejoin): from the
  /// next local_step on, the consensus average runs over `live_learners`
  /// parties. Schemes whose local objective depends on M (e.g. the linear
  /// horizontal dual's a = M / (1 + rho M)) re-derive those terms here so
  /// the degraded consensus stays a faithful M'-party ADMM. Default: no-op
  /// (schemes whose local step is M-free).
  virtual void on_cohort_resize(std::size_t live_learners) {
    (void)live_learners;
  }

  /// Local objective value after the most recent local_step, for schemes
  /// that track one (read only by the observability layer to build the
  /// `admm.objective` series). NaN means "not reported" and the learner is
  /// skipped in the sum. Default: NaN.
  virtual double last_local_objective() const {
    return std::numeric_limits<double>::quiet_NaN();
  }
};

/// Reduce() side minus the secure sum: consumes the average, produces the
/// next broadcast.
class ConsensusCoordinator {
 public:
  virtual ~ConsensusCoordinator() = default;

  /// Consume the secure average of contributions; return the next broadcast.
  virtual Vector combine(const Vector& average) = 0;

  /// ||z^{t+1} - z^t||^2 of the consensus variable after the last combine.
  virtual double last_delta_sq() const = 0;
};

/// Per-round observation hook (used to record Fig. 4 traces). Receives the
/// 0-based iteration index just completed.
using RoundObserver = std::function<void(std::size_t iteration)>;

struct ConsensusRunResult {
  std::size_t iterations = 0;
  bool converged = false;  ///< stopped early via convergence_tolerance

  /// Divergence-watchdog verdict, surfaced here so callers can assert on it
  /// directly — a trip on the final round used to be visible only through
  /// the metrics/flight-recorder side channel, after this result was
  /// already produced. Empty reason while untripped.
  bool watchdog_tripped = false;
  std::string watchdog_reason;

  // Asynchronous (bounded-staleness) rounds only — all zero in synchronous
  // runs. See docs/async_consensus.md.
  double async_seconds = 0.0;  ///< simulated wall-clock of the async run
  std::size_t deadline_expirations = 0;  ///< rounds closed by the deadline
  std::size_t staleness_drops = 0;  ///< parties dropped past max_staleness
};

/// Scheduled PERMANENT dropouts for the ScheduledDropout round policy
/// (consensus_engine.h). Parties in drops[r] fail at round r *after*
/// computing their masked contribution (the worst case: their pairwise
/// masks are woven into the survivors' vectors and must be corrected via
/// seed reconstruction).
struct DropoutSchedule {
  std::map<std::size_t, std::vector<std::size_t>> drops;  ///< round -> parties
  std::size_t threshold = 0;  ///< Shamir threshold; 0 = clamp(M/2+1, 2, M-1)
  std::uint64_t sharing_seed = 0xD509;
};

}  // namespace ppml::core
