// The one consensus-ADMM round loop behind every driver.
//
// The paper's Fig. 1 loop lives in one ConsensusEngine, varied along two
// seams:
//
//   RoundPolicy  — WHO takes part in a round and WHAT may go wrong:
//                  FullParticipation, PartialParticipation (randomized
//                  block-coordinate ADMM), ScheduledDropout (post-mask
//                  permanent loss with Shamir recovery) and
//                  BoundedStalenessPolicy (asynchronous rounds). An engine
//                  built without a policy picks Full or BoundedStaleness
//                  from AdmmParams::asynchronous().
//   Transport    — WHERE the round body executes: InMemoryTransport (this
//                  header) drives learners in-process, on worker_pool();
//                  FabricTransport (core/mapreduce_adapter.h) binds the
//                  engine to the simulated MapReduce cluster, bytes on the
//                  wire included.
//
// The protocol work of a round — batched masking through
// crypto::SecureSumSession::contribute (one SecureSumParty::mask per party,
// either variant, any edge set), ring aggregation, dropout correction,
// coordinator combine, convergence, obs spans/series — lives HERE, once.
// Transports own only scheduling: the in-memory transport loops and calls
// step_round(); the fabric's mapper/reducer shims deserialize bytes and
// call SecureSumParty::mask / reduce_round().
//
// Every configuration is bit-identical to the hand-rolled drivers it
// replaced (tests/consensus_engine_test.cpp pins golden digests recorded
// from them).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "core/consensus.h"
#include "crypto/secure_sum_session.h"

namespace ppml::mapreduce {
class Executor;
struct FaultPlan;
}  // namespace ppml::mapreduce

namespace ppml::core {

class ConsensusEngine;

/// The process's one pool for in-process parallel work: in-process engines
/// run each round's local steps on it, and kh's learner setup its linalg.
/// It has max(1, hardware_concurrency()) workers, created on first use.
mapreduce::Executor& worker_pool();

/// Observational tripwire over the ADMM residual series: feed() one
/// (primal², dual²) pair per round and the watchdog flags a run that is
/// going nowhere long before max_iterations burns out —
///   divergence: a residual grew strictly monotonically across the whole
///               window (ρ too aggressive, bad data split, a faulty
///               transport corrupting the consensus state), or
///   stall:      the primal residual's relative spread over the window is
///               below stall_epsilon while still above stall_floor (flat
///               but unconverged — classic step-size deadlock).
/// The watchdog latches on first trip. It never touches the iterate — the
/// ConsensusEngine only *reports* trips (admm.watchdog.trips counter, a
/// kWatchdog flight event and an automatic flight-recorder dump).
class DivergenceWatchdog {
 public:
  struct Config {
    std::size_t window = 8;       ///< rounds examined per verdict (>= 3)
    double stall_epsilon = 1e-3;  ///< relative spread considered "flat"
    double stall_floor = 1e-8;    ///< primal² below this is converging, not
                                  ///< stalled — never trip underneath it
    /// Asynchronous runs only: trip with reason "staleness" when the mean
    /// per-party contribution staleness, averaged over the window, exceeds
    /// this (the cohort is chronically lagging, so the residual series is
    /// no longer trustworthy). 0 disables (every synchronous run).
    double staleness_limit = 0.0;
  };

  explicit DivergenceWatchdog(Config config);

  /// Record one round's squared residuals (and, async, the round's mean
  /// contribution staleness). Returns true exactly once: on the feed that
  /// trips the watchdog.
  bool feed(double primal_sq, double dual_sq, double mean_staleness = 0.0);

  bool tripped() const noexcept { return tripped_; }
  /// "divergence:primal", "divergence:dual", "staleness" or "stall" once
  /// tripped.
  const std::string& reason() const noexcept { return reason_; }

 private:
  Config config_;
  std::vector<double> primal_;  ///< sliding window, oldest first
  std::vector<double> dual_;
  std::vector<double> staleness_;
  bool tripped_ = false;
  std::string reason_;
};

/// WHO participates in each round, and how losses are scheduled. Policies
/// may be stateful across rounds (the partial-participation sampler is);
/// one policy instance drives one run.
class RoundPolicy {
 public:
  virtual ~RoundPolicy() = default;

  virtual const char* name() const = 0;

  /// Ring-headroom terms for the fixed-point codec (how many values are
  /// summed per round). Default: the full cohort.
  virtual std::size_t codec_terms(std::size_t num_learners) const {
    return num_learners;
  }

  /// Reject configurations the policy cannot run (learner count, mask
  /// variant). Called once before the session is built.
  virtual void validate(std::size_t num_learners,
                        const AdmmParams& params) const = 0;

  /// This round's participants, drawn from the currently `live` cohort
  /// (sorted ascending). Participants run a local step and mask against
  /// exactly this set. Default: everyone live.
  virtual std::vector<std::size_t> participants(
      std::size_t round, const std::vector<std::size_t>& live) {
    (void)round;
    return live;
  }

  /// Parties that permanently fail this round AFTER masking (their pairwise
  /// masks are woven into the survivors' vectors and must be corrected).
  /// Drawn from `maskers`; default none.
  virtual std::vector<std::size_t> post_mask_drops(
      std::size_t round, const std::vector<std::size_t>& maskers) {
    (void)round;
    (void)maskers;
    return {};
  }

  /// Whether the session must arm Shamir dropout recovery up front.
  virtual bool wants_recovery() const { return false; }
  /// Requested Shamir threshold (0 = auto) and sharing-polynomial seed,
  /// read only when wants_recovery().
  virtual std::size_t recovery_threshold_request() const { return 0; }
  virtual std::uint64_t recovery_sharing_seed() const { return 0xD509; }

  /// Whether rounds close asynchronously (quorum/deadline instead of the
  /// full-barrier step_round). Transports dispatch on this: the in-memory
  /// transport runs step_round_async, the fabric bounds its contribution
  /// wait. Only BoundedStalenessPolicy returns true.
  virtual bool asynchronous() const { return false; }
};

/// Every live learner takes part in every round (the paper's Fig. 1 loop).
class FullParticipation final : public RoundPolicy {
 public:
  const char* name() const override { return "full"; }
  void validate(std::size_t num_learners,
                const AdmmParams& params) const override;
};

/// Randomized partial participation: each round samples
/// `participants_per_round` learners without replacement (deterministic in
/// `sampling_seed`) — randomized block-coordinate ADMM. Seeded masks only.
class PartialParticipation final : public RoundPolicy {
 public:
  PartialParticipation(std::size_t participants_per_round,
                       std::uint64_t sampling_seed);

  const char* name() const override { return "partial"; }
  std::size_t codec_terms(std::size_t num_learners) const override;
  void validate(std::size_t num_learners,
                const AdmmParams& params) const override;
  std::vector<std::size_t> participants(
      std::size_t round, const std::vector<std::size_t>& live) override;

 private:
  std::size_t participants_per_round_;
  crypto::Xoshiro256 sampler_;
  std::vector<std::size_t> ids_;  ///< persistent Fisher–Yates pool
};

/// Scheduled permanent post-mask dropouts with Shamir seed recovery — the
/// unit-testable reference for the cluster's fault path. Seeded masks,
/// M >= 3.
class ScheduledDropout final : public RoundPolicy {
 public:
  explicit ScheduledDropout(DropoutSchedule schedule);

  const char* name() const override { return "dropout"; }
  void validate(std::size_t num_learners,
                const AdmmParams& params) const override;
  std::vector<std::size_t> post_mask_drops(
      std::size_t round, const std::vector<std::size_t>& maskers) override;
  bool wants_recovery() const override { return true; }
  std::size_t recovery_threshold_request() const override {
    return schedule_.threshold;
  }
  std::uint64_t recovery_sharing_seed() const override {
    return schedule_.sharing_seed;
  }

 private:
  DropoutSchedule schedule_;
};

/// Asynchronous bounded-staleness rounds (FDML / Hu et al. 1907.07735):
/// a round closes once a quorum of ceil(async_quorum_fraction * live)
/// parties has delivered a fresh local step OR the per-round deadline
/// expires. Stragglers are not dropped: their last completed value is
/// carried forward and re-masked each round with a weight that decays in
/// its staleness s (AdmmParams::stale_weight_mode), until s exceeds
/// max_staleness — then the party is presumed dead and the Shamir
/// dropout-recovery path corrects the round, exactly like ScheduledDropout.
/// With quorum Q = M and no deadline every round closes on the full fresh
/// cohort and the run is bit-identical to FullParticipation (pinned).
/// Seeded masks, M >= 3. All tuning lives in AdmmParams (the async_* and
/// stale_* knobs); see docs/async_consensus.md.
class BoundedStalenessPolicy final : public RoundPolicy {
 public:
  explicit BoundedStalenessPolicy(std::size_t threshold_request = 0,
                                  std::uint64_t sharing_seed = 0xD509);

  const char* name() const override { return "bounded-staleness"; }
  void validate(std::size_t num_learners,
                const AdmmParams& params) const override;
  bool wants_recovery() const override { return true; }
  std::size_t recovery_threshold_request() const override {
    return threshold_request_;
  }
  std::uint64_t recovery_sharing_seed() const override {
    return sharing_seed_;
  }
  bool asynchronous() const override { return true; }

 private:
  std::size_t threshold_request_;
  std::uint64_t sharing_seed_;
};

/// WHERE the rounds execute. A transport owns scheduling (loop, placement,
/// fault injection) and calls back into the engine for every piece of
/// protocol work.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual ConsensusRunResult run(ConsensusEngine& engine,
                                 const RoundObserver& observer) = 0;
};

/// Trivial transport: drive the learners in-process, one step_round() per
/// iteration (step_round_async under an asynchronous policy). Fast path for
/// benches/tests and the in-memory trainers.
class InMemoryTransport final : public Transport {
 public:
  InMemoryTransport() = default;
  /// Asynchronous runs simulate per-party compute delays from `plan`:
  /// the ComputeDelay schedule scales a party's step time, and the
  /// "contribution" channel's probabilistic delay adds
  /// extra_delay_seconds per (party, round) hit — all deterministic in
  /// plan->seed. `plan` must outlive the transport; ignored (and the
  /// simulation runs delay-free) when null or under a synchronous policy.
  explicit InMemoryTransport(const mapreduce::FaultPlan* plan)
      : plan_(plan) {}

  ConsensusRunResult run(ConsensusEngine& engine,
                         const RoundObserver& observer) override;

 private:
  const mapreduce::FaultPlan* plan_ = nullptr;
};

/// The engine: one ADMM round body (local steps → batched secure sum →
/// recovery → combine → convergence) shared by every driver.
class ConsensusEngine {
 public:
  /// In-process engine: owns the learners' local steps. Without a policy
  /// the engine owns the one `params` selects: BoundedStalenessPolicy when
  /// params.asynchronous(), FullParticipation otherwise.
  ConsensusEngine(std::vector<std::shared_ptr<ConsensusLearner>>& learners,
                  ConsensusCoordinator& coordinator, const AdmmParams& params,
                  RoundPolicy& policy);
  ConsensusEngine(std::vector<std::shared_ptr<ConsensusLearner>>& learners,
                  ConsensusCoordinator& coordinator, const AdmmParams& params);

  /// Reducer-side engine for a distributed transport: local steps happen
  /// remotely, the engine only aggregates/combines (reduce_round). The
  /// learner count is still needed for the mask algebra. Without a policy,
  /// as above.
  ConsensusEngine(std::size_t num_learners, ConsensusCoordinator& coordinator,
                  const AdmmParams& params, RoundPolicy& policy);
  ConsensusEngine(std::size_t num_learners, ConsensusCoordinator& coordinator,
                  const AdmmParams& params);

  /// Run to completion on `transport`.
  ConsensusRunResult run(Transport& transport,
                         const RoundObserver& observer = nullptr);

  /// One full in-process round: participants' local steps, batched masked
  /// contributions, aggregation (+ recovery on scheduled drops), cohort
  /// resize, coordinator combine, series recording. Returns the next
  /// broadcast. In-process engines only.
  const Vector& step_round(std::size_t round);

  /// One asynchronous bounded-staleness round (in-process engines under a
  /// BoundedStalenessPolicy): advance the simulated event clock to the
  /// earlier of quorum-complete and the round deadline, harvest the local
  /// steps that finished, carry stragglers' last values forward with
  /// stale-decayed weight, drop parties past max_staleness into the Shamir
  /// recovery path, then aggregate/combine exactly like step_round. With
  /// Q = live and no deadline this is bit-identical to step_round.
  const Vector& step_round_async(std::size_t round);

  /// Install the simulated per-party delay model for step_round_async
  /// (FaultPlan::compute_delays schedule + probabilistic extra delay on the
  /// "contribution" channel, deterministic in plan->seed). Null = unit-time
  /// steps for everyone. `plan` must outlive the engine.
  void configure_async_delays(const mapreduce::FaultPlan* plan);

  /// Copy the engine's end-of-run verdicts (watchdog trip + reason, async
  /// clock and counters) into `result`. Transports call this once after the
  /// loop; fills only the fields the engine owns.
  void finalize_result(ConsensusRunResult& result) const;

  /// Outcome of a reducer-side round (distributed transports).
  struct ReduceOutcome {
    Vector broadcast;  ///< the next consensus state to send out
    crypto::SecureSumSession::ReduceAudit audit;  ///< recovery bookkeeping
    // Asynchronous rounds only (all empty/zero in synchronous rounds):
    std::size_t fresh = 0;  ///< parties whose contribution was this round's
    std::vector<std::size_t> carried;  ///< parties re-sending a stale value
    double weight_total = 0.0;    ///< sum of stale weights entering the avg
    bool deadline_expired = false;  ///< round closed by deadline, not quorum
  };

  /// The previous async round's outcome (valid after step_round_async).
  const ReduceOutcome& last_async_outcome() const noexcept {
    return async_outcome_;
  }
  double async_seconds() const noexcept { return async_clock_; }
  std::size_t deadline_expirations() const noexcept {
    return deadline_expirations_;
  }
  std::size_t staleness_drops() const noexcept { return staleness_drops_; }

  /// Reducer-side round body: aggregate `contributions` (indexed by party,
  /// empty = absent) masked against `mask_set`, recovering any party in
  /// mask_set \ present, then combine and record. The transport owns
  /// mask-set tracking and membership. The outcome lives in the engine,
  /// refilled in place by the next call.
  const ReduceOutcome& reduce_round(
      std::size_t round, std::span<const std::size_t> mask_set,
      std::span<const std::size_t> present,
      const std::vector<std::vector<std::uint64_t>>& contributions);
  /// Same round over wire bytes (SecureSumSession::WireContributions): the
  /// fabric reducer's views into its received frames.
  const ReduceOutcome& reduce_round(
      std::size_t round, std::span<const std::size_t> mask_set,
      std::span<const std::size_t> present,
      crypto::SecureSumSession::WireContributions contributions);

  /// Re-key the secure-sum session for a new key-agreement epoch (a learner
  /// rejoined; the old seeds are burned). Distributed transports only.
  void rekey(std::size_t epoch);

  /// Arm epoch-aware dropout recovery with the fabric's sharing-seed
  /// schedule (re-armed automatically on rekey). `threshold_request` 0 =
  /// auto.
  void arm_fabric_recovery(std::size_t threshold_request);

  bool converged() const noexcept { return converged_; }
  /// The divergence watchdog, or nullptr when params.watchdog_window == 0.
  const DivergenceWatchdog* watchdog() const noexcept {
    return watchdog_ ? &*watchdog_ : nullptr;
  }
  double last_delta_sq() const { return coordinator_.last_delta_sq(); }
  const Vector& broadcast() const noexcept { return broadcast_; }
  const AdmmParams& params() const noexcept { return params_; }
  std::size_t num_learners() const noexcept { return num_learners_; }
  RoundPolicy& policy() noexcept { return policy_; }
  crypto::SecureSumSession& session() noexcept { return session_; }
  /// Config a distributed mapper needs to derive its own party state
  /// (crypto::SecureSumSession::make_party).
  const crypto::SecureSumConfig& session_config() const noexcept {
    return session_.config();
  }

 private:
  /// `learners` null = reducer-side engine; `policy` null = the engine owns
  /// the policy `params` selects.
  ConsensusEngine(std::vector<std::shared_ptr<ConsensusLearner>>* learners,
                  std::size_t num_learners, ConsensusCoordinator& coordinator,
                  const AdmmParams& params, RoundPolicy* policy);

  static crypto::SecureSumConfig build_config(std::size_t num_learners,
                                              const AdmmParams& params,
                                              RoundPolicy& policy);

  std::vector<Vector> run_local_steps(
      const std::vector<std::size_t>& participants);
  Vector combine_and_record(const Vector& average, const Vector& z_prev,
                            const std::vector<std::size_t>* active);
  /// reduce_round's body over either contribution form.
  template <typename Contributions>
  const ReduceOutcome& reduce_round_of(std::size_t round,
                                       std::span<const std::size_t> mask_set,
                                       std::span<const std::size_t> present,
                                       const Contributions& contributions);

  /// One party's view of the asynchronous simulation: the local step it is
  /// busy computing (value fixed at dispatch, revealed at busy_until), and
  /// its last completed value available for stale carry-forward.
  struct AsyncPartyState {
    Vector pending;              ///< value being computed (eager evaluation)
    std::size_t pending_round = 0;   ///< broadcast round `pending` consumed
    double busy_until = 0.0;     ///< simulated finish time of `pending`
    bool busy = false;
    Vector value;                ///< last completed local step
    std::size_t value_round = 0;     ///< broadcast round `value` consumed
    bool has_value = false;
  };

  /// Per-party simulated duration of the local step dispatched at `round`.
  double async_step_seconds(std::size_t round, std::size_t party) const;
  double stale_weight(std::size_t staleness) const;

  std::vector<std::shared_ptr<ConsensusLearner>>* learners_;  // null = remote
  ConsensusCoordinator& coordinator_;
  AdmmParams params_;
  std::unique_ptr<RoundPolicy> owned_policy_;  ///< set when none was passed
  RoundPolicy& policy_;
  std::size_t num_learners_;
  std::size_t dim_ = 0;  ///< contribution dim (in-process engines)
  crypto::SecureSumSession session_;
  std::vector<std::size_t> live_;
  Vector broadcast_;
  bool converged_ = false;
  bool fabric_recovery_ = false;
  std::size_t fabric_threshold_request_ = 0;
  std::optional<DivergenceWatchdog> watchdog_;

  // Asynchronous (bounded-staleness) state — untouched by synchronous runs.
  const mapreduce::FaultPlan* async_plan_ = nullptr;
  std::vector<AsyncPartyState> async_parties_;
  double async_clock_ = 0.0;       ///< simulated event clock (seconds)
  double pending_staleness_ = 0.0;  ///< this round's mean staleness (for the
                                    ///< watchdog feed in combine_and_record)
  std::size_t deadline_expirations_ = 0;
  std::size_t staleness_drops_ = 0;
  ReduceOutcome async_outcome_;
  ReduceOutcome reduce_outcome_;  ///< reduce_round's, kept across rounds
};

}  // namespace ppml::core
