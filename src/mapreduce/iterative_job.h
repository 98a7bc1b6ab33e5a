// Iterative MapReduce driver (Twister-style, paper §I Fig. 1).
//
// Per round:
//   1. broadcast : reducer node -> every mapper node   (feedback channel)
//   2. exchange  : mapper -> mapper peer messages      (e.g. protocol masks)
//   3. map       : mappers run in parallel on their data-local nodes
//   4. contribute: mapper node -> reducer node
//   5. reduce    : reducer combines, emits next broadcast, may declare
//                  convergence ("Repeat until Reduce() converge")
//
// Placement is locality-driven: a map task runs on a live replica of the
// mapper's home block. Failure injection knocks out task *placements*
// (attempts), which the driver retries on other replicas — mirroring
// speculative re-execution on Hadoop; mapper state is never re-run within a
// round, so trainer semantics are unaffected.
//
// Fault tolerance (docs/fault_tolerance.md):
//   - Every driver message is CRC-framed; dropped or corrupted frames are
//     detected and re-sent up to 4 times.
//   - With tolerate_mapper_loss, a mapper whose data is gone or whose
//     messages cannot be delivered is marked permanently DROPPED and the
//     job continues with the survivors (the reducer is told, so protocol
//     layers can correct the round — see IterativeReducer::on_mapper_lost).
//     A dropped mapper whose home block becomes readable again REJOINS in a
//     later round under a fresh key epoch.
//   - With speculation_factor > 0, map attempts stuck on a node slower than
//     factor x the median get a speculative backup attempt on another live
//     replica; the simulated clock takes the earlier finisher.
#pragma once

#include <functional>
#include <memory>

#include "mapreduce/cluster.h"

namespace ppml::mapreduce {

/// One logical Map() participant (a learner, in the paper's terms).
class IterativeMapper {
 public:
  virtual ~IterativeMapper() = default;

  /// Called once when the mapper is bound to a node; typically loads the
  /// local shard through the locality-enforcing BlockStore API.
  virtual void configure(const BlockStore& storage, NodeId node) {
    (void)storage;
    (void)node;
  }

  /// Optional peer-to-peer step before map (mask distribution). Returns
  /// (destination mapper index, payload) pairs.
  virtual std::vector<std::pair<std::size_t, Bytes>> exchange(
      std::size_t round) {
    (void)round;
    return {};
  }

  /// One local-training iteration. `broadcast` is the reducer's payload
  /// and `peer_messages[j]` the payload mapper j sent this round (empty if
  /// none); both are views, valid for the duration of the call. The
  /// contribution for the reducer is appended to `contribution`: a Writer
  /// over the driver's contribution frame, positioned after the frame
  /// header, so the payload is written in place (append nothing for an
  /// empty payload).
  virtual void map(std::size_t round, BytesView broadcast,
                   std::span<const BytesView> peer_messages,
                   Writer& contribution) = 0;

  /// Membership notification: `live` is the sorted set of mapper indices
  /// still in the job (it always includes this mapper). `epoch` increments
  /// whenever a rejoin forces fresh key agreement; implementations holding
  /// pairwise secrets must re-derive them for the new epoch. Called before
  /// the next map() that relies on the new membership.
  virtual void on_membership_change(const std::vector<std::size_t>& live,
                                    std::size_t epoch) {
    (void)live;
    (void)epoch;
  }
};

/// The Reduce() participant.
class IterativeReducer {
 public:
  virtual ~IterativeReducer() = default;

  /// Combine this round's contributions (indexed by mapper; views into
  /// the received frames, valid for the duration of the call) into the
  /// next broadcast payload, written to `broadcast` (a Writer over the
  /// driver's broadcast buffer, emptied). A permanently dropped mapper's
  /// entry is empty.
  virtual void reduce(std::size_t round,
                      std::span<const BytesView> contributions,
                      Writer& broadcast) = 0;

  /// Checked after each reduce; true ends the job.
  virtual bool converged() const { return false; }

  /// Mapper `mapper` is permanently lost as of `round`. If
  /// `masked_this_round` the mapper took part in the pre-map protocol steps
  /// of `round` (it may have distributed masks) but its contribution will
  /// never arrive — secure-aggregation layers must correct the round's sum.
  /// Always called before the same round's reduce().
  virtual void on_mapper_lost(std::size_t round, std::size_t mapper,
                              bool masked_this_round) {
    (void)round;
    (void)mapper;
    (void)masked_this_round;
  }

  /// Same contract as IterativeMapper::on_membership_change.
  virtual void on_membership_change(const std::vector<std::size_t>& live,
                                    std::size_t epoch) {
    (void)live;
    (void)epoch;
  }
};

struct JobConfig {
  std::size_t max_rounds = 100;
  double task_failure_probability = 0.0;  ///< per placement attempt
  std::uint64_t failure_seed = 0x5eed;
  std::size_t max_task_attempts = 3;

  /// Graceful degradation: instead of throwing JobError when a mapper's
  /// data is lost or its messages are undeliverable, drop the mapper and
  /// continue with the survivors (notifying the reducer and peers) as long
  /// as at least 2 remain. A dropped mapper is re-admitted once its home
  /// block is readable again (fresh key epoch for everyone).
  bool tolerate_mapper_loss = false;
  /// 0 = off. Otherwise must be >= 1: a map attempt on a node slower than
  /// factor x the median live node gets a speculative backup attempt on the
  /// fastest other live replica of its block; the simulated round clock
  /// takes min(original, factor x median attempt time + backup time).
  double speculation_factor = 0.0;
  /// 0 = block forever on contributions (the synchronous barrier).
  /// Otherwise must be >= 1: the reducer waits at most factor x the (lower)
  /// median live node's map time for contributions each round. A mapper
  /// outside the budget gets ONE retry extension to 1.5x the budget; still
  /// late means it is treated as a post-map loss (its masks are already
  /// woven in, so the dropout-recovery path corrects the sum) and may rejoin
  /// later under a fresh epoch. Decisions are pure functions of configured
  /// node speed factors — never wall time — so they are reproducible run to
  /// run. Requires tolerate_mapper_loss. Set by the async consensus drivers
  /// from AdmmParams::async_round_deadline.
  double round_deadline_factor = 0.0;
};

/// Liveness state machine of one mapper (docs/fault_tolerance.md):
/// alive -> suspected (retries / speculation) -> dropped -> rejoined.
enum class MapperState { kAlive, kSuspected, kDropped, kRejoined };

struct JobStats {
  std::size_t rounds = 0;
  std::size_t map_task_attempts = 0;
  std::size_t task_retries = 0;
  std::map<std::string, ChannelStats> channels;
  double simulated_network_seconds = 0.0;
  /// Per-round critical path of map-task compute time, scaled by each
  /// node's speed factor, summed over rounds (synchronous barrier: the
  /// slowest mapper gates every round — stragglers hurt, unless
  /// speculation caps them).
  double simulated_compute_seconds = 0.0;
  bool converged = false;

  // Fault-tolerance accounting.
  std::size_t mappers_lost = 0;       ///< permanent drops
  std::size_t mappers_rejoined = 0;
  std::size_t speculative_attempts = 0;
  std::size_t round_timeouts = 0;     ///< rounds where a straggler blew the deadline
  std::size_t deadline_misses = 0;    ///< mappers dropped past the round deadline
  std::size_t deadline_retry_waits = 0;  ///< rounds that used the retry extension
  std::size_t message_retries = 0;    ///< driver-level frame re-sends
  std::size_t frames_rejected = 0;    ///< CRC failures detected on drain
  FaultStats network_faults;          ///< what the fabric actually injected
  std::vector<MapperState> mapper_states;  ///< final per-mapper state
};

/// Raised when a job cannot make progress (e.g. a mapper's block has no
/// live replica, or retries are exhausted).
class JobError : public Error {
 public:
  explicit JobError(const std::string& what) : Error(what) {}
};

class IterativeJob {
 public:
  IterativeJob(Cluster& cluster, JobConfig config);

  /// Register a mapper whose home data is `home_block`. The mapper runs on
  /// a live replica of that block each round.
  void add_mapper(std::shared_ptr<IterativeMapper> mapper, BlockId home_block);

  /// Register the reducer and the node it runs on.
  void set_reducer(std::shared_ptr<IterativeReducer> reducer, NodeId node);

  std::size_t num_mappers() const noexcept { return mappers_.size(); }

  /// Run to convergence or max_rounds. `initial_broadcast` seeds round 0.
  JobStats run(Bytes initial_broadcast);

  /// Node each mapper was configured on (after run() or configure_all()).
  const std::vector<NodeId>& mapper_nodes() const noexcept {
    return mapper_nodes_;
  }

 private:
  NodeId place_mapper(std::size_t index, std::size_t round, JobStats& stats);
  void mark_lost(std::size_t index, JobStats& stats);
  void notify_membership();
  void check_quorum() const;
  std::vector<std::size_t> live_mappers() const;

  struct MapperSlot {
    std::shared_ptr<IterativeMapper> mapper;
    BlockId home_block = 0;
    bool configured = false;
  };

  Cluster& cluster_;
  JobConfig config_;
  std::vector<MapperSlot> mappers_;
  std::vector<NodeId> mapper_nodes_;
  std::shared_ptr<IterativeReducer> reducer_;
  NodeId reducer_node_ = 0;
  bool has_reducer_ = false;

  std::vector<bool> live_;
  std::vector<MapperState> states_;
  std::size_t epoch_ = 0;
};

}  // namespace ppml::mapreduce
