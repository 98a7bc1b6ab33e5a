// FabricTransport: binds core::ConsensusEngine onto the simulated
// MapReduce cluster.
//
// This is the deployment shape of the paper's Fig. 1: each learner's shard
// is written to the HDFS-like block store pinned to that learner's node;
// the mapper loads it through the locality-enforcing read API and builds
// the ConsensusLearner from the *bytes on its own disk* — raw training data
// never crosses the network (tests assert this on the wire). Contributions
// travel masked: each mapper holds a crypto::SecureSumParty (derived via
// SecureSumSession::make_party) and masks with SecureSumParty::mask over
// its live cohort, the same routine the in-memory engine's session runs.
// The reducer node delegates aggregation, dropout recovery and the
// coordinator combine to ConsensusEngine::reduce_round and feeds the
// consensus back over the broadcast channel. A run is engine +
// FabricTransport, nothing more (core/cluster_trainers.cpp).
#pragma once

#include <functional>
#include <memory>

#include "core/consensus.h"
#include "core/consensus_engine.h"
#include "data/dataset.h"
#include "mapreduce/cluster.h"
#include "mapreduce/iterative_job.h"

namespace ppml::core {

/// Builds a learner from its shard payload once the mapper knows it is
/// running data-local. Receives (shard bytes, learner index). The payload
/// is a view — possibly straight into the block store's mmap of a spilled
/// split — valid only for the duration of the call; deserialize what you
/// need rather than keeping the span.
using LearnerFactory = std::function<std::shared_ptr<ConsensusLearner>(
    mapreduce::BytesView, std::size_t)>;

/// One permanent learner loss observed by the reducer.
struct DropoutEvent {
  std::size_t round = 0;   ///< round the loss was detected in
  std::size_t mapper = 0;  ///< the dropped learner
  /// True when the learner vanished AFTER masking (crash post-map or its
  /// contribution was undeliverable): the reducer reconstructed the dropped
  /// party's pairwise seeds and corrected the round's sum. False for
  /// pre-mask losses (placement/broadcast failure), where survivors simply
  /// masked over the smaller set and no correction was needed.
  bool corrected = false;
  /// Filled for corrected events: the live set whose exact sum the round
  /// settled on, and that sum (decoded, before the 1/M' averaging).
  std::vector<std::size_t> survivors;
  std::vector<double> corrected_sum;
};

struct ClusterTrainResult {
  ConsensusRunResult run;
  mapreduce::JobStats job;
  std::vector<double> delta_trace;  ///< per-round ||dz||^2 from the reducer
  std::vector<DropoutEvent> dropout_events;  ///< losses the reducer handled
};

/// Transport that executes the engine's rounds as an iterative MapReduce
/// job: mappers run the learners data-locally and emit masked
/// contributions; the reducer shim feeds them to engine.reduce_round().
/// One FabricTransport drives one run; job stats / traces are readable
/// afterwards.
///
/// With job_config.tolerate_mapper_loss (requires kSeededMasks and M >= 3)
/// the run survives permanent learner loss: pre-mask losses shrink the mask
/// set, post-mask losses are corrected by the reducer via Shamir
/// reconstruction of the dropped party's pairwise seeds
/// (crypto/dropout_recovery.h), and the ADMM average reweights over the
/// M' survivors (ConsensusLearner::on_cohort_resize). A rejoining learner
/// triggers fresh key agreement for everyone (new epoch) — the reducer
/// burned its old seeds. An asynchronous engine policy turns the same
/// machinery into a deadline-bounded contribution wait. See
/// docs/fault_tolerance.md.
class FabricTransport final : public Transport {
 public:
  /// `shards[i]` is learner i's serialized private data, stored on node i
  /// (with the cluster's replication factor). The transport owns the
  /// shards and run() moves each one into the block store, so the payload
  /// is held once, by the node that plays its disk; pass them with
  /// std::move unless the caller still needs its own copy. Requires
  /// cluster.num_nodes() >= shards.size(); a distinct reducer node is
  /// recommended (the paper's reducer is a separate role).
  FabricTransport(mapreduce::Cluster& cluster,
                  std::vector<mapreduce::Bytes> shards,
                  LearnerFactory factory, mapreduce::NodeId reducer_node,
                  mapreduce::JobConfig job_config = {});

  ConsensusRunResult run(ConsensusEngine& engine,
                         const RoundObserver& observer) override;

  const mapreduce::JobStats& job_stats() const noexcept { return job_stats_; }
  const std::vector<double>& delta_trace() const noexcept {
    return delta_trace_;
  }
  const std::vector<DropoutEvent>& dropout_events() const noexcept {
    return dropout_events_;
  }

 private:
  mapreduce::Cluster& cluster_;
  std::vector<mapreduce::Bytes> shards_;  ///< emptied as run() places them
  LearnerFactory factory_;
  mapreduce::NodeId reducer_node_;
  mapreduce::JobConfig job_config_;
  mapreduce::JobStats job_stats_;
  std::vector<double> delta_trace_;
  std::vector<DropoutEvent> dropout_events_;
};

/// Shard payload helpers shared by the trainers and tests. Deserializers
/// take views so a mapper can stream a spilled split's mmap directly.
mapreduce::Bytes serialize_horizontal_shard(const data::Dataset& shard);
data::Dataset deserialize_horizontal_shard(mapreduce::BytesView payload);

mapreduce::Bytes serialize_vertical_block(const linalg::Matrix& block);
linalg::Matrix deserialize_vertical_block(mapreduce::BytesView payload);

/// Round payload decoders of the fabric's mapper and reducer. A broadcast
/// is one double vector (an empty payload decodes to an empty vector: the
/// cold start), decoded into a buffer the mapper keeps across rounds. A
/// contribution, like an exchanged peer mask, is one u64 vector of masked
/// words: deserialize_masked decodes it, masked_word_bytes returns the view
/// of its little-endian words that the reducer sums in place. All throw
/// ppml::Error on a short payload and on any byte after the vector.
void deserialize_doubles(mapreduce::BytesView payload, Vector& out);
void deserialize_masked(mapreduce::BytesView payload,
                        std::vector<std::uint64_t>& out);
mapreduce::BytesView masked_word_bytes(mapreduce::BytesView payload);

}  // namespace ppml::core
