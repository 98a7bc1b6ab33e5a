// A simulated data-parallel cluster: nodes with storage, a network fabric,
// and a shared task-slot pool. One Cluster hosts many jobs.
#pragma once

#include <memory>

#include "mapreduce/blockstore.h"
#include "mapreduce/executor.h"
#include "mapreduce/network.h"

namespace ppml::mapreduce {

struct ClusterConfig {
  std::size_t num_nodes = 4;
  std::size_t replication = 1;    ///< default block replication factor
  std::size_t task_slots = 0;     ///< 0 = one slot per node
  LatencyModel latency = {};
  /// Per-node compute-speed multipliers for the simulated clock: a factor
  /// of 3.0 means tasks on that node take 3x as long in simulated time
  /// (straggler modelling). Empty = all nodes run at 1.0.
  std::vector<double> node_speed_factors;
  /// Chaos schedule: message drop/duplication/corruption/delay plus
  /// round-keyed crashes, revivals and partitions (see network.h). The
  /// default plan injects nothing. Composes with node_speed_factors: the
  /// speed factors model slow-but-correct nodes, the fault plan models a
  /// hostile fabric and dying nodes.
  FaultPlan fault_plan;
  /// Byte budget for in-RAM block payloads in the cluster's block store.
  /// 0 = unlimited. Cold splits spill to disk and are served via mmap —
  /// results are byte-identical either way; see blockstore.h.
  std::size_t blockstore_budget_bytes = 0;
  /// Spill directory for the block store ("" = fresh temp dir).
  std::string blockstore_spill_dir;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);

  const ClusterConfig& config() const noexcept { return config_; }
  std::size_t num_nodes() const noexcept { return config_.num_nodes; }

  Network& network() noexcept { return network_; }
  BlockStore& storage() noexcept { return storage_; }
  Executor& executor() noexcept { return *executor_; }

  /// Simulated compute-speed multiplier of `node` (1.0 when unspecified).
  double node_speed_factor(NodeId node) const;

  /// Store a learner's private shard on its own node (plus replicas per
  /// the cluster replication factor). Returns the block id.
  BlockId store_shard(std::string name, Bytes data, NodeId owner);

  /// Fail / recover a node (storage refuses reads; the job driver
  /// reschedules tasks onto live replicas).
  void kill_node(NodeId node) { storage_.kill_node(node); }
  void revive_node(NodeId node) { storage_.revive_node(node); }
  bool is_alive(NodeId node) const { return storage_.is_alive(node); }

 private:
  ClusterConfig config_;
  Network network_;
  BlockStore storage_;
  std::unique_ptr<Executor> executor_;
};

}  // namespace ppml::mapreduce
