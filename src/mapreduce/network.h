// Simulated cluster network with byte accounting, a latency model, and a
// chaos-ready fault-injection fabric.
//
// Delivery is immediate (the synchronous round driver orders everything),
// but every send is recorded: per-channel byte/message counts feed the
// scalability benches, and a simple latency model (fixed cost + bytes over
// bandwidth, with per-round critical-path accounting) produces the
// "simulated wall clock" numbers.
//
// A FaultPlan turns the perfect fabric into a hostile one: per-channel
// message drop / duplication / corruption / extra-delay probabilities,
// scheduled node crashes and revivals, and network partitions keyed on the
// driver's round number. Every fault decision derives from FaultPlan::seed
// and the deterministic send sequence, so a chaos run is exactly
// reproducible: same seed, same faults, same counters.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "mapreduce/serde.h"

namespace ppml::mapreduce {

using NodeId = std::size_t;

struct Message {
  NodeId from = 0;
  NodeId to = 0;
  std::string channel;  ///< e.g. "broadcast", "peer-mask", "contribution"
  Bytes payload;
  /// Observability flow id (obs::Tracer::new_flow_id; 0 = untraced). An
  /// in-memory envelope field only: it is NOT part of the payload, so byte
  /// accounting, latency and fault rolls are identical traced or untraced.
  std::uint64_t trace_id = 0;
};

struct ChannelStats {
  std::size_t messages = 0;
  std::size_t bytes = 0;
};

struct LatencyModel {
  double per_message_seconds = 1e-4;   ///< fixed per-message cost
  double seconds_per_byte = 1e-9;      ///< 1/bandwidth (~1 GB/s default)

  double cost(std::size_t bytes) const {
    return per_message_seconds +
           seconds_per_byte * static_cast<double>(bytes);
  }
};

/// Per-channel fault probabilities, each rolled independently per send.
struct ChannelFaults {
  double drop = 0.0;       ///< message silently lost
  double duplicate = 0.0;  ///< message delivered twice
  double corrupt = 0.0;    ///< payload bytes flipped in flight
  double delay = 0.0;      ///< message charged extra_delay_seconds
  double extra_delay_seconds = 0.05;

  bool any() const noexcept {
    return drop > 0.0 || duplicate > 0.0 || corrupt > 0.0 || delay > 0.0;
  }
};

/// A node crash or revival scheduled for a round. Crashes are applied by
/// the job driver *after* the map phase of `round` (the node computed its
/// work but dies before delivering it — the worst case for the secure-sum
/// protocol); revivals are applied before placement.
struct NodeEvent {
  std::size_t round = 0;
  NodeId node = 0;
};

/// During rounds [from_round, until_round), messages between `island` and
/// the rest of the cluster are dropped (both directions). Traffic within
/// the island and within the mainland is unaffected.
struct NetworkPartition {
  std::size_t from_round = 0;
  std::size_t until_round = 0;  ///< exclusive
  std::vector<NodeId> island;
};

/// A scheduled per-party compute slowdown (a "delay storm"): during rounds
/// [from_round, until_round), `party`'s local step takes `factor` x its
/// nominal time. Consumed by the asynchronous consensus simulation
/// (core::InMemoryTransport's bounded-staleness clock) — the synchronous
/// cluster models slow nodes via ClusterConfig::node_speed_factors instead.
struct ComputeDelay {
  std::size_t from_round = 0;
  std::size_t until_round = static_cast<std::size_t>(-1);  ///< exclusive
  std::size_t party = 0;
  double factor = 1.0;
};

/// Everything that can go wrong, scheduled deterministically from `seed`.
struct FaultPlan {
  std::uint64_t seed = 0xFA17;
  ChannelFaults all_channels;                     ///< default for every channel
  std::map<std::string, ChannelFaults> per_channel;  ///< overrides
  std::vector<NodeEvent> crashes;
  std::vector<NodeEvent> revivals;
  std::vector<NetworkPartition> partitions;
  std::vector<ComputeDelay> compute_delays;  ///< per-party step slowdowns

  const ChannelFaults& faults_for(const std::string& channel) const;
  bool partitioned(std::size_t round, NodeId a, NodeId b) const;
  bool injects_message_faults() const;
  /// Product of every compute_delays entry matching (round, party); 1.0
  /// when none match.
  double compute_delay_factor(std::size_t round, std::size_t party) const;
};

/// Counts of injected faults (the fabric's ground truth; the driver's CRC
/// layer independently counts what it *detected*).
struct FaultStats {
  std::size_t messages_dropped = 0;
  std::size_t messages_duplicated = 0;
  std::size_t messages_corrupted = 0;
  std::size_t messages_delayed = 0;
  std::size_t messages_partitioned = 0;
};

/// Thread-safe message fabric. Mailboxes are per-destination FIFOs; the
/// driver drains them between phases.
class Network {
 public:
  Network(std::size_t num_nodes, LatencyModel latency = {});

  std::size_t num_nodes() const noexcept { return num_nodes_; }

  /// Install a fault plan (replaces any previous one). The driver keys
  /// round-scheduled events off the same plan via fault_plan().
  void set_fault_plan(FaultPlan plan);
  const FaultPlan& fault_plan() const noexcept { return plan_; }

  /// The driver announces the current round so partitions and the
  /// deterministic fault rolls are keyed correctly.
  void set_round(std::size_t round);

  /// Send (records stats, accrues simulated latency, enqueues — unless the
  /// fault plan drops/corrupts/duplicates it first). Loopback messages are
  /// never faulted: a local handoff cannot be lost.
  void send(Message message);

  /// Drain all messages addressed to `node` (FIFO order).
  std::vector<Message> drain(NodeId node);
  /// Same, into `out` (whatever it held is dropped). The mailbox keeps
  /// out's storage in exchange, so a caller that drains into one vector
  /// every phase reuses both.
  void drain(NodeId node, std::vector<Message>& out);

  /// Total messages/bytes per channel since construction or last reset.
  std::map<std::string, ChannelStats> channel_stats() const;
  ChannelStats totals() const;

  FaultStats fault_stats() const;

  /// Simulated seconds spent on the network, assuming sends within one
  /// phase are parallel across source nodes (per-phase critical path:
  /// max over sources of that source's serialized send time). Phases are
  /// delimited by the driver calling end_phase().
  double simulated_seconds() const;
  void end_phase();

  void reset_stats();

 private:
  std::size_t num_nodes_;
  LatencyModel latency_;
  mutable std::mutex mutex_;
  std::vector<std::vector<Message>> mailboxes_;
  std::map<std::string, ChannelStats> stats_;
  std::vector<double> phase_send_seconds_;  ///< per source node, this phase
  double simulated_seconds_ = 0.0;

  FaultPlan plan_;
  bool faults_enabled_ = false;
  std::size_t round_ = 0;
  FaultStats fault_stats_;
  std::map<std::string, std::uint64_t> send_sequence_;  ///< per channel
};

}  // namespace ppml::mapreduce
