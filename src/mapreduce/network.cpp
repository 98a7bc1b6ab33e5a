#include "mapreduce/network.h"

#include <algorithm>

#include "crypto/prng.h"
#include "obs/flight_recorder.h"
#include "obs/obs.h"

namespace ppml::mapreduce {

namespace {

/// FNV-1a over the channel name: folds the channel into the fault-roll key
/// so "broadcast" and "contribution" streams are independent.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Injected faults land in the flight recorder so a chaos postmortem shows
// *which* message died, on which channel, carrying which flow id.
void record_fault(const char* kind, const Message& message) {
  if (obs::flight_recorder() == nullptr) return;
  obs::flight_event(obs::FlightEventKind::kFault,
                    std::string(kind) + ":" + message.channel,
                    static_cast<double>(message.payload.size()),
                    message.trace_id);
}

}  // namespace

const ChannelFaults& FaultPlan::faults_for(const std::string& channel) const {
  const auto it = per_channel.find(channel);
  return it == per_channel.end() ? all_channels : it->second;
}

bool FaultPlan::partitioned(std::size_t round, NodeId a, NodeId b) const {
  for (const NetworkPartition& cut : partitions) {
    if (round < cut.from_round || round >= cut.until_round) continue;
    const bool a_in = std::find(cut.island.begin(), cut.island.end(), a) !=
                      cut.island.end();
    const bool b_in = std::find(cut.island.begin(), cut.island.end(), b) !=
                      cut.island.end();
    if (a_in != b_in) return true;
  }
  return false;
}

double FaultPlan::compute_delay_factor(std::size_t round,
                                       std::size_t party) const {
  double factor = 1.0;
  for (const ComputeDelay& delay : compute_delays) {
    if (delay.party == party && round >= delay.from_round &&
        round < delay.until_round)
      factor *= delay.factor;
  }
  return factor;
}

bool FaultPlan::injects_message_faults() const {
  if (all_channels.any() || !partitions.empty()) return true;
  for (const auto& [channel, faults] : per_channel)
    if (faults.any()) return true;
  return false;
}

Network::Network(std::size_t num_nodes, LatencyModel latency)
    : num_nodes_(num_nodes),
      latency_(latency),
      mailboxes_(num_nodes),
      phase_send_seconds_(num_nodes, 0.0) {
  PPML_CHECK(num_nodes >= 1, "Network: need >= 1 node");
}

void Network::set_fault_plan(FaultPlan plan) {
  const auto check = [](const ChannelFaults& f, const std::string& where) {
    for (double p : {f.drop, f.duplicate, f.corrupt, f.delay})
      PPML_CHECK(p >= 0.0 && p < 1.0, "FaultPlan: " + where +
                                          " probabilities must be in [0, 1)");
    PPML_CHECK(f.extra_delay_seconds >= 0.0,
               "FaultPlan: extra_delay_seconds must be >= 0");
  };
  check(plan.all_channels, "all_channels");
  for (const auto& [channel, faults] : plan.per_channel)
    check(faults, "channel '" + channel + "'");
  for (const ComputeDelay& delay : plan.compute_delays)
    PPML_CHECK(delay.factor > 0.0,
               "FaultPlan: compute_delays factors must be > 0");
  std::lock_guard<std::mutex> lock(mutex_);
  plan_ = std::move(plan);
  faults_enabled_ = plan_.injects_message_faults();
}

void Network::set_round(std::size_t round) {
  std::lock_guard<std::mutex> lock(mutex_);
  round_ = round;
}

void Network::send(Message message) {
  PPML_CHECK(message.from < num_nodes_ && message.to < num_nodes_,
             "Network::send: node id out of range");
  std::lock_guard<std::mutex> lock(mutex_);
  ChannelStats& stats = stats_[message.channel];
  stats.messages += 1;
  stats.bytes += message.payload.size();
  // Party-attributed mirrors of the channel stats: the driver wraps each
  // send in a PartyScope, so these shards roll up per mapper/reducer while
  // their sums stay exactly equal to totals() (duplicates count double in
  // both; drops count in both — the bytes left the NIC either way).
  if (obs::metrics() != nullptr) {
    obs::count("net.messages");
    obs::count("net.bytes", static_cast<std::int64_t>(message.payload.size()));
  }
  // Loopback messages are free in the latency model (local handoff), but
  // still counted in channel stats so protocol message counts stay exact.
  // They are also exempt from fault injection: a local handoff cannot be
  // lost or corrupted on the wire.
  if (message.from == message.to) {
    mailboxes_[message.to].push_back(std::move(message));
    return;
  }
  phase_send_seconds_[message.from] += latency_.cost(message.payload.size());

  std::size_t copies = 1;
  if (faults_enabled_) {
    if (plan_.partitioned(round_, message.from, message.to)) {
      ++fault_stats_.messages_partitioned;
      ++fault_stats_.messages_dropped;
      record_fault("partition", message);
      return;  // the wire between the islands is cut
    }
    const ChannelFaults& faults = plan_.faults_for(message.channel);
    if (faults.any()) {
      // One deterministic roll stream per send, keyed on everything that
      // identifies it: seed, channel, round, endpoints and the channel's
      // send sequence number (so retries of the "same" message re-roll).
      const std::uint64_t sequence = send_sequence_[message.channel]++;
      crypto::SplitMix64 rolls(plan_.seed ^ fnv1a(message.channel) ^
                               (round_ * 0x9E3779B97F4A7C15ULL) ^
                               (message.from * 0xBF58476D1CE4E5B9ULL) ^
                               (message.to * 0x94D049BB133111EBULL) ^
                               (sequence * 0xD6E8FEB86659FD93ULL));
      if (rolls.next_double() < faults.drop) {
        ++fault_stats_.messages_dropped;
        record_fault("drop", message);
        return;  // latency + stats already accrued: the bytes left the NIC
      }
      if (rolls.next_double() < faults.corrupt && !message.payload.empty()) {
        ++fault_stats_.messages_corrupted;
        record_fault("corrupt", message);
        const std::uint64_t where = rolls.next();
        message.payload[where % message.payload.size()] ^= 0x5A;
        message.payload[(where >> 32) % message.payload.size()] ^= 0xA5;
      }
      if (rolls.next_double() < faults.duplicate) {
        ++fault_stats_.messages_duplicated;
        record_fault("duplicate", message);
        copies = 2;
        stats.messages += 1;
        stats.bytes += message.payload.size();
        if (obs::metrics() != nullptr) {
          obs::count("net.messages");
          obs::count("net.bytes",
                     static_cast<std::int64_t>(message.payload.size()));
        }
        phase_send_seconds_[message.from] +=
            latency_.cost(message.payload.size());
      }
      if (rolls.next_double() < faults.delay) {
        ++fault_stats_.messages_delayed;
        record_fault("delay", message);
        phase_send_seconds_[message.from] += faults.extra_delay_seconds;
      }
    }
  }
  for (std::size_t c = 1; c < copies; ++c)
    mailboxes_[message.to].push_back(message);
  mailboxes_[message.to].push_back(std::move(message));
}

std::vector<Message> Network::drain(NodeId node) {
  std::vector<Message> out;
  drain(node, out);
  return out;
}

void Network::drain(NodeId node, std::vector<Message>& out) {
  PPML_CHECK(node < num_nodes_, "Network::drain: node id out of range");
  out.clear();
  std::lock_guard<std::mutex> lock(mutex_);
  out.swap(mailboxes_[node]);
}

std::map<std::string, ChannelStats> Network::channel_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

ChannelStats Network::totals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ChannelStats total;
  for (const auto& [channel, stats] : stats_) {
    total.messages += stats.messages;
    total.bytes += stats.bytes;
  }
  return total;
}

FaultStats Network::fault_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fault_stats_;
}

double Network::simulated_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Include the (not yet closed) current phase's critical path.
  const double current =
      *std::max_element(phase_send_seconds_.begin(), phase_send_seconds_.end());
  return simulated_seconds_ + current;
}

void Network::end_phase() {
  std::lock_guard<std::mutex> lock(mutex_);
  simulated_seconds_ +=
      *std::max_element(phase_send_seconds_.begin(), phase_send_seconds_.end());
  std::fill(phase_send_seconds_.begin(), phase_send_seconds_.end(), 0.0);
}

void Network::reset_stats() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.clear();
  simulated_seconds_ = 0.0;
  std::fill(phase_send_seconds_.begin(), phase_send_seconds_.end(), 0.0);
  fault_stats_ = FaultStats{};
  send_sequence_.clear();
}

}  // namespace ppml::mapreduce
