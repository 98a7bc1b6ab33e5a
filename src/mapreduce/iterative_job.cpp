#include "mapreduce/iterative_job.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "crypto/prng.h"
#include "obs/obs.h"

namespace ppml::mapreduce {

namespace {

/// Driver-level re-sends of a dropped/corrupted frame before the target
/// (or sender) is declared lost.
constexpr std::size_t kMaxMessageRetries = 4;
/// A job never continues with fewer live mappers than this.
constexpr std::size_t kMinLiveMappers = 2;
/// Fractional budget extension granted by the single deadline retry.
constexpr double kDeadlineRetryBackoff = 0.5;

/// Closes a driver phase span with bytes/messages-moved annotations and
/// the matching net.* counters. Inert (and cost-free beyond two atomic
/// loads) when no observability session is installed.
class PhaseSpan {
 public:
  PhaseSpan(const char* name, Network& network)
      : span_(name, "mapreduce"), name_(name), network_(network) {
    if (obs::enabled()) before_ = network_.totals();
  }
  ~PhaseSpan() {
    if (!obs::enabled()) return;
    const ChannelStats now = network_.totals();
    const auto bytes = static_cast<double>(now.bytes - before_.bytes);
    const auto messages =
        static_cast<double>(now.messages - before_.messages);
    span_.arg("bytes", bytes);
    span_.arg("messages", messages);
    if (obs::MetricsRegistry* m = obs::metrics()) {
      m->add(std::string("net.bytes.") + name_,
             static_cast<std::int64_t>(bytes));
      m->add(std::string("net.messages.") + name_,
             static_cast<std::int64_t>(messages));
    }
  }

 private:
  obs::Span span_;
  const char* name_;
  Network& network_;
  ChannelStats before_;
};

/// Lower median (straggler detection wants the typical node, not the tail).
double lower_median(std::vector<double> values) {
  const std::size_t k = (values.size() - 1) / 2;
  std::nth_element(values.begin(), values.begin() + k, values.end());
  return values[k];
}

/// Record one flow point iff tracing is on and the flow exists (id != 0).
void flow_point(char phase, std::uint64_t id, const char* name) {
  if (id == 0) return;
  if (obs::Tracer* tracer = obs::tracer()) tracer->flow(phase, id, name);
}

/// Rebuilds `frame` in place as a driver frame carrying a copy of
/// `payload` (serde.h begin_frame/seal_frame).
void write_frame(Bytes& frame, std::span<const std::uint64_t> header,
                 BytesView payload) {
  Writer writer(std::move(frame));
  begin_frame(writer, header);
  std::copy(payload.begin(), payload.end(),
            writer.extend(payload.size()).begin());
  frame = writer.take();
  seal_frame(frame, header.size());
}

}  // namespace

IterativeJob::IterativeJob(Cluster& cluster, JobConfig config)
    : cluster_(cluster), config_(config) {
  PPML_CHECK(config_.max_rounds >= 1, "IterativeJob: max_rounds must be >= 1");
  PPML_CHECK(config_.max_task_attempts >= 1,
             "IterativeJob: max_task_attempts must be >= 1");
  PPML_CHECK(config_.task_failure_probability >= 0.0 &&
                 config_.task_failure_probability < 1.0,
             "IterativeJob: failure probability must be in [0, 1)");
  PPML_CHECK(config_.speculation_factor == 0.0 ||
                 config_.speculation_factor >= 1.0,
             "IterativeJob: speculation_factor must be 0 (off) or >= 1");
  PPML_CHECK(config_.round_deadline_factor == 0.0 ||
                 config_.round_deadline_factor >= 1.0,
             "IterativeJob: round_deadline_factor must be 0 (off) or >= 1");
  PPML_CHECK(config_.round_deadline_factor == 0.0 ||
                 config_.tolerate_mapper_loss,
             "IterativeJob: round_deadline_factor requires "
             "tolerate_mapper_loss (a late mapper is a post-map loss)");
}

void IterativeJob::add_mapper(std::shared_ptr<IterativeMapper> mapper,
                              BlockId home_block) {
  PPML_CHECK(mapper != nullptr, "IterativeJob::add_mapper: null mapper");
  mappers_.push_back(MapperSlot{std::move(mapper), home_block, false});
}

void IterativeJob::set_reducer(std::shared_ptr<IterativeReducer> reducer,
                               NodeId node) {
  PPML_CHECK(reducer != nullptr, "IterativeJob::set_reducer: null reducer");
  PPML_CHECK(node < cluster_.num_nodes(),
             "IterativeJob::set_reducer: node out of range");
  reducer_ = std::move(reducer);
  reducer_node_ = node;
  has_reducer_ = true;
}

NodeId IterativeJob::place_mapper(std::size_t index, std::size_t round,
                                  JobStats& stats) {
  const auto& slot = mappers_[index];
  const std::vector<NodeId> candidates =
      cluster_.storage().live_replicas(slot.home_block);
  if (candidates.empty()) {
    throw JobError("mapper " + std::to_string(index) +
                   ": no live replica of its home block — data lost");
  }
  // Deterministic failure injection per (round, mapper, attempt).
  for (std::size_t attempt = 0; attempt < config_.max_task_attempts;
       ++attempt) {
    ++stats.map_task_attempts;
    const NodeId node = candidates[attempt % candidates.size()];
    if (config_.task_failure_probability > 0.0) {
      crypto::SplitMix64 coin(config_.failure_seed ^ (round * 7919) ^
                              (index * 104729) ^ (attempt * 1299709));
      if (coin.next_double() < config_.task_failure_probability) {
        ++stats.task_retries;
        continue;  // placement failed, try another replica
      }
    }
    return node;
  }
  throw JobError("mapper " + std::to_string(index) + ": placement failed " +
                 std::to_string(config_.max_task_attempts) + " times");
}

void IterativeJob::mark_lost(std::size_t index, JobStats& stats) {
  live_[index] = false;
  states_[index] = MapperState::kDropped;
  ++stats.mappers_lost;
  obs::flight_event(obs::FlightEventKind::kMark,
                    "mapper.dropped:" + std::to_string(index),
                    /*value=*/0.0, /*trace_id=*/0,
                    /*party=*/static_cast<int>(index));
}

std::vector<std::size_t> IterativeJob::live_mappers() const {
  std::vector<std::size_t> live;
  for (std::size_t i = 0; i < mappers_.size(); ++i)
    if (live_[i]) live.push_back(i);
  return live;
}

void IterativeJob::check_quorum() const {
  const std::size_t alive = live_mappers().size();
  if (alive < kMinLiveMappers) {
    throw JobError("only " + std::to_string(alive) +
                   " live mappers left (at least " +
                   std::to_string(kMinLiveMappers) + " needed)");
  }
}

void IterativeJob::notify_membership() {
  const std::vector<std::size_t> live = live_mappers();
  for (std::size_t i : live) {
    obs::PartyScope scope(i);
    mappers_[i].mapper->on_membership_change(live, epoch_);
  }
  obs::PartyScope reducer_scope(obs::kReducerParty);
  reducer_->on_membership_change(live, epoch_);
}

JobStats IterativeJob::run(Bytes initial_broadcast) {
  PPML_CHECK(!mappers_.empty(), "IterativeJob::run: no mappers registered");
  PPML_CHECK(has_reducer_, "IterativeJob::run: no reducer registered");

  const std::size_t m = mappers_.size();
  Network& network = cluster_.network();
  const FaultPlan& plan = network.fault_plan();
  JobStats stats;
  mapper_nodes_.assign(m, 0);
  live_.assign(m, true);
  states_.assign(m, MapperState::kAlive);
  epoch_ = 0;
  // Per-job fault accounting: the fabric's totals are cluster-lifetime.
  const FaultStats faults_before = network.fault_stats();

  // Frame buffers circulate through the fabric: every frame the driver
  // sends is built in a spare buffer, and every frame it drains goes back
  // to the spares once read, so a steady round builds its frames without
  // allocating. A frame whose payload a party still reads (peer messages
  // until map, contributions until reduce) is held until then. Frames the
  // fabric drops are gone; the spares keep at most twice the largest
  // phase's sends, so duplicates cannot grow them without bound.
  std::vector<Bytes> spare_frames;
  std::size_t spare_limit = 0;
  std::vector<Bytes> held_frames;
  std::vector<Message> inbox;
  const auto release = [&](Bytes&& frame) {
    if (spare_frames.size() < spare_limit)
      spare_frames.push_back(std::move(frame));
  };
  const auto release_held = [&] {
    for (Bytes& frame : held_frames) release(std::move(frame));
    held_frames.clear();
  };

  // Verified delivery of one phase's CRC-framed messages (`frame` builds
  // one pending key's frame in the buffer it is given): send everything
  // still pending, close the phase, drain the destinations, and let `accept`
  // decide (from the decoded envelope) which pending entries arrived intact
  // and whether the frame must be held for its payload. Re-send survivors
  // of drop/corruption up to kMaxMessageRetries times.
  struct Pending {
    std::size_t key;  ///< caller-defined identity (mapper index, outbox slot)
    NodeId from = 0;
    NodeId to = 0;
    /// Attribution tags: which protocol party pays for the send and which
    /// is charged at drain time (obs::PartyScope around the fabric calls).
    int sender_party = obs::kNoParty;
    int receiver_party = obs::kNoParty;
    /// Flow id stamped onto the envelope (Message::trace_id); 0 = untraced.
    std::uint64_t flow = 0;
  };
  const auto deliver = [&](const char* channel, std::vector<Pending> pending,
                           const std::function<void(std::size_t, Bytes&)>&
                               frame,
                           const std::function<bool(BytesView,
                                                    std::vector<bool>&)>&
                               accept) -> std::vector<std::size_t> {
    std::size_t max_key = 0;
    for (const Pending& p : pending) max_key = std::max(max_key, p.key);
    std::vector<bool> done(max_key + 1, false);
    spare_limit = std::max(spare_limit, 2 * pending.size());
    for (std::size_t attempt = 0; attempt <= kMaxMessageRetries;
         ++attempt) {
      if (pending.empty()) break;
      if (attempt > 0) stats.message_retries += pending.size();
      for (const Pending& p : pending) {
        // The sender's party pays for the wire: Network::send charges
        // net.bytes/net.messages to the ambient PartyScope. Each (re)send
        // attempt is a flow step, so a retried contribution shows up in
        // Perfetto as extra arrow hops through the phase slice.
        obs::PartyScope sender_scope(p.sender_party);
        flow_point('t', p.flow, channel);
        Bytes wire;
        if (!spare_frames.empty()) {
          wire = std::move(spare_frames.back());
          spare_frames.pop_back();
        }
        frame(p.key, wire);
        network.send(Message{p.from, p.to, channel, std::move(wire), p.flow});
      }
      network.end_phase();
      std::vector<bool> drained(cluster_.num_nodes(), false);
      for (const Pending& p : pending) {
        if (drained[p.to]) continue;
        drained[p.to] = true;
        // Receive-side accounting is attributed per destination *node*: the
        // first pending entry for the node claims everything drained there
        // (co-located mappers share a NIC, so this matches the fabric).
        obs::PartyScope receiver_scope(p.receiver_party);
        network.drain(p.to, inbox);
        for (Message& message : inbox) {
          if (message.channel != channel) {
            release(std::move(message.payload));
            continue;
          }
          if (obs::metrics() != nullptr) {
            obs::count("net.messages.in");
            obs::count("net.bytes.in",
                       static_cast<std::int64_t>(message.payload.size()));
          }
          if (!crc_check(message.payload)) {
            ++stats.frames_rejected;
            release(std::move(message.payload));
            continue;
          }
          if (accept(message.payload, done))
            held_frames.push_back(std::move(message.payload));
          else
            release(std::move(message.payload));
        }
      }
      std::vector<Pending> still;
      for (const Pending& p : pending)
        if (!done[p.key]) still.push_back(p);
      pending = std::move(still);
    }
    std::vector<std::size_t> undelivered;
    for (const Pending& p : pending) undelivered.push_back(p.key);
    return undelivered;
  };

  obs::Span job_span("job", "mapreduce");
  Bytes broadcast = std::move(initial_broadcast);
  // Kept across rounds and refilled in place: each mapper's contribution
  // frame (the master copy retries resend), the views of this round's peer
  // messages and of the contributions that arrived. The peer inboxes are
  // built on the first round that has a peer message; until then every
  // mapper reads one row of empty views.
  std::vector<Bytes> contribution_frames(m);
  std::vector<std::vector<BytesView>> inboxes;
  const std::vector<BytesView> no_peer_messages(m);
  std::vector<BytesView> contributions(m);
  for (std::size_t round = 0; round < config_.max_rounds; ++round) {
    obs::Span iteration_span("iteration", "mapreduce");
    iteration_span.arg("round", static_cast<double>(round));
    ++stats.rounds;
    network.set_round(round);

    // Flow ids (0 = untraced) chaining this round's protocol messages to
    // the spans that produce and consume them: broadcast flows start in the
    // driver's broadcast slice and finish in each mapper's map_task span;
    // contribution flows start in map_task and finish in the reduce span.
    std::vector<std::uint64_t> broadcast_flow(m, 0);
    std::vector<std::uint64_t> contribution_flow(m, 0);

    // Scheduled revivals land before placement, so a recovered node can
    // serve reads (and host rejoining mappers) this round.
    for (const NodeEvent& event : plan.revivals) {
      if (event.round == round && event.node < cluster_.num_nodes())
        cluster_.revive_node(event.node);
    }

    // Rejoin: a dropped mapper whose home block is readable again re-enters
    // the job. Everyone moves to a fresh key epoch — the returning party
    // must not reuse pairwise secrets the reducer reconstructed while it
    // was gone (docs/fault_tolerance.md).
    if (config_.tolerate_mapper_loss) {
      bool any_rejoin = false;
      for (std::size_t i = 0; i < m; ++i) {
        if (live_[i]) continue;
        if (cluster_.storage().live_replicas(mappers_[i].home_block).empty())
          continue;
        live_[i] = true;
        states_[i] = MapperState::kRejoined;
        ++stats.mappers_rejoined;
        any_rejoin = true;
      }
      if (any_rejoin) {
        ++epoch_;
        notify_membership();
      }
    }

    // Placement + one-time configure (locality-enforced shard load). A
    // placement failure is a pre-map loss: the mapper never takes part in
    // this round's protocol, so survivors just mask over the smaller set.
    std::vector<std::size_t> premap_lost;
    for (std::size_t i = 0; i < m; ++i) {
      if (!live_[i]) continue;
      try {
        mapper_nodes_[i] = place_mapper(i, round, stats);
      } catch (const JobError&) {
        if (!config_.tolerate_mapper_loss) throw;
        premap_lost.push_back(i);
        mark_lost(i, stats);
        continue;
      }
      if (!mappers_[i].configured) {
        obs::PartyScope scope(i);
        mappers_[i].mapper->configure(cluster_.storage(), mapper_nodes_[i]);
        mappers_[i].configured = true;
      }
    }

    // 1. Broadcast feedback from the reducer node to every live mapper,
    //    CRC-framed with verified delivery. A mapper the driver cannot
    //    reach is lost *before* masking — also a pre-map loss.
    {
      PhaseSpan broadcast_span("broadcast", network);
      std::vector<Pending> sends;
      for (std::size_t i = 0; i < m; ++i) {
        if (!live_[i]) continue;
        if (obs::Tracer* tracer = obs::tracer()) {
          broadcast_flow[i] = tracer->new_flow_id();
          tracer->flow('s', broadcast_flow[i], "broadcast");
        }
        sends.push_back({i, reducer_node_, mapper_nodes_[i],
                         obs::kReducerParty, static_cast<int>(i),
                         broadcast_flow[i]});
      }
      const auto frame = [&](std::size_t i, Bytes& wire) {
        const std::uint64_t header[] = {i, round};
        write_frame(wire, header, broadcast);
      };
      const auto accept = [&](BytesView wire, std::vector<bool>& done) {
        std::uint64_t header[2];  // dest, round
        open_frame(wire, header);
        const std::uint64_t dest = header[0];
        if (dest >= m || header[1] != round) return false;  // stale, misrouted
        if (dest < done.size()) done[dest] = true;
        return false;  // mappers read the driver's own broadcast buffer
      };
      for (std::size_t i : deliver("broadcast", std::move(sends), frame,
                                   accept)) {
        if (!config_.tolerate_mapper_loss) {
          throw JobError("mapper " + std::to_string(i) +
                         ": broadcast undeliverable after " +
                         std::to_string(kMaxMessageRetries) +
                         " retries");
        }
        premap_lost.push_back(i);
        mark_lost(i, stats);
      }
    }
    check_quorum();
    if (!premap_lost.empty()) {
      // Survivors (and the reducer) learn the shrunken set before any mask
      // is derived, so this round needs no sum correction.
      {
        obs::PartyScope reducer_scope(obs::kReducerParty);
        for (std::size_t i : premap_lost)
          reducer_->on_mapper_lost(round, i, /*masked_this_round=*/false);
      }
      notify_membership();
    }

    // 2. Peer exchange (mask distribution), verified delivery. A mask that
    //    cannot be delivered is unrecoverable — the recipient's
    //    contribution would decode to garbage — so exhausted retries abort
    //    the job even in tolerant mode.
    struct PeerMessage {
      std::size_t sender = 0;
      std::size_t dest = 0;
      Bytes payload;
    };
    for (std::vector<BytesView>& row : inboxes)
      std::fill(row.begin(), row.end(), BytesView{});
    {
    PhaseSpan shuffle_span("shuffle", network);
    std::vector<PeerMessage> outbox;
    for (std::size_t i = 0; i < m; ++i) {
      if (!live_[i]) continue;
      // Mask derivation (ChaCha expansion inside exchange) bills to party i.
      obs::PartyScope exchange_scope(i);
      for (auto& [peer, payload] : mappers_[i].mapper->exchange(round)) {
        PPML_CHECK(peer < m, "IterativeJob: exchange peer out of range");
        if (!live_[peer]) continue;  // departed peers get nothing
        outbox.push_back({i, peer, std::move(payload)});
      }
    }
    if (!outbox.empty()) {
      if (inboxes.empty()) inboxes.assign(m, no_peer_messages);
      std::vector<Pending> sends;
      for (std::size_t k = 0; k < outbox.size(); ++k) {
        sends.push_back({k, mapper_nodes_[outbox[k].sender],
                         mapper_nodes_[outbox[k].dest],
                         static_cast<int>(outbox[k].sender),
                         static_cast<int>(outbox[k].dest), 0});
      }
      const auto frame = [&](std::size_t k, Bytes& wire) {
        const std::uint64_t header[] = {outbox[k].sender, outbox[k].dest,
                                        round};
        write_frame(wire, header, outbox[k].payload);
      };
      const auto accept = [&](BytesView wire, std::vector<bool>& done) {
        std::uint64_t header[3];  // sender, dest, round
        const BytesView payload = open_frame(wire, header);
        const std::uint64_t sender = header[0];
        const std::uint64_t dest = header[1];
        if (sender >= m || dest >= m || header[2] != round) return false;
        inboxes[dest][sender] = payload;
        for (std::size_t k = 0; k < outbox.size(); ++k)
          if (outbox[k].sender == sender && outbox[k].dest == dest)
            done[k] = true;
        return true;  // held until map has read it
      };
      if (!deliver("peer-exchange", std::move(sends), frame, accept).empty())
        throw JobError("peer-exchange undeliverable after retries — "
                       "protocol masks lost, round cannot proceed");
    }
    }

    // Deterministic speculation decisions: a node slower than
    // speculation_factor x the (lower) median live node is a presumed
    // straggler; if a faster live replica of its block exists, charge a
    // speculative backup attempt there. Decisions depend only on configured
    // speed factors — never on wall clock — so the speculation counters are
    // reproducible run to run; only the simulated clock below uses wall
    // time.
    const std::vector<std::size_t> active = live_mappers();
    std::vector<double> backup_factor(m, 0.0);  // 0 = no backup launched
    if (config_.speculation_factor >= 1.0 && active.size() >= 2) {
      std::vector<double> factors;
      for (std::size_t i : active)
        factors.push_back(cluster_.node_speed_factor(mapper_nodes_[i]));
      const double median_f = lower_median(factors);
      bool any_speculation = false;
      for (std::size_t i : active) {
        const double own = cluster_.node_speed_factor(mapper_nodes_[i]);
        if (own <= config_.speculation_factor * median_f) continue;
        double best = own;
        for (NodeId alt :
             cluster_.storage().live_replicas(mappers_[i].home_block)) {
          if (alt == mapper_nodes_[i]) continue;
          best = std::min(best, cluster_.node_speed_factor(alt));
        }
        if (best < own) {
          backup_factor[i] = best;
          if (states_[i] == MapperState::kAlive)
            states_[i] = MapperState::kSuspected;
          ++stats.speculative_attempts;
          ++stats.map_task_attempts;  // the backup is a real attempt
          any_speculation = true;
        }
      }
      if (any_speculation) ++stats.round_timeouts;
    }

    // Deadline-bounded contribution wait (async consensus): with
    // round_deadline_factor set, the reducer stops waiting once
    // factor x the (lower) median live node's map time has elapsed. A
    // mapper outside the budget — even after its speculative backup — gets
    // ONE retry extension of (1 + kDeadlineRetryBackoff) x the budget;
    // still outside means its contribution will never be consumed this
    // round. Like speculation, the verdict is a pure function of the
    // configured node speed factors, so it is reproducible run to run;
    // only the simulated clock uses wall time.
    std::vector<bool> deadline_late(m, false);
    double deadline_time_factor = 0.0;  ///< round budget / median map time
    if (config_.round_deadline_factor > 0.0 && active.size() >= 2) {
      std::vector<double> factors;
      for (std::size_t i : active)
        factors.push_back(cluster_.node_speed_factor(mapper_nodes_[i]));
      const double median_f = lower_median(factors);
      const auto effective_factor = [&](std::size_t i) {
        const double own = cluster_.node_speed_factor(mapper_nodes_[i]);
        return backup_factor[i] > 0.0 ? std::min(own, backup_factor[i]) : own;
      };
      deadline_time_factor = config_.round_deadline_factor;
      bool any_late = false;
      for (std::size_t i : active)
        if (effective_factor(i) > deadline_time_factor * median_f)
          any_late = true;
      if (any_late) {
        // The single bounded retry: everyone gets the extended budget.
        ++stats.deadline_retry_waits;
        deadline_time_factor *= 1.0 + kDeadlineRetryBackoff;
      }
      for (std::size_t i : active) {
        if (effective_factor(i) <= deadline_time_factor * median_f) continue;
        deadline_late[i] = true;
        ++stats.deadline_misses;
      }
    }

    // 3. Map in parallel on the live set. Each task's wall time, scaled by
    //    its node's speed factor, feeds the simulated clock; the
    //    synchronous barrier takes the per-round max. A speculated task's
    //    backup launches at the deadline (factor x median attempt time) on
    //    the faster replica, and the clock takes the earlier finisher —
    //    mapper state is never re-run, so trainer semantics are unchanged.
    std::fill(contributions.begin(), contributions.end(), BytesView{});
    std::vector<double> wall_seconds(m, 0.0);
    std::exception_ptr map_error;
    std::mutex error_mutex;
    {
    obs::Span map_span("map", "mapreduce");
    map_span.arg("tasks", static_cast<double>(active.size()));
    cluster_.executor().parallel_for(active.size(), [&](std::size_t k) {
      const std::size_t i = active[k];
      try {
        // Everything the mapper does (local ADMM step, masking) is party
        // i's compute; the span links the incoming broadcast flow to the
        // outgoing contribution flow, which the reduce span will finish.
        obs::PartyScope party_scope(i);
        obs::Span task_span("map_task", "mapreduce");
        task_span.arg("party", static_cast<double>(i));
        task_span.arg("round", static_cast<double>(round));
        flow_point('f', broadcast_flow[i], "broadcast");
        if (obs::Tracer* tracer = obs::tracer())
          contribution_flow[i] = tracer->new_flow_id();
        const auto start = std::chrono::steady_clock::now();
        // The mapper writes its payload straight into its frame.
        Writer writer(std::move(contribution_frames[i]));
        const std::uint64_t header[] = {i, round};
        begin_frame(writer, header);
        mappers_[i].mapper->map(round, broadcast,
                                inboxes.empty() ? no_peer_messages
                                                : inboxes[i],
                                writer);
        contribution_frames[i] = writer.take();
        seal_frame(contribution_frames[i], 2);
        wall_seconds[i] =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        flow_point('s', contribution_flow[i], "contribution");
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!map_error) map_error = std::current_exception();
      }
    });
    if (map_error) std::rethrow_exception(map_error);
    release_held();  // peer messages are read
    {
      std::vector<double> task_seconds;
      for (std::size_t i : active)
        task_seconds.push_back(wall_seconds[i] *
                               cluster_.node_speed_factor(mapper_nodes_[i]));
      const double median_t = lower_median(task_seconds);
      double critical_path = 0.0;
      for (std::size_t k = 0; k < active.size(); ++k) {
        const std::size_t i = active[k];
        double effective = task_seconds[k];
        if (backup_factor[i] > 0.0) {
          effective = std::min(effective,
                               config_.speculation_factor * median_t +
                                   wall_seconds[i] * backup_factor[i]);
        }
        // A deadline-dropped mapper stops gating the barrier at the
        // (possibly retry-extended) budget — that is the whole point of
        // the bounded wait.
        if (deadline_late[i])
          effective = std::min(effective, deadline_time_factor * median_t);
        critical_path = std::max(critical_path, effective);
      }
      stats.simulated_compute_seconds += critical_path;
    }
    }

    // Scheduled crashes land *after* map: the node computed its share but
    // dies before delivering it — the worst case for secure aggregation,
    // because its masks are already woven into the survivors' sums.
    std::vector<std::size_t> postmap_lost;
    for (const NodeEvent& event : plan.crashes) {
      if (event.round != round || event.node >= cluster_.num_nodes()) continue;
      cluster_.kill_node(event.node);
      obs::flight_event(obs::FlightEventKind::kFault,
                        "crash:node" + std::to_string(event.node),
                        static_cast<double>(round));
      if (event.node == reducer_node_) {
        throw JobError("reducer node crashed at round " +
                       std::to_string(round) +
                       " — the reducer is a single point of failure");
      }
      for (std::size_t i : active) {
        if (!live_[i] || mapper_nodes_[i] != event.node) continue;
        if (!config_.tolerate_mapper_loss) {
          throw JobError("mapper " + std::to_string(i) +
                         " lost to node crash at round " +
                         std::to_string(round));
        }
        postmap_lost.push_back(i);
        mark_lost(i, stats);
      }
    }

    // Deadline drops land with the crashes: the mapper computed and masked,
    // but the reducer stopped waiting — a post-map loss on the slow node's
    // side, corrected by the same dropout-recovery path. The mapper may
    // rejoin next round under a fresh epoch (its block is still live).
    for (std::size_t i : active) {
      if (!deadline_late[i] || !live_[i]) continue;
      postmap_lost.push_back(i);
      mark_lost(i, stats);
      if (obs::metrics() != nullptr)
        obs::count("consensus.round.deadline_expired");
      obs::flight_event(obs::FlightEventKind::kMark,
                        "deadline.drop:" + std::to_string(i),
                        static_cast<double>(round), /*trace_id=*/0,
                        static_cast<int>(i));
    }

    // 4. Contributions to the reducer node, CRC-framed with verified
    //    delivery. The reducer consumes the wire bytes, not the in-process
    //    value. An undeliverable contribution after retries is a post-map
    //    loss: the sender already masked this round.
    {
      PhaseSpan contribute_span("contribute", network);
      std::vector<Pending> sends;
      for (std::size_t i : active)
        if (live_[i])
          sends.push_back({i, mapper_nodes_[i], reducer_node_,
                           static_cast<int>(i), obs::kReducerParty,
                           contribution_flow[i]});
      const auto frame = [&](std::size_t i, Bytes& wire) {
        wire.assign(contribution_frames[i].begin(),
                    contribution_frames[i].end());
      };
      const auto accept = [&](BytesView wire, std::vector<bool>& done) {
        std::uint64_t header[2];  // mapper, round
        const BytesView payload = open_frame(wire, header);
        const std::uint64_t mapper = header[0];
        if (mapper >= m || header[1] != round) return false;
        contributions[mapper] = payload;
        if (mapper < done.size()) done[mapper] = true;
        return true;  // held until reduce has read it
      };
      for (std::size_t i : deliver("contribution", std::move(sends), frame,
                                   accept)) {
        if (!config_.tolerate_mapper_loss) {
          throw JobError("mapper " + std::to_string(i) +
                         ": contribution undeliverable after retries");
        }
        contributions[i] = {};
        postmap_lost.push_back(i);
        mark_lost(i, stats);
      }
    }

    // 5. Reduce. Post-map losses are announced first (masked_this_round =
    //    true: the reducer must correct the sum), but the membership
    //    notification waits until *after* reduce — during reduce the
    //    reducer's mask bookkeeping must still reflect the set the
    //    survivors actually masked against.
    std::sort(postmap_lost.begin(), postmap_lost.end());
    {
      obs::PartyScope reducer_scope(obs::kReducerParty);
      for (std::size_t i : postmap_lost)
        reducer_->on_mapper_lost(round, i, /*masked_this_round=*/true);
    }
    check_quorum();
    {
      obs::Span reduce_span("reduce", "mapreduce");
      // Finish the contribution flows that actually arrived: each live
      // mapper's arrow terminates inside the reduce slice that consumed
      // its wire bytes (a crashed/undelivered one ends at its last 't').
      for (std::size_t i : active)
        if (!contributions[i].empty())
          flow_point('f', contribution_flow[i], "contribution");
      obs::PartyScope reducer_scope(obs::kReducerParty);
      Writer writer(std::move(broadcast));
      reducer_->reduce(round, contributions, writer);
      broadcast = writer.take();
    }
    release_held();  // contributions are read
    if (!postmap_lost.empty()) notify_membership();
    if (reducer_->converged()) {
      stats.converged = true;
      break;
    }
  }

  stats.channels = network.channel_stats();
  stats.simulated_network_seconds = network.simulated_seconds();
  const FaultStats faults_now = network.fault_stats();
  stats.network_faults.messages_dropped =
      faults_now.messages_dropped - faults_before.messages_dropped;
  stats.network_faults.messages_duplicated =
      faults_now.messages_duplicated - faults_before.messages_duplicated;
  stats.network_faults.messages_corrupted =
      faults_now.messages_corrupted - faults_before.messages_corrupted;
  stats.network_faults.messages_delayed =
      faults_now.messages_delayed - faults_before.messages_delayed;
  stats.network_faults.messages_partitioned =
      faults_now.messages_partitioned - faults_before.messages_partitioned;
  stats.mapper_states = states_;
  return stats;
}

}  // namespace ppml::mapreduce
