#include "core/consensus_engine.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "crypto/prng.h"
#include "mapreduce/executor.h"
#include "mapreduce/network.h"
#include "obs/flight_recorder.h"
#include "obs/obs.h"

namespace ppml::core {

mapreduce::Executor& worker_pool() {
  static mapreduce::Executor pool(
      std::max(1u, std::thread::hardware_concurrency()));
  return pool;
}

// --- policies --------------------------------------------------------------

void FullParticipation::validate(std::size_t num_learners,
                                 const AdmmParams& params) const {
  (void)params;
  PPML_CHECK(num_learners >= 2, "consensus engine: need >= 2 learners");
}

PartialParticipation::PartialParticipation(std::size_t participants_per_round,
                                           std::uint64_t sampling_seed)
    : participants_per_round_(participants_per_round),
      sampler_(sampling_seed) {}

std::size_t PartialParticipation::codec_terms(std::size_t num_learners) const {
  (void)num_learners;
  return participants_per_round_;
}

void PartialParticipation::validate(std::size_t num_learners,
                                    const AdmmParams& params) const {
  PPML_CHECK(num_learners >= 2, "partial participation: need >= 2 learners");
  PPML_CHECK(participants_per_round_ >= 2 &&
                 participants_per_round_ <= num_learners,
             "partial participation: participants must be in [2, M]");
  PPML_CHECK(params.mask_variant == crypto::MaskVariant::kSeededMasks,
             "partial participation: requires the seeded-mask variant");
}

std::vector<std::size_t> PartialParticipation::participants(
    std::size_t round, const std::vector<std::size_t>& live) {
  (void)round;
  if (ids_.empty()) ids_ = live;
  // Fisher–Yates prefix: this round's participant set (the pool persists
  // across rounds, exactly like the legacy driver's sampler state).
  for (std::size_t i = 0; i < participants_per_round_; ++i) {
    const std::size_t j = i + sampler_.next() % (ids_.size() - i);
    std::swap(ids_[i], ids_[j]);
  }
  std::vector<std::size_t> out(
      ids_.begin(),
      ids_.begin() + static_cast<std::ptrdiff_t>(participants_per_round_));
  std::sort(out.begin(), out.end());
  return out;
}

ScheduledDropout::ScheduledDropout(DropoutSchedule schedule)
    : schedule_(std::move(schedule)) {}

void ScheduledDropout::validate(std::size_t num_learners,
                                const AdmmParams& params) const {
  PPML_CHECK(num_learners >= 3,
             "dropout consensus: need >= 3 learners (Shamir)");
  PPML_CHECK(params.mask_variant == crypto::MaskVariant::kSeededMasks,
             "dropout consensus: requires the seeded-mask variant");
}

std::vector<std::size_t> ScheduledDropout::post_mask_drops(
    std::size_t round, const std::vector<std::size_t>& maskers) {
  std::vector<std::size_t> dropped;
  if (const auto it = schedule_.drops.find(round);
      it != schedule_.drops.end()) {
    for (std::size_t d : it->second)
      if (std::find(maskers.begin(), maskers.end(), d) != maskers.end())
        dropped.push_back(d);
  }
  return dropped;
}

BoundedStalenessPolicy::BoundedStalenessPolicy(std::size_t threshold_request,
                                               std::uint64_t sharing_seed)
    : threshold_request_(threshold_request), sharing_seed_(sharing_seed) {}

void BoundedStalenessPolicy::validate(std::size_t num_learners,
                                      const AdmmParams& params) const {
  PPML_CHECK(num_learners >= 3,
             "bounded staleness: need >= 3 learners (Shamir recovery)");
  PPML_CHECK(params.mask_variant == crypto::MaskVariant::kSeededMasks,
             "bounded staleness: requires the seeded-mask variant");
  PPML_CHECK(params.async_quorum_fraction > 0.0 &&
                 params.async_quorum_fraction <= 1.0,
             "bounded staleness: async_quorum_fraction must be in (0, 1]");
  PPML_CHECK(params.async_round_deadline >= 0.0,
             "bounded staleness: async_round_deadline must be >= 0");
  PPML_CHECK(params.max_staleness >= 1,
             "bounded staleness: max_staleness must be >= 1");
  PPML_CHECK(params.stale_decay > 0.0 && params.stale_decay <= 1.0,
             "bounded staleness: stale_decay must be in (0, 1]");
}

// --- divergence watchdog ---------------------------------------------------

DivergenceWatchdog::DivergenceWatchdog(Config config) : config_(config) {
  PPML_CHECK(config_.window >= 3,
             "DivergenceWatchdog: window must be >= 3 rounds");
  PPML_CHECK(config_.stall_epsilon > 0.0 && config_.stall_floor >= 0.0,
             "DivergenceWatchdog: stall_epsilon must be > 0, stall_floor "
             ">= 0");
  primal_.reserve(config_.window);
  dual_.reserve(config_.window);
  staleness_.reserve(config_.window);
}

bool DivergenceWatchdog::feed(double primal_sq, double dual_sq,
                              double mean_staleness) {
  if (tripped_) return false;
  if (primal_.size() == config_.window) {
    primal_.erase(primal_.begin());
    dual_.erase(dual_.begin());
    staleness_.erase(staleness_.begin());
  }
  primal_.push_back(primal_sq);
  dual_.push_back(dual_sq);
  staleness_.push_back(mean_staleness);
  if (primal_.size() < config_.window) return false;

  const auto strictly_growing = [](const std::vector<double>& v) {
    for (std::size_t i = 1; i < v.size(); ++i)
      if (!(v[i] > v[i - 1])) return false;
    return true;
  };
  if (strictly_growing(primal_)) {
    tripped_ = true;
    reason_ = "divergence:primal";
    return true;
  }
  if (strictly_growing(dual_)) {
    tripped_ = true;
    reason_ = "divergence:dual";
    return true;
  }
  const auto [lo, hi] = std::minmax_element(primal_.begin(), primal_.end());
  if (*lo > config_.stall_floor &&
      (*hi - *lo) <= config_.stall_epsilon * *hi) {
    tripped_ = true;
    reason_ = "stall";
    return true;
  }
  if (config_.staleness_limit > 0.0) {
    double sum = 0.0;
    for (double s : staleness_) sum += s;
    if (sum / static_cast<double>(staleness_.size()) >
        config_.staleness_limit) {
      tripped_ = true;
      reason_ = "staleness";
      return true;
    }
  }
  return false;
}

// --- in-memory transport ---------------------------------------------------

ConsensusRunResult InMemoryTransport::run(ConsensusEngine& engine,
                                          const RoundObserver& observer) {
  ConsensusRunResult result;
  obs::Span job_span("job", "core");
  const bool asynchronous = engine.policy().asynchronous();
  if (asynchronous) engine.configure_async_delays(plan_);
  for (std::size_t round = 0; round < engine.params().max_iterations;
       ++round) {
    if (asynchronous)
      engine.step_round_async(round);
    else
      engine.step_round(round);
    ++result.iterations;
    if (observer) observer(round);
    if (engine.converged()) {
      result.converged = true;
      break;
    }
  }
  engine.finalize_result(result);
  return result;
}

// --- engine ----------------------------------------------------------------

namespace {

DivergenceWatchdog::Config watchdog_config(const AdmmParams& params) {
  DivergenceWatchdog::Config config{params.watchdog_window,
                                    params.watchdog_stall_epsilon,
                                    params.watchdog_stall_floor, 0.0};
  if (params.asynchronous()) {
    // Stale-weighted rounds legitimately wobble more than bulk-synchronous
    // ones: widen the residual window so one noisy stretch does not trip,
    // and instead watch for chronic cohort lag via the staleness channel.
    config.window *= 2;
    config.staleness_limit =
        std::max(1.0, 0.5 * static_cast<double>(params.max_staleness));
  }
  return config;
}

/// The policy an engine runs when the caller names none — the one place
/// the bulk-synchronous vs bounded-staleness choice is made. Opting into
/// async_quorum_fraction swaps the paper's loop for asynchronous rounds;
/// the default stays FullParticipation.
std::unique_ptr<RoundPolicy> policy_for(const AdmmParams& params) {
  if (params.asynchronous())
    return std::make_unique<BoundedStalenessPolicy>(params.dropout_threshold);
  return std::make_unique<FullParticipation>();
}

}  // namespace

crypto::SecureSumConfig ConsensusEngine::build_config(std::size_t num_learners,
                                                      const AdmmParams& params,
                                                      RoundPolicy& policy) {
  policy.validate(num_learners, params);
  crypto::SecureSumConfig config;
  config.num_parties = num_learners;
  config.fixed_point_bits = params.fixed_point_bits;
  config.codec_terms = policy.codec_terms(num_learners);
  config.variant = params.mask_variant;
  config.protocol_seed = params.protocol_seed;
  config.topology = params.agg_topology;
  config.group_size = params.agg_group_size;
  return config;
}

ConsensusEngine::ConsensusEngine(
    std::vector<std::shared_ptr<ConsensusLearner>>* learners,
    std::size_t num_learners, ConsensusCoordinator& coordinator,
    const AdmmParams& params, RoundPolicy* policy)
    : learners_(learners),
      coordinator_(coordinator),
      params_(params),
      owned_policy_(policy != nullptr ? nullptr : policy_for(params)),
      policy_(policy != nullptr ? *policy : *owned_policy_),
      num_learners_(num_learners),
      session_(build_config(num_learners, params, policy_)) {
  live_.resize(num_learners_);
  for (std::size_t i = 0; i < num_learners_; ++i) live_[i] = i;
  if (learners_ != nullptr) {
    dim_ = learners_->front()->contribution_dim();
    for (const auto& learner : *learners_)
      PPML_CHECK(learner->contribution_dim() == dim_,
                 "consensus engine: contribution dims differ");
    // A distributed transport arms recovery itself, on its epoch schedule
    // (arm_fabric_recovery).
    if (policy_.wants_recovery())
      session_.arm_recovery(policy_.recovery_threshold_request(),
                            policy_.recovery_sharing_seed());
  }
  if (params_.watchdog_window > 0)
    watchdog_.emplace(watchdog_config(params_));
}

ConsensusEngine::ConsensusEngine(
    std::vector<std::shared_ptr<ConsensusLearner>>& learners,
    ConsensusCoordinator& coordinator, const AdmmParams& params,
    RoundPolicy& policy)
    : ConsensusEngine(&learners, learners.size(), coordinator, params,
                      &policy) {}

ConsensusEngine::ConsensusEngine(
    std::vector<std::shared_ptr<ConsensusLearner>>& learners,
    ConsensusCoordinator& coordinator, const AdmmParams& params)
    : ConsensusEngine(&learners, learners.size(), coordinator, params,
                      nullptr) {}

ConsensusEngine::ConsensusEngine(std::size_t num_learners,
                                 ConsensusCoordinator& coordinator,
                                 const AdmmParams& params, RoundPolicy& policy)
    : ConsensusEngine(nullptr, num_learners, coordinator, params, &policy) {}

ConsensusEngine::ConsensusEngine(std::size_t num_learners,
                                 ConsensusCoordinator& coordinator,
                                 const AdmmParams& params)
    : ConsensusEngine(nullptr, num_learners, coordinator, params, nullptr) {}

ConsensusRunResult ConsensusEngine::run(Transport& transport,
                                        const RoundObserver& observer) {
  return transport.run(*this, observer);
}

void ConsensusEngine::rekey(std::size_t epoch) {
  session_ = crypto::SecureSumSession(session_.config(), epoch);
  if (fabric_recovery_)
    session_.arm_recovery(fabric_threshold_request_,
                          crypto::SecureSumSession::epoch_sharing_seed(
                              params_.protocol_seed, epoch));
}

void ConsensusEngine::arm_fabric_recovery(std::size_t threshold_request) {
  fabric_recovery_ = true;
  fabric_threshold_request_ = threshold_request;
  session_.arm_recovery(threshold_request,
                        crypto::SecureSumSession::epoch_sharing_seed(
                            params_.protocol_seed, session_.epoch()));
}

std::vector<Vector> ConsensusEngine::run_local_steps(
    const std::vector<std::size_t>& participants) {
  auto& learners = *learners_;
  std::vector<Vector> contributions(participants.size());
  // Local steps are independent within a round (each learner mutates only
  // its own state), so running them on the pool is bit-identical to serial
  // order. Each step is one attribution root: its span, and everything the
  // QP solver counts underneath, bills to that party.
  worker_pool().parallel_for(participants.size(), [&](std::size_t k) {
    const std::size_t party = participants[k];
    obs::PartyScope scope(party);
    obs::Span span("local_step", "core");
    span.arg("party", static_cast<double>(party));
    contributions[k] = learners[party]->local_step(broadcast_);
  });
  return contributions;
}

const Vector& ConsensusEngine::step_round(std::size_t round) {
  PPML_CHECK(learners_ != nullptr,
             "ConsensusEngine::step_round: reducer-side engine has no "
             "learners (use reduce_round)");
  obs::Span iteration_span("iteration", "core");
  iteration_span.arg("round", static_cast<double>(round));

  const std::vector<std::size_t> participants =
      policy_.participants(round, live_);
  std::vector<Vector> contributions;
  {
    obs::Span map_span("map", "core");
    contributions = run_local_steps(participants);
  }

  Vector average;
  std::vector<std::size_t> dropped;
  std::vector<std::size_t> survivors;
  {
    obs::Span sum_span("secure_sum", "core");
    std::vector<std::vector<std::uint64_t>> wire(num_learners_);
    for (std::size_t k = 0; k < participants.size(); ++k) {
      const crypto::SecureSumSession::Tensor tensor = contributions[k];
      wire[participants[k]] =
          session_.contribute(participants[k], {&tensor, 1}, round,
                              participants);
    }

    // Scheduled post-mask drops: the victims' contributions vanish but
    // their pairwise masks are already inside the survivors' vectors.
    dropped = policy_.post_mask_drops(round, participants);
    for (std::size_t i : participants)
      if (std::find(dropped.begin(), dropped.end(), i) == dropped.end())
        survivors.push_back(i);
    PPML_CHECK(survivors.size() >= 2,
               "consensus engine: fewer than 2 survivors");
    average = session_.reduce_average(round, participants, survivors, wire);
  }

  if (!dropped.empty()) {
    live_ = survivors;
    for (std::size_t i : live_) (*learners_)[i]->on_cohort_resize(live_.size());
  }
  const std::vector<std::size_t>& active =
      dropped.empty() ? participants : live_;

  Vector z_prev;
  if (obs::enabled()) z_prev = broadcast_;
  broadcast_ = combine_and_record(average, z_prev, &active);
  return broadcast_;
}

void ConsensusEngine::configure_async_delays(
    const mapreduce::FaultPlan* plan) {
  async_plan_ = plan;
}

double ConsensusEngine::async_step_seconds(std::size_t round,
                                           std::size_t party) const {
  // Nominal local step = 1 simulated second; the FaultPlan scales it by the
  // scheduled delay-storm factor, and the "contribution" channel's
  // probabilistic delay adds its extra seconds — one deterministic roll per
  // (seed, round, party), mirroring the network fabric's keying scheme.
  double seconds = 1.0;
  if (async_plan_ == nullptr) return seconds;
  seconds *= async_plan_->compute_delay_factor(round, party);
  const mapreduce::ChannelFaults& faults =
      async_plan_->faults_for("contribution");
  if (faults.delay > 0.0) {
    crypto::SplitMix64 rolls(async_plan_->seed ^ 0xA5C0117EB017EDULL ^
                             (round * 0x9E3779B97F4A7C15ULL) ^
                             (party * 0xBF58476D1CE4E5B9ULL));
    if (rolls.next_double() < faults.delay)
      seconds += faults.extra_delay_seconds;
  }
  return seconds;
}

double ConsensusEngine::stale_weight(std::size_t staleness) const {
  if (staleness == 0) return 1.0;
  switch (params_.stale_weight_mode) {
    case StaleWeight::kGeometric:
      return std::pow(params_.stale_decay, static_cast<double>(staleness));
    case StaleWeight::kInverse:
      return 1.0 / (1.0 + static_cast<double>(staleness));
    case StaleWeight::kUniform:
      return 1.0;
  }
  return 1.0;
}

void ConsensusEngine::finalize_result(ConsensusRunResult& result) const {
  if (watchdog_ && watchdog_->tripped()) {
    result.watchdog_tripped = true;
    result.watchdog_reason = watchdog_->reason();
  }
  result.async_seconds = async_clock_;
  result.deadline_expirations = deadline_expirations_;
  result.staleness_drops = staleness_drops_;
}

const Vector& ConsensusEngine::step_round_async(std::size_t round) {
  PPML_CHECK(learners_ != nullptr,
             "ConsensusEngine::step_round_async: reducer-side engine has no "
             "learners");
  PPML_CHECK(policy_.asynchronous(),
             "ConsensusEngine::step_round_async: policy is synchronous");
  obs::Span iteration_span("iteration", "core");
  iteration_span.arg("round", static_cast<double>(round));
  if (async_parties_.empty()) async_parties_.resize(num_learners_);

  // 1. Dispatch: every idle live party starts a local step on the current
  // broadcast. The simulation evaluates the step eagerly (it is
  // deterministic either way) but reveals the value only at its simulated
  // finish time; stragglers stay busy across rounds on an OLD broadcast.
  const double round_start = async_clock_;
  {
    obs::Span map_span("map", "core");
    std::vector<std::size_t> idle;
    for (std::size_t i : live_)
      if (!async_parties_[i].busy) idle.push_back(i);
    std::vector<Vector> stepped = run_local_steps(idle);
    for (std::size_t k = 0; k < idle.size(); ++k) {
      AsyncPartyState& party = async_parties_[idle[k]];
      party.pending = std::move(stepped[k]);
      party.pending_round = round;
      party.busy = true;
      party.busy_until = round_start + async_step_seconds(round, idle[k]);
    }
  }

  // 2. Close the round: at the Q-th freshest finish, or the deadline,
  // whichever is earlier. If fewer than Q parties are even computing a
  // round-`round` step (chronic stragglers hog the rest), wait for every
  // busy party instead — the progress guarantee.
  std::size_t quorum = static_cast<std::size_t>(std::ceil(
      params_.async_quorum_fraction * static_cast<double>(live_.size())));
  quorum = std::clamp(quorum, std::size_t{2}, live_.size());
  std::vector<double> fresh_finishes;
  double max_finish = round_start;
  for (std::size_t i : live_) {
    const AsyncPartyState& party = async_parties_[i];
    if (!party.busy) continue;
    max_finish = std::max(max_finish, party.busy_until);
    if (party.pending_round == round)
      fresh_finishes.push_back(party.busy_until);
  }
  double close_time = max_finish;
  if (fresh_finishes.size() >= quorum) {
    std::nth_element(fresh_finishes.begin(),
                     fresh_finishes.begin() +
                         static_cast<std::ptrdiff_t>(quorum - 1),
                     fresh_finishes.end());
    close_time = fresh_finishes[quorum - 1];
  }
  bool deadline_expired = false;
  if (params_.async_round_deadline > 0.0) {
    const double deadline = round_start + params_.async_round_deadline;
    if (deadline < close_time) {
      close_time = deadline;
      deadline_expired = true;
    }
  }
  // The secure sum needs >= 2 present values; early rounds may hit the
  // deadline before two parties ever completed a step. Extend to the
  // second-earliest completion in that case.
  {
    std::vector<double> completions;
    std::size_t valued = 0;
    for (std::size_t i : live_) {
      const AsyncPartyState& party = async_parties_[i];
      if (party.has_value)
        ++valued;
      else if (party.busy)
        completions.push_back(party.busy_until);
    }
    if (valued < 2) {
      const std::size_t need = 2 - valued;
      PPML_CHECK(completions.size() >= need,
                 "async consensus: fewer than 2 parties can produce a value");
      std::nth_element(completions.begin(),
                       completions.begin() +
                           static_cast<std::ptrdiff_t>(need - 1),
                       completions.end());
      close_time = std::max(close_time, completions[need - 1]);
    }
  }

  // 3. Harvest every step that finished by the close.
  for (std::size_t i : live_) {
    AsyncPartyState& party = async_parties_[i];
    if (party.busy && party.busy_until <= close_time) {
      party.value = std::move(party.pending);
      party.value_round = party.pending_round;
      party.has_value = true;
      party.busy = false;
    }
  }
  async_clock_ = close_time;

  // 4. Staleness audit: a party whose best value predates the broadcast by
  // more than max_staleness rounds is presumed dead — it leaves the cohort
  // and the Shamir recovery path corrects its woven-in masks below.
  std::vector<std::size_t> dropped;
  std::vector<std::size_t> present;
  std::size_t fresh = 0;
  double staleness_sum = 0.0;
  std::size_t staleness_n = 0;
  for (std::size_t i : live_) {
    const AsyncPartyState& party = async_parties_[i];
    const std::size_t staleness =
        round - (party.has_value ? party.value_round : 0);
    if (staleness > params_.max_staleness) {
      dropped.push_back(i);
      continue;
    }
    present.push_back(i);
    if (party.has_value) {
      staleness_sum += static_cast<double>(staleness);
      ++staleness_n;
      if (staleness == 0) ++fresh;
    }
  }
  PPML_CHECK(present.size() >= 2,
             "async consensus: fewer than 2 survivors after staleness drops");

  // 5. Weighted secure sum. Each present party scales its OWN value by its
  // public stale weight before masking (sums of w_i * x_i are exact under
  // the mask algebra; the weights are metadata, not secrets), masking
  // against the full pre-drop live set. Dropped parties contribute nothing:
  // they sit in mask_set \ present and reduce_average reconstructs their
  // seeds. Fresh-only rounds (every w == 1) skip both the scale and the
  // rescale below, keeping Q = M runs bit-identical to step_round.
  Vector average;
  double weight_total = 0.0;
  crypto::SecureSumSession::ReduceAudit audit;
  {
    obs::Span sum_span("secure_sum", "core");
    std::vector<std::vector<std::uint64_t>> wire(num_learners_);
    Vector scaled;  // Tensor is a span: the scaled copy needs real storage
    for (std::size_t i : present) {
      const AsyncPartyState& party = async_parties_[i];
      const Vector* source = &party.value;
      if (!party.has_value) {
        scaled.assign(dim_, 0.0);  // zero-weight placeholder (round 0)
        source = &scaled;
      } else {
        const double weight = stale_weight(round - party.value_round);
        weight_total += weight;
        if (weight != 1.0) {
          scaled = party.value;
          for (double& v : scaled) v *= weight;
          source = &scaled;
        }
      }
      const crypto::SecureSumSession::Tensor tensor = *source;
      wire[i] = session_.contribute(i, {&tensor, 1}, round, live_);
    }
    average = session_.reduce_average(round, live_, present, wire, &audit);
  }
  const double present_count = static_cast<double>(present.size());
  if (weight_total != present_count) {
    // reduce_average divided by |present|; renormalize to the weight mass.
    PPML_CHECK(weight_total > 0.0, "async consensus: zero total stale weight");
    const double rescale = present_count / weight_total;
    for (double& v : average) v *= rescale;
  }

  // 6. Observability + bookkeeping (all side-channel: instrumented runs
  // stay bit-identical to uninstrumented ones).
  if (deadline_expired) ++deadline_expirations_;
  if (obs::MetricsRegistry* metrics = obs::metrics()) {
    metrics->append("consensus.round.quorum_size",
                    static_cast<double>(fresh));
    for (std::size_t i : present) {
      const AsyncPartyState& party = async_parties_[i];
      if (party.has_value)
        metrics->observe("consensus.contribution.staleness",
                         static_cast<double>(round - party.value_round));
    }
    if (deadline_expired) metrics->add("consensus.round.deadline_expired");
    obs::flight_event(obs::FlightEventKind::kMark, "async.quorum_close",
                      static_cast<double>(fresh));
    for (std::size_t i : dropped)
      obs::flight_event(obs::FlightEventKind::kMark, "async.staleness_drop",
                        static_cast<double>(round), 0, static_cast<int>(i));
  }
  async_outcome_.audit = audit;
  async_outcome_.fresh = fresh;
  async_outcome_.carried.clear();
  for (std::size_t i : present) {
    const AsyncPartyState& party = async_parties_[i];
    if (!party.has_value || party.value_round != round)
      async_outcome_.carried.push_back(i);
  }
  async_outcome_.weight_total = weight_total;
  async_outcome_.deadline_expired = deadline_expired;

  if (!dropped.empty()) {
    staleness_drops_ += dropped.size();
    live_ = present;
    for (std::size_t i : live_)
      (*learners_)[i]->on_cohort_resize(live_.size());
  }

  pending_staleness_ =
      staleness_n > 0 ? staleness_sum / static_cast<double>(staleness_n) : 0.0;
  Vector z_prev;
  if (obs::enabled()) z_prev = broadcast_;
  broadcast_ = combine_and_record(average, z_prev, &present);
  pending_staleness_ = 0.0;
  async_outcome_.broadcast = broadcast_;
  return broadcast_;
}

const ConsensusEngine::ReduceOutcome& ConsensusEngine::reduce_round(
    std::size_t round, std::span<const std::size_t> mask_set,
    std::span<const std::size_t> present,
    const std::vector<std::vector<std::uint64_t>>& contributions) {
  return reduce_round_of(round, mask_set, present, contributions);
}

const ConsensusEngine::ReduceOutcome& ConsensusEngine::reduce_round(
    std::size_t round, std::span<const std::size_t> mask_set,
    std::span<const std::size_t> present,
    crypto::SecureSumSession::WireContributions contributions) {
  return reduce_round_of(round, mask_set, present, contributions);
}

template <typename Contributions>
const ConsensusEngine::ReduceOutcome& ConsensusEngine::reduce_round_of(
    std::size_t round, std::span<const std::size_t> mask_set,
    std::span<const std::size_t> present,
    const Contributions& contributions) {
  ReduceOutcome& out = reduce_outcome_;
  const Vector* average = nullptr;
  {
    obs::Span sum_span("secure_sum", "core");
    average = &session_.reduce_average(round, mask_set, present,
                                       contributions, &out.audit);
  }
  Vector z_prev;
  if (obs::enabled()) z_prev = broadcast_;
  broadcast_ = combine_and_record(*average, z_prev, nullptr);
  out.broadcast = broadcast_;
  return out;
}

Vector ConsensusEngine::combine_and_record(
    const Vector& average, const Vector& z_prev,
    const std::vector<std::size_t>* active) {
  Vector next;
  {
    // The z-update is coordinator (reducer-role) work in every transport.
    obs::PartyScope reducer_scope(obs::kReducerParty);
    obs::Span update_span("admm_update", "core");
    next = coordinator_.combine(average);
  }
  // Purely observational: everything below is computed from values the
  // coordinator and learners already expose, so instrumented runs stay
  // bit-identical to uninstrumented ones.
  if (obs::MetricsRegistry* metrics = obs::metrics()) {
    const double delta_sq = coordinator_.last_delta_sq();
    metrics->append("admm.z_delta_sq", delta_sq);
    metrics->append("admm.dual_residual_sq",
                    params_.rho * params_.rho * delta_sq);
    double primal = 0.0;
    for (std::size_t j = 0; j < average.size(); ++j) {
      const double z = j < z_prev.size() ? z_prev[j] : 0.0;
      const double d = average[j] - z;
      primal += d * d;
    }
    metrics->append("admm.primal_residual_sq", primal);
    if (watchdog_ && watchdog_->feed(primal, params_.rho * params_.rho * delta_sq,
                                     pending_staleness_)) {
      // Trip exactly once: counter for the report, a flight event for the
      // ring, and an automatic dump so the residual series that led here
      // survives even if the run later crashes or is killed.
      metrics->add("admm.watchdog.trips");
      obs::flight_event(obs::FlightEventKind::kWatchdog, watchdog_->reason());
      if (obs::FlightRecorder* recorder = obs::flight_recorder())
        recorder->dump_now("watchdog:" + watchdog_->reason());
    }
    if (learners_ != nullptr) {
      double objective = 0.0;
      bool any = false;
      const auto add_objective = [&](const ConsensusLearner& learner) {
        const double value = learner.last_local_objective();
        if (std::isnan(value)) return;
        objective += value;
        any = true;
      };
      if (active != nullptr) {
        for (std::size_t i : *active) add_objective(*(*learners_)[i]);
      } else {
        for (const auto& learner : *learners_) add_objective(*learner);
      }
      if (any) metrics->append("admm.objective", objective);
    }
  }
  converged_ = params_.convergence_tolerance > 0.0 &&
               coordinator_.last_delta_sq() <= params_.convergence_tolerance;
  return next;
}

}  // namespace ppml::core
