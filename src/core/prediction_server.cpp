#include "core/prediction_server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <utility>

#include "obs/obs.h"

namespace ppml::core {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// One multiply-xorshift step per feature over its bit pattern: slot lookup
// must be exact (a near match would serve the wrong cached score), so
// hashing the bits and confirming with element equality is the right tool.
std::uint64_t hash_query(std::span<const double> x) {
  std::uint64_t h = 1469598103934665603ULL;
  for (double v : x) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    h = (h ^ bits) * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 29;
  }
  return h;
}

bool same_query(const linalg::Vector& a, std::span<const double> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i]) return false;
  return true;
}

}  // namespace

PredictionServer::PredictionServer(VerticalLinearModelView model,
                                   const AdmmParams& protocol,
                                   ServingConfig config)
    : model_(std::move(model)), config_(config) {
  init(protocol);
}

PredictionServer::PredictionServer(VerticalKernelModelView model,
                                   const AdmmParams& protocol,
                                   ServingConfig config)
    : model_(std::move(model)), config_(config) {
  init(protocol);
}

PredictionServer::~PredictionServer() = default;

void PredictionServer::init(const AdmmParams& protocol) {
  PPML_CHECK(config_.max_batch >= 1,
             "PredictionServer: max_batch must be >= 1");
  PPML_CHECK(config_.max_linger >= 0.0,
             "PredictionServer: max_linger must be >= 0");
  if (const auto* linear = std::get_if<VerticalLinearModelView>(&model_)) {
    num_learners_ = linear->w_blocks.size();
    bias_ = linear->b;
    width_ = required_width(linear->feature_indices);
  } else {
    const auto& kernel = std::get<VerticalKernelModelView>(model_);
    num_learners_ = kernel.train_blocks.size();
    bias_ = kernel.b;
    width_ = required_width(kernel.feature_indices);
  }
  PPML_CHECK(num_learners_ >= 2,
             "PredictionServer: need >= 2 learners for secure serving");
  session_ = std::make_unique<crypto::SecureSumSession>(
      prediction_session_config(num_learners_, protocol));

  // Occupancy is a small-integer distribution; the default decade buckets
  // would collapse everything between 1 and max_batch into two bins. Only
  // takes effect when the metrics session is installed before the server
  // is built (bounds are fixed at first declaration).
  if (obs::MetricsRegistry* m = obs::metrics())
    m->declare_histogram("serve.batch.occupancy",
                         {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024});
}

bool PredictionServer::is_kernel() const noexcept {
  return std::holds_alternative<VerticalKernelModelView>(model_);
}

void PredictionServer::bump_clock(double now) {
  PPML_CHECK(now >= clock_,
             "PredictionServer: virtual clock must be monotone");
  clock_ = now;
}

bool PredictionServer::admit_rate(std::uint64_t client_id, double now) {
  if (config_.client_rate <= 0.0) return true;
  const double burst = config_.client_burst > 0.0
                           ? config_.client_burst
                           : std::max(1.0, config_.client_rate / 100.0);
  TokenBucket& bucket = buckets_[client_id];
  if (!bucket.initialized) {
    bucket.tokens = burst;
    bucket.last = now;
    bucket.initialized = true;
  }
  bucket.tokens =
      std::min(burst, bucket.tokens + (now - bucket.last) * config_.client_rate);
  bucket.last = now;
  if (bucket.tokens < 1.0) return false;
  bucket.tokens -= 1.0;
  return true;
}

std::size_t PredictionServer::resolve_slot(std::span<const double> x) {
  if (config_.cache_slots == 0 || !is_kernel()) return kNoSlot;
  const std::uint64_t h = hash_query(x);
  const auto it = slot_by_hash_.find(h);
  if (it != slot_by_hash_.end())
    for (std::size_t slot : it->second)
      if (same_query(pool_[slot], x)) return slot;
  if (pool_.size() >= config_.cache_slots) return kNoSlot;  // pool full
  const std::size_t slot = pool_.size();
  pool_.emplace_back(x.begin(), x.end());
  slot_scores_.resize(pool_.size() * num_learners_);
  slot_scored_.push_back(0);
  slot_by_hash_[h].push_back(slot);
  return slot;
}

AdmissionOutcome PredictionServer::submit(std::uint64_t client_id,
                                          std::span<const double> x,
                                          double now) {
  bump_clock(now);
  if (dim_ == 0) {
    // Every later query must match the first, so checking the first against
    // the model's feature indices covers them all.
    PPML_CHECK(x.size() >= width_,
               "PredictionServer::submit: query narrower than the model");
    dim_ = x.size();
  } else
    PPML_CHECK(x.size() == dim_,
               "PredictionServer::submit: query dimension mismatch");
  // A non-finite feature would make the batch's fixed-point encode throw on
  // every flush, wedging every query queued with it: refuse it here.
  PPML_CHECK(std::all_of(x.begin(), x.end(),
                         [](double v) { return std::isfinite(v); }),
             "PredictionServer::submit: non-finite query feature");
  ++stats_.submitted;

  // Queue-depth shed first: a query the server cannot hold should not burn
  // the client's tokens.
  if (config_.max_queue_depth > 0 &&
      pending_.size() >= config_.max_queue_depth) {
    ++stats_.shed_queue;
    obs::count("serve.admission.shed_queue");
    return AdmissionOutcome::kShedQueue;
  }
  if (!admit_rate(client_id, now)) {
    ++stats_.shed_rate;
    obs::count("serve.admission.shed_rate");
    return AdmissionOutcome::kShedRate;
  }

  obs::Span span("serve.enqueue", "serve");
  Pending p;
  p.id = next_query_id_++;
  p.client = client_id;
  p.x.assign(x.begin(), x.end());
  p.submit_time = now;
  p.slot = resolve_slot(x);
  if (is_kernel() && config_.cache_slots > 0 && p.slot == kNoSlot) {
    ++stats_.cache_bypass;
    obs::count("serve.cache.bypass");
  }
  if (obs::Tracer* t = obs::tracer()) {
    p.flow = t->new_flow_id();
    t->flow('s', p.flow, "query");
  }
  pending_.push_back(std::move(p));
  ++stats_.queued;
  obs::count("serve.admission.queued");
  return AdmissionOutcome::kQueued;
}

void PredictionServer::advance(double now) {
  bump_clock(now);
  while (pending_.size() >= config_.max_batch)
    flush_batch(config_.max_batch, now, FlushReason::kFull);
  while (!pending_.empty() &&
         now - pending_.front().submit_time >= config_.max_linger)
    flush_batch(std::min(pending_.size(), config_.max_batch), now,
                FlushReason::kLinger);
}

void PredictionServer::drain(double now) {
  advance(now);
  while (!pending_.empty())
    flush_batch(std::min(pending_.size(), config_.max_batch), now,
                FlushReason::kDrain);
}

std::vector<ServeResult> PredictionServer::take_results() {
  return std::exchange(results_, {});
}

std::vector<linalg::Vector> PredictionServer::batch_partials(
    const linalg::Matrix& batch_x, const std::vector<std::size_t>& slots) {
  std::vector<Vector> partials;
  partials.reserve(num_learners_);
  if (const auto* linear = std::get_if<VerticalLinearModelView>(&model_)) {
    for (std::size_t m = 0; m < num_learners_; ++m)
      partials.push_back(linear_partial_scores(*linear, batch_x, m));
    return partials;
  }
  // Every score is kernel_partial_score, the function the per-query path
  // sums, so the decision values cannot diverge. A pooled query's scores
  // are computed by the first batch that holds its slot and read back
  // afterwards; a bypass query (or a server without a pool) computes its
  // scores every time.
  const auto& model = std::get<VerticalKernelModelView>(model_);
  const std::size_t count = batch_x.rows();
  partials.assign(num_learners_, Vector(count, 0.0));
  std::int64_t hits = 0, misses = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t slot = slots[i];
    if (slot == kNoSlot) {
      for (std::size_t m = 0; m < num_learners_; ++m)
        partials[m][i] = kernel_partial_score(model, batch_x.row(i), m);
      continue;
    }
    double* scores = &slot_scores_[slot * num_learners_];
    if (slot_scored_[slot]) {
      hits += static_cast<std::int64_t>(num_learners_);
    } else {
      for (std::size_t m = 0; m < num_learners_; ++m)
        scores[m] = kernel_partial_score(model, pool_[slot], m);
      slot_scored_[slot] = 1;
      misses += static_cast<std::int64_t>(num_learners_);
    }
    for (std::size_t m = 0; m < num_learners_; ++m) partials[m][i] = scores[m];
  }
  if (hits + misses > 0) {
    cache_hits_ += hits;
    cache_misses_ += misses;
    obs::count("serve.cache.hits", hits);
    obs::count("serve.cache.misses", misses);
  }
  return partials;
}

void PredictionServer::flush_batch(std::size_t count, double now,
                                   FlushReason reason) {
  PPML_CHECK(count >= 1 && count <= pending_.size(),
             "PredictionServer::flush_batch: bad batch size");
  obs::Span span("serve.batch", "serve");
  span.arg("occupancy", static_cast<double>(count));

  linalg::Matrix batch_x(count, dim_);
  std::vector<std::size_t> slots(count, kNoSlot);
  for (std::size_t i = 0; i < count; ++i) {
    const Pending& p = pending_[i];
    for (std::size_t j = 0; j < dim_; ++j) batch_x(i, j) = p.x[j];
    slots[i] = p.slot;
    if (p.flow != 0)
      if (obs::Tracer* t = obs::tracer()) t->flow('t', p.flow, "query");
  }

  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<Vector> partials = batch_partials(batch_x, slots);
  const std::size_t round = session_->next_round();
  if (obs::PrivacyLedger* ledger = obs::privacy_ledger())
    ledger->note_round_allocated(round);
  span.arg("round", static_cast<double>(round));
  Vector decisions;
  {
    obs::Span sum_span("serve.secure_sum", "serve");
    sum_span.arg("batch_elems", static_cast<double>(count));
    decisions = combine_partial_scores(*session_, partials, bias_, round);
  }
  const double compute_s = seconds_since(t0);

  for (std::size_t i = 0; i < count; ++i) {
    const Pending& p = pending_[i];
    ServeResult r;
    r.query_id = p.id;
    r.client_id = p.client;
    r.decision_value = decisions[i];
    r.submit_time = p.submit_time;
    r.serve_time = now;
    r.compute_seconds = compute_s;
    r.batch_id = round;
    r.batch_occupancy = count;
    const double wait = now - p.submit_time;
    obs::observe("serve.queue_wait_seconds", wait);
    obs::observe("serve.latency_seconds", wait + compute_s);
    if (p.flow != 0)
      if (obs::Tracer* t = obs::tracer()) t->flow('f', p.flow, "query");
    results_.push_back(r);
  }
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(count));

  obs::observe("serve.batch.occupancy", static_cast<double>(count));
  obs::observe("serve.batch.compute_seconds", compute_s);
  obs::count("serve.queries.served", static_cast<std::int64_t>(count));
  obs::count("serve.batch.flushes");
  switch (reason) {
    case FlushReason::kFull:
      ++stats_.full_flushes;
      obs::count("serve.batch.full");
      break;
    case FlushReason::kLinger:
      ++stats_.linger_flushes;
      obs::count("serve.batch.linger");
      break;
    case FlushReason::kDrain:
      ++stats_.drain_flushes;
      obs::count("serve.batch.drain");
      break;
  }
  ++stats_.batches;
  stats_.served += count;
}

double PredictionServer::cache_hit_rate() const noexcept {
  const std::int64_t total = cache_hits_ + cache_misses_;
  return total == 0 ? 0.0 : static_cast<double>(cache_hits_) / total;
}

}  // namespace ppml::core
