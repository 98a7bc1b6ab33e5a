#include "core/prediction_server.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "linalg/blas.h"
#include "obs/obs.h"
#include "svm/kernel.h"

namespace ppml::core {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// FNV-1a over the query's byte image: slot lookup must be exact (a near
// match would serve the wrong cached kernel row), so hashing the bits and
// confirming with element equality is the right tool.
std::uint64_t hash_query(std::span<const double> x) {
  std::uint64_t h = 1469598103934665603ULL;
  for (double v : x) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int shift = 0; shift < 64; shift += 8) {
      h ^= (bits >> shift) & 0xffULL;
      h *= 1099511628211ULL;
    }
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
  } else {
    const auto& kernel = std::get<VerticalKernelModelView>(model_);
    num_learners_ = kernel.train_blocks.size();
    bias_ = kernel.b;
  }
  PPML_CHECK(num_learners_ >= 2,
             "PredictionServer: need >= 2 learners for secure serving");
  session_ = std::make_unique<crypto::SecureSumSession>(
      prediction_session_config(num_learners_, protocol));

  if (is_kernel() && config_.cache_slots > 0) {
    const auto& kernel = std::get<VerticalKernelModelView>(model_);
    pool_.reserve(config_.cache_slots);
    row_caches_.reserve(num_learners_);
    for (std::size_t m = 0; m < num_learners_; ++m) {
      const std::size_t row_len = kernel.train_blocks[m].rows();
      row_caches_.push_back(std::make_unique<qp::KernelCache>(
          config_.cache_slots,
          [this, m](std::size_t slot, std::span<double> out) {
            const auto& model = std::get<VerticalKernelModelView>(model_);
            const auto& idx = model.feature_indices[m];
            std::vector<double> projected(idx.size());
            for (std::size_t j = 0; j < idx.size(); ++j)
              projected[j] = pool_[slot][idx[j]];
            const Vector krow = svm::kernel_row(model.kernel, projected,
                                                model.train_blocks[m]);
            std::copy(krow.begin(), krow.end(), out.begin());
          },
          /*budget_bytes=*/0, row_len));
    }
  }

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
  if (row_caches_.empty()) return kNoSlot;
  const std::uint64_t h = hash_query(x);
  std::vector<std::size_t>& bucket = slot_by_hash_[h];
  for (std::size_t slot : bucket)
    if (same_query(pool_[slot], x)) return slot;
  if (pool_.size() >= config_.cache_slots) return kNoSlot;  // pool full
  const std::size_t slot = pool_.size();
  pool_.emplace_back(x.begin(), x.end());
  bucket.push_back(slot);
  return slot;
}

AdmissionOutcome PredictionServer::submit(std::uint64_t client_id,
                                          std::span<const double> x,
                                          double now) {
  bump_clock(now);
  if (dim_ == 0)
    dim_ = x.size();
  else
    PPML_CHECK(x.size() == dim_,
               "PredictionServer::submit: query dimension mismatch");
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
  if (is_kernel() && !row_caches_.empty() && p.slot == kNoSlot) {
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
  const auto& model = std::get<VerticalKernelModelView>(model_);
  if (row_caches_.empty()) {
    for (std::size_t m = 0; m < num_learners_; ++m)
      partials.push_back(kernel_partial_scores(model, batch_x, m));
    return partials;
  }
  // Cached path: pooled queries fetch their (query, support-vector) kernel
  // rows in one bulk prefetch per learner; bypass queries compute theirs
  // inline. Both run the same projected -> kernel_row -> dot pipeline as
  // kernel_partial_scores, so the decision values cannot diverge.
  std::vector<std::size_t> pooled;  // batch positions that hold a pool slot
  std::vector<std::size_t> pooled_slots;
  for (std::size_t i = 0; i < batch_x.rows(); ++i) {
    if (slots[i] == kNoSlot) continue;
    pooled.push_back(i);
    pooled_slots.push_back(slots[i]);
  }
  for (std::size_t m = 0; m < num_learners_; ++m) {
    const auto& idx = model.feature_indices[m];
    Vector partial(batch_x.rows(), 0.0);
    linalg::Matrix rows(pooled.size(), row_caches_[m]->row_length());
    const auto batch = row_caches_[m]->fill_rows(pooled_slots, rows);
    cache_hits_ += batch.hits;
    cache_misses_ += batch.misses;
    for (std::size_t j = 0; j < pooled.size(); ++j)
      partial[pooled[j]] = linalg::dot(rows.row(j), model.alphas[m]);
    std::vector<double> projected(idx.size());
    for (std::size_t i = 0; i < batch_x.rows(); ++i) {
      if (slots[i] != kNoSlot) continue;
      for (std::size_t j = 0; j < idx.size(); ++j)
        projected[j] = batch_x(i, idx[j]);
      const Vector krow =
          svm::kernel_row(model.kernel, projected, model.train_blocks[m]);
      partial[i] = linalg::dot(krow, model.alphas[m]);
    }
    partials.push_back(std::move(partial));
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

std::int64_t PredictionServer::cache_hits() const noexcept {
  return cache_hits_;
}

std::int64_t PredictionServer::cache_misses() const noexcept {
  return cache_misses_;
}

double PredictionServer::cache_hit_rate() const noexcept {
  const std::int64_t total = cache_hits() + cache_misses();
  return total == 0 ? 0.0 : static_cast<double>(cache_hits()) / total;
}

}  // namespace ppml::core
