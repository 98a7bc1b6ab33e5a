#include "qp/kernel_cache.h"

#include <algorithm>

#include "linalg/common.h"
#include "obs/obs.h"

namespace ppml::qp {

namespace {

std::size_t capacity_from_budget(std::size_t n, std::size_t budget_bytes) {
  if (n == 0) return 0;
  if (budget_bytes == 0) return n;  // unlimited: every row fits
  const std::size_t fit = budget_bytes / (n * sizeof(double));
  // At least two rows so an SMO step can hold rows i and j simultaneously.
  return std::clamp(fit, std::min<std::size_t>(2, n), n);
}

}  // namespace

KernelCache::KernelCache(std::size_t n, RowEvaluator evaluator,
                         std::size_t budget_bytes)
    : n_(n),
      evaluator_(std::move(evaluator)),
      capacity_(capacity_from_budget(n, budget_bytes)),
      slot_(n, lru_.end()) {
  PPML_CHECK(static_cast<bool>(evaluator_),
             "KernelCache: evaluator must be callable");
}

KernelCache::~KernelCache() { flush_stats(); }

std::span<const double> KernelCache::row(std::size_t i) {
  PPML_CHECK(i < n_, "KernelCache::row: index out of range");
  auto it = slot_[i];
  if (it != lru_.end()) {
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it);  // move to front; iterators stable
    return {it->data.data(), n_};
  }
  ++misses_;
  if (resident_ >= capacity_) {
    auto victim = std::prev(lru_.end());
    slot_[victim->index] = lru_.end();
    lru_.erase(victim);
    --resident_;
    ++evictions_;
  }
  lru_.push_front(Entry{i, Vector(n_)});
  ++resident_;
  slot_[i] = lru_.begin();
  Entry& entry = lru_.front();
  evaluator_(i, {entry.data.data(), n_});
  return {entry.data.data(), n_};
}

double KernelCache::hit_rate() const noexcept {
  const std::int64_t total = hits_ + misses_;
  return total == 0 ? 0.0 : static_cast<double>(hits_) / total;
}

void KernelCache::flush_stats() {
  if (hits_ == 0 && misses_ == 0 && evictions_ == 0) return;
  // No registry, no flush: keep the counts so a later flush (or a later
  // session) still sees them instead of silently zeroing them — the cache
  // routinely outlives the obs session in trainer teardown.
  if (obs::metrics() == nullptr) return;
  obs::count("qp.cache.hits", hits_);
  obs::count("qp.cache.misses", misses_);
  obs::count("qp.cache.evictions", evictions_);
  hits_ = 0;
  misses_ = 0;
  evictions_ = 0;
}

}  // namespace ppml::qp
