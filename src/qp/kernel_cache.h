// LRU cache of kernel-matrix rows, evaluated on demand.
//
// The SVM dual works against an n x n matrix Q with Q_ij = y_i y_j K(x_i,
// x_j). Materializing Q costs O(n^2) memory, which is exactly what the
// paper's big-data setting cannot afford. KernelCache instead stores a
// bounded working set of *rows*: a row is computed by a caller-supplied
// evaluator on first touch and then recycled until evicted (least recently
// used first). SMO touches the same few rows repeatedly — the active
// variables — so even a small budget gets high hit rates (see
// docs/performance.md, "Cache budget sizing").
//
// Guarantees relied on by the SMO step (which holds rows i and j at once):
//  - each cached row owns its storage, so evicting one row never moves or
//    invalidates another row's span;
//  - capacity is at least min(2, n) rows, so the most recently returned row
//    always survives the next single fetch.
//
// Counters (flushed to the obs session on destruction): `qp.cache.hits`,
// `qp.cache.misses`, `qp.cache.evictions`.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <span>
#include <vector>

#include "linalg/matrix.h"

namespace ppml::qp {

using linalg::Vector;

class KernelCache {
 public:
  /// Fills `out` (length n) with row i of the implicit matrix.
  /// Must be a pure function of i: the cache assumes re-evaluating a row
  /// reproduces it bit-for-bit.
  using RowEvaluator = std::function<void(std::size_t, std::span<double>)>;

  /// @param n             number of rows of the implicit matrix
  /// @param evaluator     row filler, see RowEvaluator
  /// @param budget_bytes  cache budget; 0 means "unlimited" (all n rows fit,
  ///                      equivalent to a lazily-built dense matrix). A
  ///                      nonzero budget is converted to a row capacity of
  ///                      clamp(budget / (n * 8), min(2, n), n).
  KernelCache(std::size_t n, RowEvaluator evaluator,
              std::size_t budget_bytes = 0);
  ~KernelCache();

  KernelCache(const KernelCache&) = delete;
  KernelCache& operator=(const KernelCache&) = delete;

  /// Row i of the implicit matrix. The span is valid until row i is evicted,
  /// which cannot happen before at least `capacity_rows() - 1` fetches of
  /// other rows.
  std::span<const double> row(std::size_t i);

  std::size_t size() const noexcept { return n_; }
  std::size_t capacity_rows() const noexcept { return capacity_; }
  std::size_t cached_rows() const noexcept { return resident_; }

  std::int64_t hits() const noexcept { return hits_; }
  std::int64_t misses() const noexcept { return misses_; }
  std::int64_t evictions() const noexcept { return evictions_; }
  /// hits / (hits + misses); 0 when nothing was fetched yet.
  double hit_rate() const noexcept;

  /// Emit the counters to the obs session and reset them to zero. Called by
  /// the destructor as a safety net and by qp::solve_smo's callers at solve
  /// end; call it explicitly whenever the cache may outlive the session —
  /// a destructor-time flush after obs::uninstall() would find no registry
  /// (so it keeps the counts instead of dropping them, waiting for either
  /// a session or another flush).
  void flush_stats();

 private:
  struct Entry {
    std::size_t index;
    Vector data;
  };

  std::size_t n_;
  RowEvaluator evaluator_;
  std::size_t capacity_;
  std::size_t resident_ = 0;
  std::list<Entry> lru_;  ///< front = most recently used
  std::vector<std::list<Entry>::iterator> slot_;  ///< end() = not resident
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
  std::int64_t evictions_ = 0;
};

}  // namespace ppml::qp
