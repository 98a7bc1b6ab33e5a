// Secure prediction serving: an open-loop front-end over
// core/secure_prediction.h that takes trained vertical models from batch
// CLI evaluation to query serving (docs/serving.md).
//
// The per-query cost of the naive loop is brutal: one secure-sum session
// (a DH key agreement with M(M-1)/2 exponentiations — cheap each, but
// O(M^2) per session), one protocol round and — for kernel
// models — one kernel-block evaluation PER QUERY. PredictionServer
// amortizes all three:
//
//   * queries are MICRO-BATCHED (configurable max batch size and max
//     linger): one `crypto::SecureSumSession` round and one kernel-block
//     evaluation serve the whole batch;
//   * the session is built ONCE and reused for every batch — key agreement
//     is paid at construction, each batch draws a fresh protocol round
//     from `SecureSumSession::next_round` (mask streams are never reused);
//   * for kernel models, each learner's partial score of a popular query
//     point is computed once and read back in later batches: the served
//     model and the pooled query are both immutable, so the score is too.
//
// Admission control is a per-client token bucket plus a global pending
// bound, with explicit outcomes (serve / shed): overload sheds queries
// instead of growing the queue or crashing. Batched decision values are
// bit-identical to per-query `secure_vertical_decision_values` calls for
// any batch composition (pinned in tests/serving_test.cpp).
//
// Clock model: the server runs on a caller-supplied VIRTUAL clock (`now`
// in seconds, monotone) — arrival times, linger deadlines and token-bucket
// refills are all virtual, so a given query schedule produces the same
// batching, the same admission outcomes and the same decision values on
// every run. Only the reported per-batch compute time is a real
// (steady_clock) measurement. See docs/serving.md for how the two combine
// into the reported latency.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <variant>
#include <vector>

#include "core/secure_prediction.h"

namespace ppml::core {

/// Serving knobs. Defaults favor throughput (batch 64) with a 5 ms linger
/// ceiling on queue wait.
struct ServingConfig {
  /// Flush as soon as this many admitted queries are pending.
  std::size_t max_batch = 64;
  /// Flush a partial batch once its oldest query has waited this long
  /// (virtual seconds). The p99-vs-QPS trade lives here and in max_batch —
  /// see docs/serving.md.
  double max_linger = 0.005;

  // --- admission control --------------------------------------------------
  /// Per-client token refill rate (queries/second of virtual time).
  /// 0 disables rate admission (every query is admitted).
  double client_rate = 0.0;
  /// Token-bucket capacity. 0 = max(1, client_rate / 100): a client may
  /// burst ~10 ms worth of its sustained rate.
  double client_burst = 0.0;
  /// Shed when this many admitted queries are already pending (the server
  /// is not keeping up with its drive loop). 0 = unbounded.
  std::size_t max_queue_depth = 0;

  // --- score reuse (kernel models only) -----------------------------------
  /// Distinct query points whose per-learner partial scores are kept across
  /// batches (one double per learner per slot). 0 disables caching; every
  /// query then re-evaluates its kernel rows. Slots are handed out in
  /// first-seen order and never evicted; later new points bypass the pool.
  std::size_t cache_slots = 0;
};

/// What submit() did with a query.
enum class AdmissionOutcome {
  kQueued,     ///< admitted; will be served by a later flush
  kShedRate,   ///< rejected: the client's token bucket is empty
  kShedQueue,  ///< rejected: max_queue_depth admitted queries already wait
};

/// One served query, delivered through take_results().
struct ServeResult {
  std::uint64_t query_id = 0;  ///< ticket from submit(), 1-based
  std::uint64_t client_id = 0;
  double decision_value = 0.0;   ///< f(x); sign() classifies
  double submit_time = 0.0;      ///< virtual clock at submit()
  double serve_time = 0.0;       ///< virtual clock at the serving flush
  double compute_seconds = 0.0;  ///< real compute time of the whole batch
  std::size_t batch_id = 0;      ///< also the secure-sum round number
  std::size_t batch_occupancy = 0;
};

/// Why a batch was flushed.
enum class FlushReason { kFull, kLinger, kDrain };

/// Aggregate serving counters (the obs counters' in-process twin, so
/// callers get stats without installing a metrics session).
struct ServingStats {
  std::size_t submitted = 0;
  std::size_t queued = 0;
  std::size_t served = 0;
  std::size_t shed_rate = 0;
  std::size_t shed_queue = 0;
  std::size_t batches = 0;
  std::size_t full_flushes = 0;
  std::size_t linger_flushes = 0;
  std::size_t drain_flushes = 0;
  std::size_t cache_bypass = 0;  ///< kernel queries outside the slot pool

  double mean_occupancy() const noexcept {
    return batches == 0 ? 0.0
                        : static_cast<double>(served) /
                              static_cast<double>(batches);
  }
};

class PredictionServer {
 public:
  PredictionServer(VerticalLinearModelView model, const AdmmParams& protocol,
                   ServingConfig config);
  PredictionServer(VerticalKernelModelView model, const AdmmParams& protocol,
                   ServingConfig config);
  ~PredictionServer();

  PredictionServer(const PredictionServer&) = delete;
  PredictionServer& operator=(const PredictionServer&) = delete;

  /// Offer one query (full feature vector; the harness stands in for the
  /// per-learner feature distribution, see docs/serving.md). `now` is the
  /// virtual arrival time and must be monotone across submit/advance/drain.
  /// Admission runs here; admitted queries wait for the next flush.
  /// Throws InvalidArgument, counting nothing, on a query with a non-finite
  /// feature, on a first query narrower than the model's feature indices,
  /// and on a later query whose width differs from the first one's.
  AdmissionOutcome submit(std::uint64_t client_id, std::span<const double> x,
                          double now);

  /// Run every flush due at virtual time `now`: full batches first, then
  /// partial batches whose oldest query has exceeded max_linger. Call this
  /// from the drive loop (e.g. before each arrival).
  void advance(double now);

  /// advance(now), then flush everything still pending (end of stream).
  void drain(double now);

  /// Move out the results accumulated since the last call.
  std::vector<ServeResult> take_results();

  const ServingStats& stats() const noexcept { return stats_; }
  std::size_t pending() const noexcept { return pending_.size(); }
  std::size_t num_learners() const noexcept { return num_learners_; }
  bool is_kernel() const noexcept;

  /// Score-cache tallies (all zero for linear models or cache_slots == 0):
  /// one count per (query, learner) pair that went through the pool — a
  /// miss computes the learner's partial score, a hit reads it back.
  std::int64_t cache_hits() const noexcept { return cache_hits_; }
  std::int64_t cache_misses() const noexcept { return cache_misses_; }
  double cache_hit_rate() const noexcept;

 private:
  struct Pending {
    std::uint64_t id = 0;
    std::uint64_t client = 0;
    Vector x;
    double submit_time = 0.0;
    std::uint64_t flow = 0;     ///< tracer flow id (0 = tracing off)
    std::size_t slot = kNoSlot;  ///< query-pool slot (kernel models)
  };

  struct TokenBucket {
    double tokens = 0.0;
    double last = 0.0;
    bool initialized = false;
  };

  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  void init(const AdmmParams& protocol);
  void bump_clock(double now);
  bool admit_rate(std::uint64_t client_id, double now);
  std::size_t resolve_slot(std::span<const double> x);
  void flush_batch(std::size_t count, double now, FlushReason reason);
  std::vector<Vector> batch_partials(const linalg::Matrix& batch_x,
                                     const std::vector<std::size_t>& slots);

  std::variant<VerticalLinearModelView, VerticalKernelModelView> model_;
  ServingConfig config_;
  std::size_t num_learners_ = 0;
  std::size_t width_ = 0;  ///< required_width of the model's feature indices
  std::size_t dim_ = 0;    ///< query dimension, latched on first submit
  double bias_ = 0.0;

  std::unique_ptr<crypto::SecureSumSession> session_;

  std::deque<Pending> pending_;
  std::vector<ServeResult> results_;
  std::unordered_map<std::uint64_t, TokenBucket> buckets_;
  double clock_ = 0.0;
  std::uint64_t next_query_id_ = 1;
  ServingStats stats_;

  // Score reuse: a pool of distinct query points shared by all learners.
  // pool_[s] is immutable once slot s is assigned, so learner m's partial
  // score of it, slot_scores_[s * num_learners_ + m], never changes; it is
  // computed by the first batch that holds slot s (slot_scored_[s] != 0).
  std::vector<Vector> pool_;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> slot_by_hash_;
  std::vector<double> slot_scores_;
  std::vector<std::uint8_t> slot_scored_;
  std::int64_t cache_hits_ = 0;
  std::int64_t cache_misses_ = 0;
};

}  // namespace ppml::core
