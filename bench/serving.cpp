// Secure prediction serving under open-loop load (docs/serving.md).
//
// Four scenarios over models trained once on the cancer substitute:
//   1. micro-batch sweep (linear): max_batch 1 / 8 / 64 at a fixed offered
//      rate — the p99-vs-QPS trade the serving layer exists for;
//   2. score reuse: a bounded pool of distinct query points cycled across
//      many batches, pinning the cross-batch hit rate of the per-learner
//      partial-score cache;
//   3. admission overload: 2x the configured sustainable rate — the server
//      must shed deterministically, not queue unboundedly or crash;
//   4. one instrumented run: serve.* span stats and counters for the
//      report.
//
// Determinism contract (scripts/bench_check.py): every quantity the
// VIRTUAL clock decides — batching, occupancy, admission splits, cache
// traffic, span/counter counts — is reproduced exactly run to run and is
// gated exactly against bench/baselines/BENCH_serving.json. Only wall_s /
// qps / latency quantiles carry machine noise (slack-gated). The bench
// also hard-fails if a sampled batched decision value differs from the
// per-query secure prediction path by a single bit.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/prediction_server.h"
#include "core/vertical.h"
#include "obs/obs.h"
#include "obs/report.h"

namespace ppml {
namespace {

linalg::Matrix one_row(std::span<const double> x) {
  linalg::Matrix m(1, x.size());
  for (std::size_t j = 0; j < x.size(); ++j) m(0, j) = x[j];
  return m;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct DriveConfig {
  std::size_t queries = 0;
  std::size_t clients = 4;
  double offered_qps = 50000.0;  ///< virtual arrival rate
  std::size_t row_pool = 0;      ///< cycle queries over this many test rows
};

struct RunOutcome {
  core::ServingStats stats;
  std::vector<core::ServeResult> results;
  double wall_s = 0.0;
  double qps = 0.0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;  ///< latency seconds
};

/// Open-loop drive: arrivals at exactly offered_qps on the virtual clock,
/// advance() before each submit (the event-loop contract), drain at end.
RunOutcome drive(core::PredictionServer& server, const linalg::Matrix& x,
                 const DriveConfig& d) {
  const double dt = 1.0 / d.offered_qps;
  const std::size_t pool = std::min(d.row_pool == 0 ? x.rows() : d.row_pool,
                                    x.rows());
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < d.queries; ++i) {
    const double now = static_cast<double>(i) * dt;
    server.advance(now);
    server.submit(i % d.clients, x.row(i % pool), now);
  }
  server.drain(static_cast<double>(d.queries) * dt);
  RunOutcome out;
  out.wall_s = seconds_since(t0);
  out.results = server.take_results();
  out.stats = server.stats();
  out.qps = out.wall_s == 0.0
                ? 0.0
                : static_cast<double>(out.stats.served) / out.wall_s;
  std::vector<double> latency;
  latency.reserve(out.results.size());
  for (const auto& r : out.results)
    latency.push_back(r.serve_time - r.submit_time + r.compute_seconds);
  std::sort(latency.begin(), latency.end());
  const auto quant = [&](double q) {
    if (latency.empty()) return 0.0;
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(latency.size() - 1));
    return latency[idx];
  };
  out.p50 = quant(0.50);
  out.p95 = quant(0.95);
  out.p99 = quant(0.99);
  return out;
}

/// Sampled bit-identity audit: every `stride`-th served query must decode
/// to EXACTLY the per-query (fresh one-shot session, round 0) value.
template <typename ModelView>
void audit_bit_identity(const ModelView& model, const core::AdmmParams& params,
                        const std::vector<core::ServeResult>& results,
                        const linalg::Matrix& x, std::size_t pool,
                        std::size_t stride, const char* label) {
  std::size_t checked = 0;
  for (const auto& r : results) {
    if (r.query_id % stride != 0) continue;
    const std::size_t row = static_cast<std::size_t>(r.query_id - 1) % pool;
    const linalg::Vector reference =
        core::secure_vertical_decision_values(model, one_row(x.row(row)),
                                              params);
    if (reference[0] != r.decision_value) {
      std::fprintf(stderr,
                   "FATAL: %s query %llu: batched %.17g != per-query %.17g\n",
                   label, static_cast<unsigned long long>(r.query_id),
                   r.decision_value, reference[0]);
      std::exit(1);
    }
    ++checked;
  }
  std::printf("# %s: %zu sampled queries bit-identical to per-query path\n",
              label, checked);
}

void add_latency_keys(obs::JsonValue& row, const RunOutcome& out) {
  row.set("wall_s", out.wall_s);
  row.set("qps", out.qps);
  row.set("p50_latency_s", out.p50);
  row.set("p95_latency_s", out.p95);
  row.set("p99_latency_s", out.p99);
}

int run(std::size_t queries) {
  std::printf("# serving bench — %zu queries (cancer substitute)\n", queries);
  const auto dataset = bench::make_bench_dataset("cancer");
  const auto partition = data::partition_vertically(dataset.split.train, 4, 7);

  core::AdmmParams linear_params = bench::paper_params(30);
  const auto linear = core::train_linear_vertical(partition, linear_params,
                                                  nullptr);
  core::AdmmParams kernel_params = bench::paper_params(15);
  const auto kernel = core::train_kernel_vertical(
      partition, svm::Kernel::rbf(0.3), kernel_params, nullptr);

  obs::JsonValue report = obs::JsonValue::object();
  report.set("bench", "serving");
  report.set("dataset", dataset.name);
  report.set("queries", queries);

  // --- 1. micro-batch sweep (linear) --------------------------------------
  std::printf("\n## Micro-batch sweep, linear, offered 50k qps (virtual)\n");
  std::printf("%9s %10s %10s %8s %10s %12s %12s %12s\n", "max_batch",
              "served", "batches", "occ", "wall_s", "qps", "p50_ms",
              "p99_ms");
  obs::JsonValue sweep = obs::JsonValue::array();
  for (std::size_t max_batch : {std::size_t{1}, std::size_t{8},
                                std::size_t{64}}) {
    core::ServingConfig config;
    config.max_batch = max_batch;
    config.max_linger = 0.002;
    core::PredictionServer server(linear.model, linear_params, config);
    DriveConfig d;
    d.queries = queries;
    const RunOutcome out = drive(server, dataset.split.test.x, d);
    std::printf("%9zu %10zu %10zu %8.2f %10.3f %12.0f %12.4f %12.4f\n",
                max_batch, out.stats.served, out.stats.batches,
                out.stats.mean_occupancy(), out.wall_s, out.qps,
                out.p50 * 1e3, out.p99 * 1e3);
    if (max_batch == 64)
      audit_bit_identity(linear.model, linear_params, out.results,
                         dataset.split.test.x, dataset.split.test.x.rows(),
                         199, "linear batch=64");
    obs::JsonValue row = obs::JsonValue::object();
    row.set("max_batch", max_batch);
    row.set("served", out.stats.served);
    row.set("batches", out.stats.batches);
    row.set("mean_occupancy", out.stats.mean_occupancy());
    row.set("full_flushes", out.stats.full_flushes);
    row.set("linger_flushes", out.stats.linger_flushes);
    row.set("drain_flushes", out.stats.drain_flushes);
    add_latency_keys(row, out);
    sweep.push(std::move(row));
  }
  report.set("linear_batch_sweep", std::move(sweep));

  // --- 2. partial-score reuse across batches -------------------------------
  {
    const std::size_t kernel_queries =
        std::max<std::size_t>(queries / 4, 500);
    const std::size_t distinct = 64;
    std::printf("\n## Score reuse: %zu queries cycling %zu points\n",
                kernel_queries, distinct);
    core::ServingConfig config;
    config.max_batch = 32;
    config.max_linger = 0.002;
    config.cache_slots = 128;
    core::PredictionServer server(kernel.model, kernel_params, config);
    DriveConfig d;
    d.queries = kernel_queries;
    d.row_pool = distinct;
    const RunOutcome out = drive(server, dataset.split.test.x, d);
    const std::int64_t hits = server.cache_hits();
    const std::int64_t misses = server.cache_misses();
    const double hit_rate = server.cache_hit_rate();
    std::printf("served %zu in %zu batches: cache %lld hits / %lld misses "
                "(rate %.4f, bypass %zu), %.0f qps, p99 %.4f ms\n",
                out.stats.served, out.stats.batches,
                static_cast<long long>(hits), static_cast<long long>(misses),
                hit_rate, out.stats.cache_bypass, out.qps, out.p99 * 1e3);
    audit_bit_identity(kernel.model, kernel_params, out.results,
                       dataset.split.test.x, distinct, 199, "kernel cached");
    obs::JsonValue row = obs::JsonValue::object();
    row.set("queries", kernel_queries);
    row.set("distinct_points", distinct);
    row.set("cache_slots", config.cache_slots);
    row.set("served", out.stats.served);
    row.set("batches", out.stats.batches);
    row.set("cache_hits", hits);
    row.set("cache_misses", misses);
    row.set("cache_bypass", out.stats.cache_bypass);
    row.set("cache_hit_rate", hit_rate);
    add_latency_keys(row, out);
    report.set("kernel_cache", std::move(row));
  }

  // --- 3. admission overload: 2x sustainable ------------------------------
  {
    const std::size_t overload_queries = std::min<std::size_t>(queries,
                                                               100000);
    std::printf("\n## Overload: 8 clients x 2500 qps admitted capacity, "
                "offered 40k qps (2x)\n");
    core::ServingConfig config;
    config.max_batch = 64;
    config.max_linger = 0.002;
    config.client_rate = 2500.0;  // 8 clients: 20k qps sustainable
    core::PredictionServer server(linear.model, linear_params, config);
    DriveConfig d;
    d.queries = overload_queries;
    d.clients = 8;
    d.offered_qps = 40000.0;
    const RunOutcome out = drive(server, dataset.split.test.x, d);
    const auto& s = out.stats;
    if (s.queued + s.shed_rate + s.shed_queue != s.submitted ||
        s.served != s.queued || s.shed_rate == 0) {
      std::fprintf(stderr, "FATAL: overload admission accounting broken\n");
      return 1;
    }
    const double shed_fraction =
        static_cast<double>(s.shed_rate + s.shed_queue) /
        static_cast<double>(s.submitted);
    std::printf("submitted %zu: served %zu, shed %zu (%.1f%%) — queue "
                "peaked bounded, no crash\n",
                s.submitted, s.served, s.shed_rate + s.shed_queue,
                shed_fraction * 100.0);
    obs::JsonValue row = obs::JsonValue::object();
    row.set("offered_rate", 40000);
    row.set("sustainable_rate", 20000);
    row.set("clients", d.clients);
    row.set("submitted", s.submitted);
    row.set("served", s.served);
    row.set("shed_rate", s.shed_rate);
    row.set("shed_queue", s.shed_queue);
    row.set("shed_fraction", shed_fraction);
    add_latency_keys(row, out);
    report.set("overload", std::move(row));
  }

  // --- 4. instrumented run: serve.* spans and counters --------------------
  {
    const std::size_t instrumented_queries = std::min<std::size_t>(queries,
                                                                   20000);
    obs::Tracer tracer;
    obs::MetricsRegistry metrics;
    {
      obs::Session session(&tracer, &metrics);
      core::ServingConfig config;
      config.max_batch = 64;
      config.max_linger = 0.002;
      core::PredictionServer server(linear.model, linear_params, config);
      DriveConfig d;
      d.queries = instrumented_queries;
      drive(server, dataset.split.test.x, d);
    }
    report.set("phases_instrumented", obs::span_stats_json(tracer));
    // Counters only: every counter is virtual-clock deterministic (exact
    // gate). Histogram buckets of the real-time latency metrics are NOT —
    // they stay out of the report.
    obs::JsonValue counters = obs::JsonValue::object();
    for (const auto& [name, value] : metrics.counters())
      counters.set(name, value);
    report.set("counters_instrumented", std::move(counters));
    const auto occupancy = metrics.histogram("serve.batch.occupancy");
    std::printf("\n## Instrumented (%zu queries): occupancy p50 %.0f, "
                "serve.batch spans %llu\n",
                instrumented_queries, occupancy.quantile(0.5),
                static_cast<unsigned long long>(occupancy.total));
  }

  obs::write_json_file("BENCH_serving.json", report);
  std::printf("\n# report written to BENCH_serving.json\n");
  return 0;
}

}  // namespace
}  // namespace ppml

int main(int argc, char** argv) {
  std::size_t queries = 200000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--queries") == 0 && i + 1 < argc) {
      queries = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else {
      std::fprintf(stderr, "usage: %s [--queries N]\n", argv[0]);
      return 2;
    }
  }
  return ppml::run(queries);
}
