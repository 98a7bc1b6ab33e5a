// Ablation X4: the inner QP solvers (google-benchmark).
//
// The per-mapper dual is solved every ADMM iteration with a constant Q and
// a drifting linear term, so warm-started coordinate descent is the design
// point — this bench measures the warm-start payoff and compares solvers.
//
// Besides the google-benchmark timings, the binary runs a kernel-cache
// budget sweep (dense Q vs unlimited / 25% / minimum row-cache budgets for
// the cached SMO path) and writes BENCH_qp.json (working directory) with
// per-mode durations, cache hit statistics, and the max |x - x_dense|
// cross-check (expected exactly 0.0 — the cached path is bit-identical).
// Pass `--metrics PATH` to also dump the obs counters (qp.cache.*,
// qp.smo.*) collected during the sweep. A `diagonal` object times
// solve_diagonal_qp at the linear-vertical reducer's shape against the
// serial bisection kept below, and aborts unless every x is bit-identical
// to it. docs/performance.md explains how to read the output.
#include <benchmark/benchmark.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>

#include "data/generators.h"
#include "linalg/blas.h"
#include "linalg/microkernel.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "qp/box_qp.h"
#include "qp/diagonal_qp.h"
#include "tests/projected_gradient.h"
#include "qp/smo.h"
#include "svm/kernel.h"

using namespace ppml;

namespace {

struct Problem {
  linalg::Matrix q;
  linalg::Vector p;
  linalg::Vector y;
};

Problem make_problem(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> normal;
  linalg::Matrix b(n, n);
  for (double& v : b.data()) v = normal(rng);
  Problem problem;
  problem.q = linalg::gram_a_at(b);
  for (std::size_t i = 0; i < n; ++i) problem.q(i, i) += 1.0;
  problem.p.resize(n);
  for (double& v : problem.p) v = normal(rng);
  problem.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) problem.y[i] = i % 2 == 0 ? 1.0 : -1.0;
  return problem;
}

void BM_BoxQpColdStart(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Problem problem = make_problem(n, n);
  const qp::BoxQpSolver solver(problem.q, 0.0, 50.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(problem.p));
  }
}
BENCHMARK(BM_BoxQpColdStart)->Arg(50)->Arg(200)->Arg(800);

void BM_BoxQpWarmStart(benchmark::State& state) {
  // Simulates the ADMM inner loop: p drifts slightly, lambda warm-starts.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Problem problem = make_problem(n, n);
  const qp::BoxQpSolver solver(problem.q, 0.0, 50.0);
  qp::Result previous = solver.solve(problem.p);
  linalg::Vector p = problem.p;
  for (auto _ : state) {
    for (double& v : p) v += 1e-3;
    previous = solver.solve(p, previous.x);
    benchmark::DoNotOptimize(previous);
  }
}
BENCHMARK(BM_BoxQpWarmStart)->Arg(50)->Arg(200)->Arg(800);

void BM_ProjectedGradient(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Problem problem = make_problem(n, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        qp::solve_box_qp_projected_gradient(problem.q, problem.p, 0.0, 50.0));
  }
}
BENCHMARK(BM_ProjectedGradient)->Arg(50)->Arg(200)->Arg(800);

void BM_Smo(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Problem problem = make_problem(n, n);
  qp::SmoProblem smo{problem.q, problem.p, problem.y, 50.0, 0.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(qp::solve_smo(smo));
  }
}
BENCHMARK(BM_Smo)->Arg(50)->Arg(200)->Arg(800);

void BM_DiagonalQpExact(benchmark::State& state) {
  // No dense Q here — the diagonal solver is what makes the vertical
  // reducer step O(N log) instead of O(N^2); generate vectors directly.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(n);
  std::normal_distribution<double> normal;
  qp::DiagonalQpProblem diagonal;
  diagonal.d.assign(n, 0.04);  // M/rho at the paper's settings
  diagonal.p.resize(n);
  for (double& v : diagonal.p) v = normal(rng);
  diagonal.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) diagonal.y[i] = i % 2 == 0 ? 1.0 : -1.0;
  diagonal.c = 50.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(qp::solve_diagonal_qp(diagonal));
  }
}
BENCHMARK(BM_DiagonalQpExact)->Arg(200)->Arg(2000)->Arg(20000);

// ------------------------------------------------------ cached SMO bench

/// SVM-dual-shaped problem over an RBF Gram (rings data): p = 1, delta = 0.
struct KernelProblem {
  linalg::Matrix x;
  linalg::Vector y;
  svm::Kernel kernel = svm::Kernel::rbf(0.5);
  double c = 50.0;

  qp::KernelCache::RowEvaluator evaluator() const {
    return [this](std::size_t i, std::span<double> out) {
      const auto xi = x.row(i);
      for (std::size_t j = 0; j < x.rows(); ++j)
        out[j] = y[i] * y[j] * kernel(xi, x.row(j));
    };
  }

  linalg::Matrix dense_q() const {
    const linalg::Matrix k = svm::gram(kernel, x);
    linalg::Matrix q(y.size(), y.size());
    for (std::size_t i = 0; i < y.size(); ++i)
      for (std::size_t j = 0; j < y.size(); ++j)
        q(i, j) = y[i] * y[j] * k(i, j);
    return q;
  }
};

KernelProblem make_kernel_problem(std::size_t n) {
  const data::Dataset rings = data::make_two_rings(n, 1.0, 3.0, 0.1, n);
  KernelProblem problem;
  problem.x = rings.x;
  problem.y = rings.y;
  return problem;
}

void BM_SmoCached(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t budget_percent = static_cast<std::size_t>(state.range(1));
  const KernelProblem problem = make_kernel_problem(n);
  const std::size_t budget =
      budget_percent == 100
          ? 0  // unlimited
          : std::max<std::size_t>(1, (n * budget_percent / 100) * n * 8);
  const linalg::Vector p(n, 1.0);
  for (auto _ : state) {
    qp::KernelCache cache(n, problem.evaluator(), budget);
    benchmark::DoNotOptimize(
        qp::solve_smo(cache, p, problem.y, problem.c, 0.0));
  }
}
BENCHMARK(BM_SmoCached)
    ->Args({160, 100})
    ->Args({160, 25})
    ->Args({320, 100})
    ->Args({320, 25});

// -------------------------------------------- cache-budget sweep (JSON)

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

obs::JsonValue run_cache_sweep() {
  obs::JsonValue sweep = obs::JsonValue::array();
  for (const std::size_t n : {std::size_t{160}, std::size_t{320}}) {
    const KernelProblem problem = make_kernel_problem(n);
    const linalg::Vector p(n, 1.0);
    qp::Options options;
    options.tolerance = 1e-5;
    options.max_iterations = 200'000;

    // Dense reference: materialized Q (the memory-hungry baseline).
    auto start = std::chrono::steady_clock::now();
    qp::SmoProblem dense_problem{problem.dense_q(), p, problem.y, problem.c,
                                 0.0};
    const qp::Result dense = qp::solve_smo(dense_problem, options);
    const double dense_seconds = seconds_since(start);

    obs::JsonValue size_row = obs::JsonValue::object();
    size_row.set("n", n);
    size_row.set("kernel", problem.kernel.describe());
    size_row.set("c", problem.c);
    obs::JsonValue dense_row = obs::JsonValue::object();
    dense_row.set("mode", "dense");
    dense_row.set("q_bytes", n * n * sizeof(double));
    dense_row.set("seconds", dense_seconds);
    dense_row.set("iterations", dense.iterations);
    dense_row.set("converged", dense.converged);
    obs::JsonValue modes = obs::JsonValue::array();
    modes.push(std::move(dense_row));

    struct BudgetMode {
      const char* name;
      std::size_t bytes;
    };
    const BudgetMode budgets[] = {
        {"cache_full", 0},
        {"cache_25pct", (n / 4) * n * sizeof(double)},
        {"cache_min", 1},  // clamped to two resident rows: near row-recompute
    };
    for (const BudgetMode& mode : budgets) {
      start = std::chrono::steady_clock::now();
      qp::KernelCache cache(n, problem.evaluator(), mode.bytes);
      const qp::Result cached =
          qp::solve_smo(cache, p, problem.y, problem.c, 0.0, options);
      const double cached_seconds = seconds_since(start);

      double max_diff = 0.0;
      for (std::size_t i = 0; i < n; ++i)
        max_diff = std::max(max_diff, std::abs(cached.x[i] - dense.x[i]));

      obs::JsonValue row = obs::JsonValue::object();
      row.set("mode", mode.name);
      row.set("budget_bytes", mode.bytes);
      row.set("capacity_rows", cache.capacity_rows());
      row.set("seconds", cached_seconds);
      row.set("iterations", cached.iterations);
      row.set("converged", cached.converged);
      row.set("cache_hits", cache.hits());
      row.set("cache_misses", cache.misses());
      row.set("cache_evictions", cache.evictions());
      row.set("cache_hit_rate", cache.hit_rate());
      row.set("max_abs_diff_vs_dense", max_diff);  // expected exactly 0.0
      modes.push(std::move(row));
      std::printf(
          "# smo_cache n=%zu mode=%-11s seconds=%.4f hit_rate=%.3f "
          "max_diff=%.1e\n",
          n, mode.name, cached_seconds, cache.hit_rate(), max_diff);
    }
    size_row.set("modes", std::move(modes));
    sweep.push(std::move(size_row));
  }
  return sweep;
}

// ------------------------------------- diagonal QP at the lv reducer shape

/// The serial bisection solve_diagonal_qp ran before its certified fast
/// pass: the x it returns is the reference the fast solver must match.
linalg::Vector serial_diagonal_x(const qp::DiagonalQpProblem& problem) {
  const std::size_t n = problem.d.size();
  linalg::Vector x(n, 0.0);
  const auto x_of_nu = [&](double nu) {
    for (std::size_t i = 0; i < n; ++i)
      x[i] = std::min(
          std::max((problem.p[i] - nu * problem.y[i]) / problem.d[i], 0.0),
          problem.c);
  };
  const auto h = [&](double nu) {
    x_of_nu(nu);
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) acc += problem.y[i] * x[i];
    return acc;
  };
  double lo = -1.0;
  double hi = 1.0;
  while (h(lo) < problem.delta && std::isfinite(lo)) lo *= 2.0;
  while (h(hi) > problem.delta && std::isfinite(hi)) hi *= 2.0;
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    (h(mid) > problem.delta ? lo : hi) = mid;
    if (hi - lo <= 1e-12 * (1.0 + std::abs(lo) + std::abs(hi))) break;
  }
  x_of_nu(0.5 * (lo + hi));
  return x;
}

/// lv-m8-fabric's reducer dual: n = 20 000, d = M/rho = 0.08, C = 50,
/// delta = 0, p = 1 - y q; `count` problems with different q.
obs::JsonValue run_diagonal(std::size_t count) {
  constexpr std::size_t n = 20000;
  std::mt19937_64 rng(20000);
  std::normal_distribution<double> normal;
  std::vector<qp::DiagonalQpProblem> problems(count);
  for (qp::DiagonalQpProblem& problem : problems) {
    problem.d.assign(n, 0.08);
    problem.y.resize(n);
    problem.p.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      problem.y[i] = (rng() & 1) != 0 ? 1.0 : -1.0;
      const double q = problem.y[i] * 0.8 + 1.5 * normal(rng);
      problem.p[i] = 1.0 - problem.y[i] * q;
    }
    problem.c = 50.0;
  }

  obs::MetricsRegistry metrics;
  std::vector<linalg::Vector> solved;
  auto start = std::chrono::steady_clock::now();
  {
    obs::Session session(nullptr, &metrics);
    for (const qp::DiagonalQpProblem& problem : problems)
      solved.push_back(qp::solve_diagonal_qp(problem).x);
  }
  const double seconds = seconds_since(start);

  std::size_t differs = 0;
  start = std::chrono::steady_clock::now();
  for (std::size_t k = 0; k < count; ++k) {
    const linalg::Vector reference = serial_diagonal_x(problems[k]);
    for (std::size_t i = 0; i < n; ++i)
      differs += std::bit_cast<std::uint64_t>(reference[i]) !=
                 std::bit_cast<std::uint64_t>(solved[k][i]);
  }
  const double serial_seconds = seconds_since(start);

  obs::JsonValue row = obs::JsonValue::object();
  row.set("n", n);
  row.set("problems", count);
  row.set("isa", linalg::active_isa_name());
  row.set("seconds", seconds);
  row.set("serial_seconds", serial_seconds);
  row.set("sweeps", metrics.counter("qp.diagonal.sweeps"));
  row.set("serial_passes", metrics.counter("qp.diagonal.serial_passes"));
  row.set("x_differs_vs_serial", differs);
  std::printf(
      "# diagonal n=%zu problems=%zu seconds=%.4f serial_seconds=%.4f "
      "sweeps=%lld serial_passes=%lld x_differs=%zu\n",
      n, count, seconds, serial_seconds,
      static_cast<long long>(metrics.counter("qp.diagonal.sweeps")),
      static_cast<long long>(metrics.counter("qp.diagonal.serial_passes")),
      differs);
  if (differs != 0) {
    std::fprintf(stderr,
                 "qp_solvers: solve_diagonal_qp differs from the serial "
                 "bisection in %zu entries\n",
                 differs);
    std::abort();
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off our own flag before handing argv to google-benchmark.
  std::string metrics_path;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  obs::JsonValue report = obs::JsonValue::object();
  report.set("bench", "qp_solvers");
  {
    obs::Session session(&tracer, &metrics);
    report.set("cache_sweep", run_cache_sweep());
  }
  report.set("diagonal", run_diagonal(10));
  report.set("metrics", obs::metrics_json(metrics));
  obs::write_json_file("BENCH_qp.json", report);
  std::printf("# report written to BENCH_qp.json\n");
  if (!metrics_path.empty()) {
    obs::write_json_file(metrics_path, obs::metrics_json(metrics));
    std::printf("# metrics written to %s\n", metrics_path.c_str());
  }
  return 0;
}
