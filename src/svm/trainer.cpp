#include "svm/trainer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/blas.h"
#include "qp/smo.h"

namespace ppml::svm {

double recover_bias(std::span<const double> lambda, std::span<const double> y,
                    std::span<const double> f0, double c) {
  PPML_CHECK(lambda.size() == y.size() && y.size() == f0.size(),
             "recover_bias: size mismatch");
  const double eps = 1e-8 * std::max(1.0, c);
  double free_sum = 0.0;
  std::size_t free_count = 0;
  double lower = -std::numeric_limits<double>::infinity();
  double upper = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < lambda.size(); ++i) {
    const double v = y[i] - f0[i];  // b that puts sample i exactly on margin
    const bool at_zero = lambda[i] <= eps;
    const bool at_c = lambda[i] >= c - eps;
    if (!at_zero && !at_c) {
      free_sum += v;
      ++free_count;
    } else if (at_zero) {
      // y_i (f0_i + b) >= 1
      if (y[i] > 0.0) lower = std::max(lower, v);
      else upper = std::min(upper, v);
    } else {
      // y_i (f0_i + b) <= 1
      if (y[i] > 0.0) upper = std::min(upper, v);
      else lower = std::max(lower, v);
    }
  }
  if (free_count > 0) return free_sum / static_cast<double>(free_count);
  if (std::isfinite(lower) && std::isfinite(upper))
    return 0.5 * (lower + upper);
  if (std::isfinite(lower)) return lower;
  if (std::isfinite(upper)) return upper;
  return 0.0;
}

namespace {

/// Solve the SVM dual for a given Gram matrix K (K_ij = <phi(x_i), phi(x_j)>).
qp::Result solve_dual(const Matrix& k, const Vector& y,
                      const TrainOptions& options) {
  const std::size_t n = y.size();
  qp::SmoProblem problem;
  problem.q.resize(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      problem.q(i, j) = y[i] * y[j] * k(i, j);
  problem.p.assign(n, 1.0);
  problem.y = y;
  problem.c = options.c;
  problem.delta = 0.0;
  qp::Options qp_options;
  qp_options.tolerance = options.tolerance;
  qp_options.max_iterations = options.max_iterations;
  return qp::solve_smo(problem, qp_options);
}

void fill_diagnostics(TrainDiagnostics* diagnostics, const qp::Result& result,
                      std::size_t support) {
  if (diagnostics == nullptr) return;
  diagnostics->iterations = result.iterations;
  diagnostics->converged = result.converged;
  diagnostics->dual_objective = result.objective;
  diagnostics->support_vectors = support;
}

}  // namespace

LinearModel train_linear_svm(const data::Dataset& dataset,
                             const TrainOptions& options,
                             TrainDiagnostics* diagnostics) {
  dataset.validate();
  PPML_CHECK(dataset.size() >= 2 && dataset.features() >= 1,
             "train_linear_svm: need >= 2 rows and >= 1 feature");
  PPML_CHECK(options.c > 0.0, "train_linear_svm: C must be positive");
  const Matrix k = linalg::gram_a_at(dataset.x);
  const qp::Result result = solve_dual(k, dataset.y, options);

  LinearModel model;
  model.w.assign(dataset.features(), 0.0);
  std::size_t support = 0;
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const double coeff = result.x[i] * dataset.y[i];
    if (result.x[i] > 1e-9) ++support;
    if (coeff != 0.0) linalg::axpy(coeff, dataset.x.row(i), model.w);
  }
  // f0_i = <w, x_i> without bias.
  Vector f0 = linalg::gemv(dataset.x, model.w);
  model.b = recover_bias(result.x, dataset.y, f0, options.c);
  fill_diagnostics(diagnostics, result, support);
  return model;
}

KernelModel train_kernel_svm(const data::Dataset& dataset,
                             const Kernel& kernel,
                             const TrainOptions& options,
                             TrainDiagnostics* diagnostics) {
  dataset.validate();
  PPML_CHECK(dataset.size() >= 2 && dataset.features() >= 1,
             "train_kernel_svm: need >= 2 rows and >= 1 feature");
  PPML_CHECK(options.c > 0.0, "train_kernel_svm: C must be positive");
  // Never materialize the n x n Gram: SMO pulls rows of Q_ij = y_i y_j K_ij
  // through an LRU cache. The row fill rides the SIMD-dispatched
  // kernel_row, then applies the same y_i*y_j scaling as the dense builder
  // in solve_dual — term for term, so the cached solve is bit-identical to
  // the dense one at every ISA level (pinned by svm_test).
  const std::size_t n = dataset.size();
  const Matrix& x = dataset.x;
  const Vector& y = dataset.y;
  qp::KernelCache cache(
      n,
      [&](std::size_t i, std::span<double> out) {
        kernel_row(kernel, x.row(i), x, out);
        for (std::size_t j = 0; j < n; ++j) out[j] = y[i] * y[j] * out[j];
      },
      options.kernel_cache_bytes);
  qp::Options qp_options;
  qp_options.tolerance = options.tolerance;
  qp_options.max_iterations = options.max_iterations;
  const Vector p(n, 1.0);
  const qp::Result result =
      qp::solve_smo(cache, p, y, options.c, /*delta=*/0.0, qp_options);
  // Flush qp.cache.* while the caller's obs session is guaranteed to still
  // be installed — the cache object itself may be destroyed after
  // obs::uninstall(), where a destructor-time flush finds no registry.
  cache.flush_stats();

  // f0_i = sum_j lambda_j y_j K_ij, recovered from the solver's final
  // gradient: g = Qx - p with Q_ij = y_i y_j K_ij gives
  // f0_i = y_i (g_i + p_i) — no kernel re-evaluation needed.
  Vector coeff_full(n);
  for (std::size_t j = 0; j < n; ++j)
    coeff_full[j] = result.x[j] * dataset.y[j];
  Vector f0(n);
  for (std::size_t i = 0; i < n; ++i)
    f0[i] = dataset.y[i] * (result.g[i] + 1.0);
  const double bias = recover_bias(result.x, dataset.y, f0, options.c);

  // Keep only support vectors in the model.
  std::vector<std::size_t> support_rows;
  for (std::size_t i = 0; i < dataset.size(); ++i)
    if (result.x[i] > 1e-9) support_rows.push_back(i);

  KernelModel model;
  model.kernel = kernel;
  model.b = bias;
  model.points.resize(support_rows.size(), dataset.features());
  model.coeffs.resize(support_rows.size());
  for (std::size_t r = 0; r < support_rows.size(); ++r) {
    const std::size_t i = support_rows[r];
    std::copy(dataset.x.row(i).begin(), dataset.x.row(i).end(),
              model.points.row(r).begin());
    model.coeffs[r] = coeff_full[i];
  }
  fill_diagnostics(diagnostics, result, support_rows.size());
  return model;
}

}  // namespace ppml::svm
