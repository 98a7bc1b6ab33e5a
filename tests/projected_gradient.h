// Projected-gradient solver with Barzilai–Borwein steps for box QPs.
//
// Independent of the coordinate-descent solver; a test oracle that
// cross-checks its minimizers (qp_test), and the "standard QP solver"
// comparison row of bench/qp_solvers. No library code calls it.
#pragma once

#include <algorithm>
#include <cmath>

#include "linalg/blas.h"
#include "qp/qp.h"

namespace ppml::qp {

namespace pg_detail {
inline void project(Vector& x, double lo, double hi) {
  for (double& v : x) v = std::min(std::max(v, lo), hi);
}

inline double projected_gradient_norm(const Vector& x, const Vector& g,
                                      double lo, double hi) {
  double worst = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    double violation;
    if (x[i] <= lo) {
      violation = std::max(0.0, -g[i]);
    } else if (x[i] >= hi) {
      violation = std::max(0.0, g[i]);
    } else {
      violation = std::abs(g[i]);
    }
    worst = std::max(worst, violation);
  }
  return worst;
}
}  // namespace pg_detail

/// Minimize 1/2 x^T Q x - p^T x over the box [lo, hi]^n using spectral
/// projected gradient (BB step lengths, non-monotone safeguarding is not
/// needed for convex quadratics).
inline Result solve_box_qp_projected_gradient(const Matrix& q,
                                              std::span<const double> p,
                                              double lo, double hi,
                                              const Options& options = {}) {
  using pg_detail::project;
  using pg_detail::projected_gradient_norm;
  const std::size_t n = q.rows();
  PPML_CHECK(q.cols() == n, "projected_gradient: Q must be square");
  PPML_CHECK(p.size() == n, "projected_gradient: p size mismatch");
  PPML_CHECK(lo <= hi, "projected_gradient: empty box");

  Result result;
  Vector x(n, 0.0);
  project(x, lo, hi);
  Vector g = linalg::gemv(q, x);
  linalg::axpy(-1.0, p, g);

  double step = 1.0;
  // Initial step from the diagonal scale of Q.
  double diag_max = 0.0;
  for (std::size_t i = 0; i < n; ++i) diag_max = std::max(diag_max, q(i, i));
  if (diag_max > 0.0) step = 1.0 / diag_max;

  Vector x_prev = x;
  Vector g_prev = g;
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    ++result.iterations;
    result.kkt_violation = projected_gradient_norm(x, g, lo, hi);
    if (result.kkt_violation <= options.tolerance) {
      result.converged = true;
      break;
    }
    x_prev = x;
    g_prev = g;
    linalg::axpy(-step, g, x);
    project(x, lo, hi);
    g = linalg::gemv(q, x);
    linalg::axpy(-1.0, p, g);

    // Barzilai–Borwein step length: step = <s,s>/<s,y>.
    const Vector s = linalg::sub(x, x_prev);
    const Vector y = linalg::sub(g, g_prev);
    const double sy = linalg::dot(s, y);
    const double ss = linalg::squared_norm(s);
    if (sy > 1e-16 && ss > 0.0) {
      step = std::clamp(ss / sy, 1e-10, 1e10);
    }
    if (ss == 0.0) {
      // Projection returned the same point: we are at a stationary point.
      result.kkt_violation = projected_gradient_norm(x, g, lo, hi);
      result.converged = result.kkt_violation <= options.tolerance;
      break;
    }
  }
  result.objective = objective_value(q, p, x);
  result.x = std::move(x);
  return result;
}

}  // namespace ppml::qp
