// Exact solver for diagonal-Q QPs with a box and one equality constraint.
//
//   min_x  1/2 sum_i d_i x_i^2 - p^T x
//   s.t.   0 <= x_i <= C,    y^T x = delta,    d_i > 0,  y_i in {-1,+1}
//
// This shape arises as the dual of the vertical-partitioning reducer step
// (paper eq. (29)): the hinge proximal operator over z has an identity-like
// quadratic term, so the dual Q is diagonal and the problem separates given
// the equality multiplier nu. KKT gives x_i(nu) = clip((p_i - nu*y_i)/d_i),
// and h(nu) = y^T x(nu) is monotone non-increasing, so nu is found by
// bisection to machine precision.
#pragma once

#include "qp/qp.h"

namespace ppml::qp {

struct DiagonalQpProblem {
  Vector d;        ///< strictly positive diagonal of Q
  Vector p;        ///< linear term
  Vector y;        ///< entries in {-1, +1}
  double c = 1.0;  ///< upper box bound
  double delta = 0.0;  ///< equality right-hand side
};

/// Exact solve by bisection on the equality multiplier. Throws
/// InvalidArgument when the constraint set is empty.
Result solve_diagonal_qp(const DiagonalQpProblem& problem,
                         double tolerance = 1e-12);

/// What a solve works in: the fast pass's term buffers and the result. A
/// caller that solves every round (the vertical reducer) keeps one, so
/// only its first solve at a size allocates.
struct DiagonalQpWorkspace {
  std::vector<double> terms;  ///< lo, hi, mid, then packed p, y, d
  Result result;
};

/// The same solve, in `workspace`; returns workspace.result (every field
/// rewritten, x in its kept buffer).
const Result& solve_diagonal_qp(const DiagonalQpProblem& problem,
                                DiagonalQpWorkspace& workspace,
                                double tolerance = 1e-12);

}  // namespace ppml::qp
