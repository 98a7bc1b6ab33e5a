#include "qp/diagonal_qp.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "linalg/microkernel.h"
#include "obs/obs.h"

namespace ppml::qp {

#if defined(PPML_HAVE_AVX2)
// Defined in diagonal_qp_avx2.cpp (compiled with -mavx2).
double diagonal_terms_avx2(const double* p, const double* y, const double* d,
                           std::size_t n, double nu, double c, double* terms,
                           double* abs_sum, const double* lo, const double* hi,
                           std::size_t* ties) noexcept;
std::size_t diagonal_pack_avx2(const double* const in[3],
                               double* const out[3], double* lo, double* hi,
                               std::size_t n, double* retired) noexcept;
#endif

namespace {
double clip(double v, double lo, double hi) {
  return std::min(std::max(v, lo), hi);
}

#if defined(PPML_HAVE_AVX2)
// Below this |t| sum the certificate's bound could underflow; such
// evaluations always take the serial pass.
constexpr double kMinCertifiedScale = 0x1p-960;

/// The fast pass's view of the terms t_i(nu). Every computed term is a
/// non-increasing function of nu: nu * y_i is exact, and the subtraction,
/// the division by d_i > 0, the clip and the sign y_i are all monotone
/// under round-to-nearest. So once an element's terms at lo and at hi are
/// equal, its term is that value for every nu in [lo, hi]: it retires into
/// a running sum, and only the active elements are evaluated again. This
/// changes the summation tree of the fast sum, never the terms it sums.
/// Depth of that tree: an active term takes part in at most n/8 + 7
/// additions; a retired one in at most n/4 + 6 inside its packing pass,
/// one more per later pass and one in sum(). Each pass after the first
/// retires at least one element and an eighth of the active ones, so there
/// are at most P = 1 + min(n, 1 + log_{8/7} n) passes, and n/4 + 6 + P is
/// at most n + 16 for every n.
class FastTerms {
 public:
  /// `storage` holds at least 6n doubles (DiagonalQpWorkspace::terms).
  FastTerms(const DiagonalQpProblem& problem, double* storage)
      : n_(problem.d.size()),
        active_(n_),
        p_(problem.p.data()),
        y_(problem.y.data()),
        d_(problem.d.data()),
        c_(problem.c),
        lo_(storage),
        hi_(lo_ + n_),
        mid_(hi_ + n_),
        packed_(mid_ + n_) {}

  /// Sum of all n terms at nu, and of their |t_i| in *abs_sum. Leaves the
  /// active elements' terms in the mid buffer and, once lo and hi are
  /// known, counts the elements that would retire if nu became lo or hi.
  double sum(double nu, double* abs_sum) {
    const bool bracketed = have_lo_ && have_hi_;
    double active_abs = 0.0;
    const double active_sum = diagonal_terms_avx2(
        p_, y_, d_, active_, nu, c_, mid_, &active_abs,
        bracketed ? lo_ : nullptr, hi_, ties_);
    *abs_sum = retired_[1] + active_abs;
    return retired_[0] + active_sum;
  }

  /// The last sum() was taken at the new lo (or hi). Once both ends are
  /// known, retires the elements whose terms at lo and hi are equal: right
  /// after bracketing, and then whenever at least an eighth of the active
  /// ones would go, so that packing pays for itself. Elements left active
  /// when they could retire cost time, never correctness.
  void moved(bool lo) {
    const bool bracketed = have_lo_ && have_hi_;
    std::swap(lo ? lo_ : hi_, mid_);
    (lo ? have_lo_ : have_hi_) = true;
    if (!have_lo_ || !have_hi_) return;
    const std::size_t retiring = lo ? ties_[0] : ties_[1];
    if (!bracketed || (retiring > 0 && 8 * retiring >= active_)) narrow();
  }

 private:
  /// Packs the elements still active to the front of packed storage
  /// (copied out of the problem on the first call, in place after that).
  void narrow() {
    const double* const in[3] = {p_, y_, d_};
    double* const out[3] = {packed_, packed_ + n_, packed_ + 2 * n_};
    active_ = diagonal_pack_avx2(in, out, lo_, hi_, active_, retired_);
    p_ = out[0];
    y_ = out[1];
    d_ = out[2];
  }

  std::size_t n_;
  std::size_t active_;  ///< leading elements of p_, y_, d_, lo_, hi_
  const double* p_;
  const double* y_;
  const double* d_;
  double c_;
  double* lo_;  ///< storage: lo, hi, mid, then packed p, y, d
  double* hi_;
  double* mid_;
  double* packed_;
  bool have_lo_ = false;
  bool have_hi_ = false;
  std::size_t ties_[2] = {0, 0};  ///< #(t == t_hi), #(t_lo == t) at last nu
  double retired_[2] = {0.0, 0.0};  ///< sum of retired t_i, of |t_i|
};
#endif
}  // namespace

Result solve_diagonal_qp(const DiagonalQpProblem& problem, double tolerance) {
  DiagonalQpWorkspace workspace;
  solve_diagonal_qp(problem, workspace, tolerance);
  return std::move(workspace.result);
}

const Result& solve_diagonal_qp(const DiagonalQpProblem& problem,
                                DiagonalQpWorkspace& workspace,
                                double tolerance) {
  const std::size_t n = problem.d.size();
  PPML_CHECK(problem.p.size() == n && problem.y.size() == n,
             "solve_diagonal_qp: size mismatch");
  PPML_CHECK(problem.c >= 0.0, "solve_diagonal_qp: C must be non-negative");
  std::size_t n_pos = 0;
  for (std::size_t i = 0; i < n; ++i) {
    PPML_CHECK(problem.d[i] > 0.0, "solve_diagonal_qp: d must be positive");
    // One test per label: a branch on the label's sign mispredicts on
    // shuffled data, and this loop runs before every solve.
    PPML_CHECK(std::abs(problem.y[i]) == 1.0,
               "solve_diagonal_qp: labels must be +/-1");
    n_pos += problem.y[i] > 0.0 ? 1 : 0;
  }
  const std::size_t n_neg = n - n_pos;
  PPML_CHECK(problem.delta <= problem.c * static_cast<double>(n_pos) + 1e-12 &&
                 problem.delta >=
                     -problem.c * static_cast<double>(n_neg) - 1e-12,
             "solve_diagonal_qp: equality constraint infeasible");

  const auto x_of_nu = [&](double nu, Vector& x) {
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = clip((problem.p[i] - nu * problem.y[i]) / problem.d[i], 0.0,
                  problem.c);
    }
  };
  const auto h = [&](double nu, Vector& x) {
    x_of_nu(nu, x);
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) acc += problem.y[i] * x[i];
    return acc;
  };

  // The bisection only ever asks which side of delta h(nu) lies on. At the
  // AVX2 level and above a lane-summed fast pass answers first: its terms
  // are the serial terms bit for bit, and both its sum and the serial sum
  // lie within gamma_N * S of the exact sum, S = sum |t_i| (Higham, Accuracy
  // and Stability, 4.2). gamma_N = N u / (1 - N u), u = 2^-53, with
  // N = n + 16 bounding the depth of either summation tree. When
  // |h_fast - delta| clears 2 gamma_N S_hat (1 + 2 gamma_N) — S_hat is the
  // computed S, and the (1 + 2 gamma_N) factor covers S_hat's own error
  // and the rounding of this test — the serial sum lies strictly on the
  // same side of delta, so h_fast is returned in its place: every
  // comparison against delta decides as the serial sum would. Otherwise,
  // or when a sum is not finite, the serial pass h runs. Same decisions,
  // same nu, same x.
  double lo = -1.0;
  double hi = 1.0;
  std::size_t serial_passes = 0;
#if defined(PPML_HAVE_AVX2)
  const double n_u = static_cast<double>(n + 16) * 0x1p-53;
  const double gamma = n_u / (1.0 - n_u);
  std::optional<FastTerms> fast;
  if (linalg::active_isa() >= linalg::Isa::kAvx2) {
    if (workspace.terms.size() < 6 * n) workspace.terms.resize(6 * n);
    fast.emplace(problem, workspace.terms.data());
  }
#endif
  const auto decide = [&](double nu, Vector& x) {
#if defined(PPML_HAVE_AVX2)
    // Retired terms hold only inside [lo, hi]; a nu outside it (an
    // overflowed midpoint) ends the fast pass for this solve.
    if (fast && !(lo <= nu && nu <= hi)) fast.reset();
    if (fast) {
      double abs_sum = 0.0;
      const double sum = fast->sum(nu, &abs_sum);
      if (std::isfinite(sum) && std::isfinite(abs_sum) &&
          abs_sum >= kMinCertifiedScale &&
          std::abs(sum - problem.delta) >
              2.0 * gamma * abs_sum * (1.0 + 2.0 * gamma))
        return sum;
    }
#endif
    ++serial_passes;
    return h(nu, x);
  };
  // The last evaluation was at the new lo (or hi).
  const auto moved = [&]([[maybe_unused]] bool lo_moved) {
#if defined(PPML_HAVE_AVX2)
    if (fast) fast->moved(lo_moved);
#endif
  };

  Result& result = workspace.result;
  result.g.clear();
  result.iterations = 0;
  Vector& x = result.x;
  x.assign(n, 0.0);
  // Bracket nu: h is non-increasing, h(-inf) = +C*n_pos, h(+inf) = -C*n_neg.
  while (decide(lo, x) < problem.delta && std::isfinite(lo)) lo *= 2.0;
  moved(true);
  while (decide(hi, x) > problem.delta && std::isfinite(hi)) hi *= 2.0;
  moved(false);

  for (int iter = 0; iter < 200; ++iter) {
    ++result.iterations;
    const double mid = 0.5 * (lo + hi);
    const double value = decide(mid, x);
    if (value > problem.delta) {
      lo = mid;
    } else {
      hi = mid;
    }
    moved(value > problem.delta);
    if (hi - lo <= tolerance * (1.0 + std::abs(lo) + std::abs(hi))) break;
  }
  const double nu = 0.5 * (lo + hi);
  x_of_nu(nu, x);

  double constraint = 0.0;
  double objective = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    constraint += problem.y[i] * x[i];
    objective += 0.5 * problem.d[i] * x[i] * x[i] - problem.p[i] * x[i];
  }
  result.kkt_violation = std::abs(constraint - problem.delta);
  result.converged = result.kkt_violation <= 1e-6 * (1.0 + std::abs(problem.delta));
  result.objective = objective;
  obs::count("qp.diagonal.solves");
  obs::count("qp.diagonal.sweeps",
             static_cast<std::int64_t>(result.iterations));
  obs::count("qp.diagonal.serial_passes",
             static_cast<std::int64_t>(serial_passes));
  obs::observe("qp.kkt_violation", result.kkt_violation);
  return result;
}

}  // namespace ppml::qp
