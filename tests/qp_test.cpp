#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <random>
#include <string>

#include "linalg/blas.h"
#include "linalg/microkernel.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "qp/box_qp.h"
#include "qp/diagonal_qp.h"
#include "qp/factored_qp.h"
#include "projected_gradient.h"
#include "qp/smo.h"

namespace ppml::qp {
namespace {

using linalg::Matrix;
using linalg::Vector;

/// Random SPD Q of size n with condition roughly controlled by the ridge.
Matrix random_spd(std::size_t n, std::uint64_t seed, double ridge = 0.5) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> normal;
  Matrix b(n, n);
  for (double& v : b.data()) v = normal(rng);
  Matrix q = linalg::gram_a_at(b);
  for (std::size_t i = 0; i < n; ++i) q(i, i) += ridge;
  return q;
}

Vector random_vector(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> normal;
  Vector p(n);
  for (double& v : p) v = normal(rng);
  return p;
}

TEST(ObjectiveValue, MatchesHandComputation) {
  Matrix q{{2.0, 0.0}, {0.0, 4.0}};
  Vector p{1.0, 1.0};
  Vector x{1.0, 2.0};
  // 1/2 (2 + 16) - 3 = 6.
  EXPECT_DOUBLE_EQ(objective_value(q, p, x), 6.0);
}

TEST(BoxQp, UnconstrainedInteriorSolution) {
  // min 1/2 x^T Q x - p^T x with solution Q^{-1} p inside a huge box.
  Matrix q{{3.0, 1.0}, {1.0, 2.0}};
  Vector p{1.0, 1.0};
  const Result r = solve_box_qp(q, p, -100.0, 100.0);
  EXPECT_TRUE(r.converged);
  // Q^{-1} p = [1, 2; ... ] solve by hand: det=5, x = (1/5)[2-1, -1+3] = [0.2, 0.4].
  EXPECT_NEAR(r.x[0], 0.2, 1e-6);
  EXPECT_NEAR(r.x[1], 0.4, 1e-6);
}

TEST(BoxQp, ClipsToActiveBounds) {
  Matrix q{{1.0, 0.0}, {0.0, 1.0}};
  Vector p{10.0, -10.0};  // unconstrained solution (10, -10)
  const Result r = solve_box_qp(q, p, 0.0, 1.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 1.0, 1e-9);
  EXPECT_NEAR(r.x[1], 0.0, 1e-9);
}

TEST(BoxQp, EmptyBoxThrows) {
  EXPECT_THROW(BoxQpSolver(Matrix::identity(2), 1.0, 0.0), InvalidArgument);
}

TEST(BoxQp, NonSquareThrows) {
  EXPECT_THROW(BoxQpSolver(Matrix(2, 3), 0.0, 1.0), InvalidArgument);
}

TEST(BoxQp, WarmStartReducesSweeps) {
  const std::size_t n = 60;
  const Matrix q = random_spd(n, 11);
  const Vector p = random_vector(n, 12);
  BoxQpSolver solver(q, 0.0, 5.0);
  const Result cold = solver.solve(p);
  ASSERT_TRUE(cold.converged);

  // Perturb p slightly; warm start from the previous solution.
  Vector p2 = p;
  for (double& v : p2) v += 1e-3;
  const Result cold2 = solver.solve(p2);
  const Result warm = solver.solve(p2, cold.x);
  ASSERT_TRUE(warm.converged);
  EXPECT_LE(warm.iterations, cold2.iterations);
  EXPECT_NEAR(warm.objective, cold2.objective, 1e-6);
}

TEST(BoxQp, DegenerateZeroRowMovesToFavoredBound) {
  Matrix q(2, 2);  // zero matrix: objective is linear
  Vector p{1.0, -1.0};
  const Result r = solve_box_qp(q, p, 0.0, 2.0);
  EXPECT_NEAR(r.x[0], 2.0, 1e-12);  // -p^T x minimized at upper bound
  EXPECT_NEAR(r.x[1], 0.0, 1e-12);
}

class BoxQpCrossCheck
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(BoxQpCrossCheck, CoordinateDescentMatchesProjectedGradient) {
  const auto [n, seed] = GetParam();
  const Matrix q = random_spd(n, seed);
  const Vector p = random_vector(n, seed ^ 0xabc);
  Options options;
  options.tolerance = 1e-8;
  options.max_iterations = 50'000;
  const Result cd = solve_box_qp(q, p, 0.0, 1.0, options);
  const Result pg = solve_box_qp_projected_gradient(q, p, 0.0, 1.0, options);
  ASSERT_TRUE(cd.converged);
  ASSERT_TRUE(pg.converged);
  // Strictly convex => unique minimizer; both solvers must agree.
  EXPECT_NEAR(cd.objective, pg.objective, 1e-6);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(cd.x[i], pg.x[i], 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    RandomProblems, BoxQpCrossCheck,
    ::testing::Combine(::testing::Values(2, 5, 10, 25, 60),
                       ::testing::Values(1u, 2u, 3u)));

// ------------------------------------------------------------ factored QP

/// Random n x k data matrix (rows = data points).
Matrix random_rows(std::size_t n, std::size_t k, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> normal;
  Matrix x(n, k);
  for (double& v : x.data()) v = normal(rng);
  return x;
}

Vector random_signs(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Vector s(n);
  for (double& v : s) v = (rng() & 1u) != 0 ? 1.0 : -1.0;
  return s;
}

/// Materialize Q = alpha (SX)(SX)^T + beta s s^T as the dense oracle.
Matrix materialize_factored_q(const Matrix& x, const Vector& s, double alpha,
                              double beta) {
  const std::size_t n = x.rows();
  Matrix q(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      q(i, j) =
          s[i] * s[j] * (alpha * linalg::dot(x.row(i), x.row(j)) + beta);
  return q;
}

class FactoredQpRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FactoredQpRandom, AgreesWithDenseBoxSolver) {
  const std::uint64_t seed = GetParam();
  // k > n keeps alpha (SX)(SX)^T full rank, so the minimizer is unique and
  // both representations must land on it.
  const std::size_t n = 24;
  const std::size_t k = 30;
  const Matrix x = random_rows(n, k, seed);
  const Vector s = random_signs(n, seed ^ 0x5eed);
  const double alpha = 0.8;
  const double beta = 0.25;
  const Vector p = random_vector(n, seed ^ 0xabc);

  Options options;
  options.tolerance = 1e-10;
  options.max_iterations = 100'000;

  BoxQpSolver dense(materialize_factored_q(x, s, alpha, beta), 0.0, 2.0);
  FactoredBoxQpSolver factored(x, s, alpha, beta, 0.0, 2.0);
  const Result a = dense.solve(p, std::nullopt, options);
  const Result b = factored.solve(p, std::nullopt, options);
  ASSERT_TRUE(a.converged);
  ASSERT_TRUE(b.converged);
  // Same problem through two representations: agreement to tolerance, not
  // bit-identity — the accumulation orders differ by design.
  EXPECT_NEAR(a.objective, b.objective, 1e-7);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(a.x[i], b.x[i], 1e-5) << i;
}

INSTANTIATE_TEST_SUITE_P(MultiSeed, FactoredQpRandom,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u));

TEST(FactoredQp, RepeatSolvesAreBitIdentical) {
  const Matrix x = random_rows(20, 8, 9);
  const Vector s = random_signs(20, 10);
  FactoredBoxQpSolver solver(x, s, 0.7, 0.3, 0.0, 1.5);
  const Vector p = random_vector(20, 11);
  const Result a = solver.solve(p);
  const Result b = solver.solve(p);
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(FactoredQp, DegenerateZeroRowMovesToFavoredBound) {
  Matrix x(2, 3);  // all-zero rows with beta = 0: the objective is linear
  Vector s{1.0, -1.0};
  FactoredBoxQpSolver solver(x, s, 1.0, 0.0, 0.0, 2.0);
  const Result r = solver.solve(Vector{1.0, -1.0});
  EXPECT_NEAR(r.x[0], 2.0, 1e-12);  // -p^T x minimized at the upper bound
  EXPECT_NEAR(r.x[1], 0.0, 1e-12);
}

TEST(FactoredQp, WarmStartReducesSweeps) {
  const std::size_t n = 40;
  const Matrix x = random_rows(n, 50, 21);
  const Vector s = random_signs(n, 22);
  FactoredBoxQpSolver solver(x, s, 1.0, 0.2, 0.0, 5.0);
  const Vector p = random_vector(n, 23);
  const Result cold = solver.solve(p);
  ASSERT_TRUE(cold.converged);

  Vector p2 = p;
  for (double& v : p2) v += 1e-3;
  const Result cold2 = solver.solve(p2);
  const Result warm = solver.solve(p2, cold.x);
  ASSERT_TRUE(warm.converged);
  EXPECT_LE(warm.iterations, cold2.iterations);
  EXPECT_NEAR(warm.objective, cold2.objective, 1e-6);
}

TEST(FactoredQp, ValidatesInputs) {
  Matrix x(3, 2);
  EXPECT_THROW(FactoredBoxQpSolver(x, Vector{1.0, -1.0}, 1.0, 0.0, 0.0, 1.0),
               InvalidArgument);  // s size mismatch
  EXPECT_THROW(FactoredBoxQpSolver(x, Vector{1.0, 1.0, 1.0}, 1.0, 0.0, 1.0,
                                   0.0),
               InvalidArgument);  // empty box
  EXPECT_THROW(FactoredBoxQpSolver(x, Vector{1.0, 1.0, 1.0}, -1.0, 0.0, 0.0,
                                   1.0),
               InvalidArgument);  // indefinite Q
}

TEST(ProjectedGradient, HandlesAllActiveBox) {
  Matrix q = Matrix::identity(3);
  Vector p{5.0, 5.0, 5.0};
  const Result r = solve_box_qp_projected_gradient(q, p, 0.0, 1.0);
  EXPECT_TRUE(r.converged);
  for (double v : r.x) EXPECT_NEAR(v, 1.0, 1e-9);
}

// ------------------------------------------------------------------ SMO

/// Brute-force reference for tiny SVM duals: grid search over the box
/// surface satisfying the equality constraint (2 variables).
TEST(Smo, TwoVariableProblemMatchesClosedForm) {
  // min 1/2 x^T Q x - 1^T x, y = (+1, -1), y^T x = 0 => x1 = x2 = t.
  // Objective: 1/2 t^2 (q11 + q22 - 2 q12*y1y2=... ) with y1y2=-1.
  Matrix q{{2.0, 0.5}, {0.5, 1.0}};
  SmoProblem problem{q, Vector{1.0, 1.0}, Vector{1.0, -1.0}, 10.0, 0.0};
  const Result r = solve_smo(problem);
  ASSERT_TRUE(r.converged);
  // With x = (t, t): f(t) = 1/2 t^2 (2 + 1 + 2*0.5) - 2t = 2t^2 - 2t,
  // minimized at t = 0.5.
  EXPECT_NEAR(r.x[0], 0.5, 1e-6);
  EXPECT_NEAR(r.x[1], 0.5, 1e-6);
}

TEST(Smo, RespectsEqualityConstraint) {
  const std::size_t n = 20;
  const Matrix q = random_spd(n, 5);
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = i % 2 == 0 ? 1.0 : -1.0;
  SmoProblem problem{q, Vector(n, 1.0), y, 3.0, 0.0};
  const Result r = solve_smo(problem);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(linalg::dot(y, r.x), 0.0, 1e-9);
  for (double v : r.x) {
    EXPECT_GE(v, -1e-12);
    EXPECT_LE(v, 3.0 + 1e-12);
  }
}

TEST(Smo, NonzeroDeltaFeasibleStart) {
  const std::size_t n = 10;
  const Matrix q = random_spd(n, 6);
  Vector y(n, 1.0);
  y[0] = -1.0;
  SmoProblem problem{q, Vector(n, 1.0), y, 2.0, 3.5};
  const Result r = solve_smo(problem);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(linalg::dot(y, r.x), 3.5, 1e-9);
}

TEST(Smo, InfeasibleDeltaThrows) {
  SmoProblem problem{Matrix::identity(2), Vector{1.0, 1.0},
                     Vector{1.0, 1.0}, 1.0, 5.0};  // max y^T x = 2 < 5
  EXPECT_THROW(solve_smo(problem), InvalidArgument);
}

TEST(Smo, RejectsBadLabels) {
  SmoProblem problem{Matrix::identity(2), Vector{1.0, 1.0},
                     Vector{1.0, 0.5}, 1.0, 0.0};
  EXPECT_THROW(solve_smo(problem), InvalidArgument);
}

TEST(Smo, AgreesWithBoxSolverWhenConstraintInactive) {
  // If the unconstrained-in-the-equality optimum happens to satisfy
  // y^T x = 0, SMO and a plain box solve agree. Build symmetric problem.
  Matrix q{{2.0, 0.0, 0.0, 0.0},
           {0.0, 2.0, 0.0, 0.0},
           {0.0, 0.0, 2.0, 0.0},
           {0.0, 0.0, 0.0, 2.0}};
  Vector p{1.0, 1.0, 1.0, 1.0};
  Vector y{1.0, -1.0, 1.0, -1.0};
  const Result smo = solve_smo(SmoProblem{q, p, y, 10.0, 0.0});
  const Result box = solve_box_qp(q, p, 0.0, 10.0);
  ASSERT_TRUE(smo.converged);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(smo.x[i], box.x[i], 1e-6);
}

// ----------------------------------------------------------- diagonal QP

TEST(DiagonalQp, MatchesSmoOnDiagonalProblems) {
  const std::size_t n = 30;
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> uniform(0.5, 2.0);
  DiagonalQpProblem problem;
  problem.d.resize(n);
  for (double& v : problem.d) v = uniform(rng);
  problem.p = random_vector(n, 8);
  problem.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) problem.y[i] = i % 2 == 0 ? 1.0 : -1.0;
  problem.c = 1.5;
  problem.delta = 0.0;

  const Result exact = solve_diagonal_qp(problem);
  ASSERT_TRUE(exact.converged);

  Matrix q(n, n);
  for (std::size_t i = 0; i < n; ++i) q(i, i) = problem.d[i];
  const Result smo = solve_smo(
      SmoProblem{q, problem.p, problem.y, problem.c, 0.0});
  ASSERT_TRUE(smo.converged);
  EXPECT_NEAR(exact.objective, smo.objective, 1e-6);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(exact.x[i], smo.x[i], 1e-4);
}

TEST(DiagonalQp, SatisfiesEqualityExactly) {
  DiagonalQpProblem problem;
  problem.d = {1.0, 2.0, 3.0, 4.0};
  problem.p = {0.5, -0.2, 1.4, 2.0};
  problem.y = {1.0, -1.0, -1.0, 1.0};
  problem.c = 1.0;
  problem.delta = 0.7;
  const Result r = solve_diagonal_qp(problem);
  double acc = 0.0;
  for (std::size_t i = 0; i < 4; ++i) acc += problem.y[i] * r.x[i];
  EXPECT_NEAR(acc, 0.7, 1e-9);
}

TEST(DiagonalQp, InfeasibleThrows) {
  DiagonalQpProblem problem;
  problem.d = {1.0, 1.0};
  problem.p = {0.0, 0.0};
  problem.y = {1.0, 1.0};
  problem.c = 1.0;
  problem.delta = -0.5;  // y^T x >= 0 always here
  EXPECT_THROW(solve_diagonal_qp(problem), InvalidArgument);
}

TEST(DiagonalQp, RejectsNonPositiveDiagonal) {
  DiagonalQpProblem problem;
  problem.d = {1.0, 0.0};
  problem.p = {0.0, 0.0};
  problem.y = {1.0, -1.0};
  EXPECT_THROW(solve_diagonal_qp(problem), InvalidArgument);
}

class DiagonalQpRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DiagonalQpRandom, KktHolds) {
  const std::uint64_t seed = GetParam();
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uniform(0.2, 3.0);
  const std::size_t n = 50;
  DiagonalQpProblem problem;
  problem.d.resize(n);
  for (double& v : problem.d) v = uniform(rng);
  problem.p = random_vector(n, seed ^ 0x77);
  problem.y.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    problem.y[i] = (rng() & 1) != 0 ? 1.0 : -1.0;
  problem.c = 2.0;
  problem.delta = 0.0;
  const Result r = solve_diagonal_qp(problem);
  ASSERT_TRUE(r.converged);

  // KKT: exists nu such that for all i, x_i = clip((p_i - nu y_i)/d_i).
  // Verify stationarity per coordinate using the recovered residuals: for
  // interior coordinates, (d_i x_i - p_i) / (-y_i) must be a common nu.
  double nu = 0.0;
  bool found = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (r.x[i] > 1e-9 && r.x[i] < problem.c - 1e-9) {
      nu = (problem.p[i] - problem.d[i] * r.x[i]) / problem.y[i];
      found = true;
      break;
    }
  }
  if (found) {
    for (std::size_t i = 0; i < n; ++i) {
      const double target =
          std::clamp((problem.p[i] - nu * problem.y[i]) / problem.d[i], 0.0,
                     problem.c);
      EXPECT_NEAR(r.x[i], target, 1e-6) << "i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiagonalQpRandom,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ------------------------------------------------- diagonal QP oracle
//
// solve_diagonal_qp at the AVX2 level decides most bisection steps from a
// lane-summed fast pass, certified to agree with the serial sum. The
// oracle is the serial solver before that change, kept verbatim below
// (plus a tally of h evaluations): x, iterations and objective must match
// it bit for bit at every ISA level.

Result reference_diagonal_qp(const DiagonalQpProblem& problem,
                             std::size_t* evaluations,
                             double tolerance = 1e-12) {
  const auto clip = [](double v, double lo, double hi) {
    return std::min(std::max(v, lo), hi);
  };
  const std::size_t n = problem.d.size();
  const auto x_of_nu = [&](double nu, Vector& x) {
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = clip((problem.p[i] - nu * problem.y[i]) / problem.d[i], 0.0,
                  problem.c);
    }
  };
  const auto h = [&](double nu, Vector& x) {
    ++*evaluations;
    x_of_nu(nu, x);
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) acc += problem.y[i] * x[i];
    return acc;
  };

  Vector x(n, 0.0);
  double lo = -1.0;
  double hi = 1.0;
  while (h(lo, x) < problem.delta && std::isfinite(lo)) lo *= 2.0;
  while (h(hi, x) > problem.delta && std::isfinite(hi)) hi *= 2.0;

  Result result;
  for (int iter = 0; iter < 200; ++iter) {
    ++result.iterations;
    const double mid = 0.5 * (lo + hi);
    const double value = h(mid, x);
    if (value > problem.delta) {
      lo = mid;
    } else {
      hi = mid;
    }
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
  result.converged =
      result.kkt_violation <= 1e-6 * (1.0 + std::abs(problem.delta));
  result.objective = objective;
  result.x = std::move(x);
  return result;
}

class DiagonalQpOracle : public ::testing::TestWithParam<linalg::Isa> {
 protected:
  void SetUp() override {
    if (!linalg::isa_available(GetParam()))
      GTEST_SKIP() << linalg::isa_name(GetParam()) << " not available";
    linalg::force_isa(GetParam());
  }
  void TearDown() override { linalg::clear_forced_isa(); }

  /// Solves `problem` with both solvers and requires bitwise agreement.
  /// Accumulates h evaluations and serial passes over the fixture's life.
  void expect_matches_reference(const DiagonalQpProblem& problem,
                                const std::string& what) {
    std::size_t reference_evaluations = 0;
    const Result expected =
        reference_diagonal_qp(problem, &reference_evaluations);
    obs::MetricsRegistry metrics;
    Result actual;
    {
      obs::Session session(nullptr, &metrics);
      actual = solve_diagonal_qp(problem);
    }
    ASSERT_EQ(actual.iterations, expected.iterations) << what;
    ASSERT_EQ(actual.x.size(), expected.x.size()) << what;
    for (std::size_t i = 0; i < expected.x.size(); ++i)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(actual.x[i]),
                std::bit_cast<std::uint64_t>(expected.x[i]))
          << what << " i=" << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.objective),
              std::bit_cast<std::uint64_t>(expected.objective))
        << what;
    EXPECT_EQ(actual.converged, expected.converged) << what;
    EXPECT_EQ(metrics.counter("qp.diagonal.sweeps"),
              static_cast<std::int64_t>(expected.iterations))
        << what;
    const auto serial =
        static_cast<std::size_t>(metrics.counter("qp.diagonal.serial_passes"));
    EXPECT_LE(serial, reference_evaluations) << what;
    if (GetParam() == linalg::Isa::kScalar) {
      EXPECT_EQ(serial, reference_evaluations) << what;
    }
    evaluations_ += reference_evaluations;
    serial_passes_ += serial;
  }

  /// The AVX2 level must skip some serial passes; the scalar level never.
  void expect_serial_share() const {
    if (GetParam() == linalg::Isa::kScalar) {
      EXPECT_EQ(serial_passes_, evaluations_);
    } else {
      EXPECT_LT(serial_passes_, evaluations_);
    }
  }

  std::size_t evaluations_ = 0;
  std::size_t serial_passes_ = 0;
};

DiagonalQpProblem random_diagonal_problem(std::mt19937_64& rng, std::size_t n,
                                          bool constant_d, double c,
                                          bool integer_p) {
  std::normal_distribution<double> normal;
  std::uniform_real_distribution<double> uniform(0.05, 3.0);
  DiagonalQpProblem problem;
  problem.d.assign(n, constant_d ? uniform(rng) : 0.0);
  if (!constant_d)
    for (double& v : problem.d) v = uniform(rng);
  problem.p.resize(n);
  for (double& v : problem.p)
    v = integer_p ? std::round(4.0 * normal(rng)) : 3.0 * normal(rng);
  problem.y.resize(n);
  std::size_t n_pos = 0;
  for (double& v : problem.y) {
    v = (rng() & 1) != 0 ? 1.0 : -1.0;
    n_pos += v > 0.0 ? 1 : 0;
  }
  problem.c = c;
  // delta: zero (the reducer's case) or a feasible point of y^T x.
  if ((rng() & 1) != 0) {
    const double span = c * static_cast<double>(std::min(n_pos, n - n_pos));
    const double side = (rng() & 1) != 0 ? 0.5 : -0.5;
    problem.delta = integer_p ? std::round(side * span)
                              : side * span * std::abs(normal(rng)) / 3.0;
  }
  return problem;
}

TEST_P(DiagonalQpOracle, RandomProblems) {
  std::mt19937_64 rng(0xD1A6);
  for (int k = 0; k < 120; ++k) {
    const std::size_t n = 1 + rng() % 3000;
    const DiagonalQpProblem problem = random_diagonal_problem(
        rng, n, (rng() & 1) != 0, (rng() & 1) != 0 ? 1.0 : 50.0, false);
    expect_matches_reference(problem, "problem " + std::to_string(k));
  }
  expect_serial_share();
}

TEST_P(DiagonalQpOracle, IntegerPTies) {
  // Integer p with unit d puts many breakpoints of h on the same nu and
  // drives the bisection into exact ties, where the certificate must hand
  // the decision to the serial pass.
  std::mt19937_64 rng(0x71E5);
  for (int k = 0; k < 80; ++k) {
    const std::size_t n = 1 + rng() % 600;
    DiagonalQpProblem problem = random_diagonal_problem(
        rng, n, true, (rng() & 1) != 0 ? 1.0 : 50.0, true);
    problem.d.assign(n, 1.0);
    expect_matches_reference(problem, "problem " + std::to_string(k));
  }
  // All-zero terms at every nu but the breakpoint: h is exactly 0.
  DiagonalQpProblem flat;
  flat.d.assign(64, 1.0);
  flat.p.assign(64, 0.0);
  flat.y.assign(64, 1.0);
  for (std::size_t i = 0; i < 64; i += 2) flat.y[i] = -1.0;
  flat.c = 1.0;
  expect_matches_reference(flat, "flat");
  expect_serial_share();
}

TEST_P(DiagonalQpOracle, CancellationForcesSerialPass) {
  // Terms +C and -C (C = 1e16, ulp 2) in different lanes around one small
  // interior term x = clip(3 - nu, 0, C): the serial sum rounds C + x back
  // to C whenever x <= 1, so serial and lane sums land on opposite sides
  // of delta = 0.25 for a whole range of nu. Taking the lane sum's
  // decisions there would move nu; the certificate must refuse them.
  const double big = 1e16;
  for (const auto& [n, plus, minus, small] :
       {std::array<std::size_t, 4>{16, 0, 4, 1},
        std::array<std::size_t, 4>{16, 2, 7, 3},
        std::array<std::size_t, 4>{21, 5, 20, 6},
        std::array<std::size_t, 4>{21, 17, 9, 18}}) {
    DiagonalQpProblem problem;
    problem.d.assign(n, 1.0);
    problem.p.assign(n, -1e30);  // x = 0: a +0 term
    problem.y.assign(n, 1.0);
    problem.p[plus] = 1e30;  // x = C, y = +1
    problem.p[minus] = 1e30;
    problem.y[minus] = -1.0;  // x = C, y = -1
    problem.p[small] = 3.0;
    problem.c = big;
    problem.delta = 0.25;
    expect_matches_reference(problem, "n=" + std::to_string(n) +
                                          " plus=" + std::to_string(plus));
  }
}

TEST_P(DiagonalQpOracle, NanInP) {
  // A NaN term makes every sum NaN: no decision can be certified, and the
  // serial pass must decide every step exactly as before.
  std::mt19937_64 rng(0x7A7);
  DiagonalQpProblem problem = random_diagonal_problem(rng, 257, false, 50.0,
                                                      false);
  problem.p[100] = std::numeric_limits<double>::quiet_NaN();
  std::size_t evaluations = 0;
  reference_diagonal_qp(problem, &evaluations);
  const std::size_t before = serial_passes_;
  expect_matches_reference(problem, "nan");
  EXPECT_EQ(serial_passes_ - before, evaluations);
}

/// The reducer's dual on lv-m8-fabric: n = 20 000, d = M/rho = 0.08,
/// C = 50, delta = 0, p = 1 - y q.
DiagonalQpProblem lv_reducer_problem(std::mt19937_64& rng,
                                     std::normal_distribution<double>& normal) {
  const std::size_t n = 20000;
  DiagonalQpProblem problem;
  problem.d.assign(n, 0.08);
  problem.y.resize(n);
  problem.p.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    problem.y[i] = (rng() & 1) != 0 ? 1.0 : -1.0;
    const double q = problem.y[i] * 0.8 + 1.5 * normal(rng);
    problem.p[i] = 1.0 - problem.y[i] * q;
  }
  problem.c = 50.0;
  return problem;
}

TEST_P(DiagonalQpOracle, LinearVerticalReducerShape) {
  std::mt19937_64 rng(0x1F8);
  std::normal_distribution<double> normal;
  for (int k = 0; k < 3; ++k)
    expect_matches_reference(lv_reducer_problem(rng, normal),
                             "lv " + std::to_string(k));
  expect_serial_share();
}

INSTANTIATE_TEST_SUITE_P(Isa, DiagonalQpOracle,
                         ::testing::Values(linalg::Isa::kScalar,
                                           linalg::Isa::kAvx2,
                                           linalg::Isa::kAvx512),
                         [](const auto& info) {
                           return std::string(linalg::isa_name(info.param));
                         });

TEST(DiagonalQpIsa, Avx512DecidesLikeAvx2) {
  // The avx512 level runs the same AVX2 fast pass: lv-shaped solves take
  // the same serial passes and return the same bits at both pins.
  if (!linalg::isa_available(linalg::Isa::kAvx512))
    GTEST_SKIP() << "avx512 not available";
  std::mt19937_64 rng(0x1F8);
  std::normal_distribution<double> normal;
  for (int k = 0; k < 3; ++k) {
    const DiagonalQpProblem problem = lv_reducer_problem(rng, normal);
    std::int64_t passes[2];
    Result results[2];
    for (const linalg::Isa isa : {linalg::Isa::kAvx2, linalg::Isa::kAvx512}) {
      const int at = isa == linalg::Isa::kAvx2 ? 0 : 1;
      linalg::force_isa(isa);
      obs::MetricsRegistry metrics;
      {
        obs::Session session(nullptr, &metrics);
        results[at] = solve_diagonal_qp(problem);
      }
      passes[at] = metrics.counter("qp.diagonal.serial_passes");
    }
    linalg::clear_forced_isa();
    EXPECT_EQ(passes[1], passes[0]) << "problem " << k;
    ASSERT_EQ(results[1].x.size(), results[0].x.size());
    for (std::size_t i = 0; i < results[0].x.size(); ++i)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(results[1].x[i]),
                std::bit_cast<std::uint64_t>(results[0].x[i]))
          << "problem " << k << " i=" << i;
  }
}

// ---------------------------------------------------------- kernel cache

/// Evaluator that serves rows of a dense matrix and counts evaluations.
struct CountingEvaluator {
  const Matrix* q;
  std::vector<int>* eval_counts;
  void operator()(std::size_t i, std::span<double> out) const {
    ++(*eval_counts)[i];
    const auto row = q->row(i);
    std::copy(row.begin(), row.end(), out.begin());
  }
};

TEST(KernelCache, BudgetToRowCapacity) {
  const Matrix q = random_spd(8, 21);
  std::vector<int> counts(8, 0);
  const CountingEvaluator eval{&q, &counts};
  // One row = 8 doubles = 64 bytes.
  EXPECT_EQ(KernelCache(8, eval, 3 * 64).capacity_rows(), 3u);
  EXPECT_EQ(KernelCache(8, eval, 3 * 64 + 63).capacity_rows(), 3u);
  // 0 = unlimited: every row fits.
  EXPECT_EQ(KernelCache(8, eval, 0).capacity_rows(), 8u);
  // Budgets below two rows are clamped up so SMO can hold a pair.
  EXPECT_EQ(KernelCache(8, eval, 1).capacity_rows(), 2u);
  // Budgets above n rows are clamped down.
  EXPECT_EQ(KernelCache(8, eval, 1 << 20).capacity_rows(), 8u);
  EXPECT_EQ(KernelCache(1, eval, 1).capacity_rows(), 1u);
}

TEST(KernelCache, LruEvictionOrder) {
  const std::size_t n = 4;
  const Matrix q = random_spd(n, 22);
  std::vector<int> counts(n, 0);
  KernelCache cache(n, CountingEvaluator{&q, &counts}, 2 * n * sizeof(double));
  ASSERT_EQ(cache.capacity_rows(), 2u);

  cache.row(0);  // miss, cache = {0}
  cache.row(1);  // miss, cache = {1, 0}
  cache.row(0);  // hit, cache = {0, 1}
  cache.row(2);  // miss, evicts 1 (LRU), cache = {2, 0}
  cache.row(0);  // hit
  cache.row(1);  // miss again: 1 was evicted; evicts 2
  EXPECT_EQ(counts, (std::vector<int>{1, 2, 1, 0}));
  EXPECT_EQ(cache.hits(), 2);
  EXPECT_EQ(cache.misses(), 4);
  EXPECT_EQ(cache.evictions(), 2);
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 2.0 / 6.0);
  EXPECT_EQ(cache.cached_rows(), 2u);
}

TEST(KernelCache, ReturnedRowSurvivesOneFurtherFetch) {
  // The SMO step fetches row i then row j and reads both spans: the cache
  // guarantees the i-span is not invalidated by the j-fetch even at minimum
  // capacity, because i is most-recently-used when j is fetched.
  const std::size_t n = 6;
  const Matrix q = random_spd(n, 23);
  std::vector<int> counts(n, 0);
  KernelCache cache(n, CountingEvaluator{&q, &counts}, 1);  // capacity 2
  ASSERT_EQ(cache.capacity_rows(), 2u);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const auto row_i = cache.row(i);
      const auto row_j = cache.row(j);
      for (std::size_t t = 0; t < n; ++t) {
        ASSERT_EQ(row_i[t], q(i, t)) << "i=" << i << " j=" << j;
        ASSERT_EQ(row_j[t], q(j, t)) << "i=" << i << " j=" << j;
      }
    }
  }
}

TEST(KernelCache, RowContentsMatchEvaluator) {
  const std::size_t n = 5;
  const Matrix q = random_spd(n, 24);
  std::vector<int> counts(n, 0);
  KernelCache cache(n, CountingEvaluator{&q, &counts}, 0);
  for (std::size_t pass = 0; pass < 2; ++pass)
    for (std::size_t i = 0; i < n; ++i) {
      const auto row = cache.row(i);
      for (std::size_t j = 0; j < n; ++j) EXPECT_EQ(row[j], q(i, j));
    }
  // Unlimited budget: second pass is all hits, nothing re-evaluated.
  for (int c : counts) EXPECT_EQ(c, 1);
  EXPECT_EQ(cache.evictions(), 0);
}

TEST(KernelCache, DestructorFlushesStatsIntoALiveSession) {
  const std::size_t n = 4;
  const Matrix q = random_spd(n, 25);
  std::vector<int> counts(n, 0);
  obs::MetricsRegistry metrics;
  {
    obs::Session session(nullptr, &metrics);
    {
      KernelCache cache(n, CountingEvaluator{&q, &counts}, 0);
      cache.row(0);
      cache.row(0);
      cache.row(1);
    }  // cache destroyed while the session is installed: dtor flush lands
  }
  EXPECT_EQ(metrics.counter("qp.cache.hits"), 1);
  EXPECT_EQ(metrics.counter("qp.cache.misses"), 2);
  EXPECT_EQ(metrics.counter("qp.cache.evictions"), 0);
}

TEST(KernelCache, FlushSurvivesCacheOutlivingTheSession) {
  // The teardown-order hazard this API exists for: a cache that outlives
  // the obs session must not silently drop its counts. flush_stats() with
  // no registry installed keeps the tallies, so an explicit in-session
  // flush — or a flush under a *later* session — still lands them.
  const std::size_t n = 4;
  const Matrix q = random_spd(n, 26);
  std::vector<int> counts(n, 0);
  KernelCache cache(n, CountingEvaluator{&q, &counts}, 0);

  obs::MetricsRegistry first;
  {
    obs::Session session(nullptr, &first);
    cache.row(0);
    cache.row(0);
    cache.row(1);
    cache.flush_stats();  // what svm::train_kernel_svm does post-solve
  }
  EXPECT_EQ(first.counter("qp.cache.hits"), 1);
  EXPECT_EQ(first.counter("qp.cache.misses"), 2);

  // More traffic after the session is gone: a no-registry flush keeps the
  // counts instead of zeroing them...
  cache.row(2);
  cache.row(2);
  cache.flush_stats();

  // ...so a later session still receives them in full.
  obs::MetricsRegistry second;
  {
    obs::Session session(nullptr, &second);
    cache.flush_stats();
  }
  EXPECT_EQ(second.counter("qp.cache.hits"), 1);
  EXPECT_EQ(second.counter("qp.cache.misses"), 1);

  // Flushing is draining: nothing double-counts on a further flush.
  obs::MetricsRegistry third;
  {
    obs::Session session(nullptr, &third);
    cache.flush_stats();
  }
  EXPECT_EQ(third.counter("qp.cache.hits"), 0);
  EXPECT_EQ(third.counter("qp.cache.misses"), 0);
}

// ------------------------------------------------- cached + shrinking SMO

TEST(Smo, DegenerateStepDoesNotFakeConvergence) {
  // Overflowing curvature (1e308 + 1e308 -> inf) makes the closed-form step
  // t = -slope/curvature collapse to exactly 0.0 while the selected pair
  // still violates the KKT conditions by 2. The solver must report the
  // stall as non-converged, not claim optimality.
  Matrix q{{1e308, 0.0}, {0.0, 1e308}};
  SmoProblem problem{q, Vector{1.0, 1.0}, Vector{1.0, -1.0}, 1.0, 0.0};
  const Result r = solve_smo(problem);
  EXPECT_FALSE(r.converged);
  EXPECT_GT(r.kkt_violation, 1.0);
}

/// Random SVM-dual-shaped SMO problem (p = 1, labels +-1).
SmoProblem random_smo_problem(std::size_t n, std::uint64_t seed,
                              double c = 1.5, double delta = 0.0) {
  SmoProblem problem;
  problem.q = random_spd(n, seed);
  problem.p.assign(n, 1.0);
  problem.y.resize(n);
  std::mt19937_64 rng(seed ^ 0xbeef);
  for (std::size_t i = 0; i < n; ++i)
    problem.y[i] = (rng() & 1) != 0 ? 1.0 : -1.0;
  problem.c = c;
  problem.delta = delta;
  return problem;
}

class SmoCachedEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SmoCachedEquivalence, BitIdenticalToDenseAcrossBudgets) {
  const std::uint64_t seed = GetParam();
  const std::size_t n = 40;
  const SmoProblem problem = random_smo_problem(n, seed);

  Options dense_options;
  dense_options.shrinking = false;  // pure dense reference, full scans
  const Result dense = solve_smo(problem, dense_options);
  ASSERT_TRUE(dense.converged);

  const std::size_t row_bytes = n * sizeof(double);
  for (const std::size_t budget :
       {std::size_t{0}, (n / 4) * row_bytes, std::size_t{1}}) {
    std::vector<int> counts(n, 0);
    KernelCache cache(n, CountingEvaluator{&problem.q, &counts}, budget);
    const Result cached = solve_smo(cache, problem.p, problem.y, problem.c,
                                    problem.delta);  // shrinking on (default)
    ASSERT_TRUE(cached.converged);
    EXPECT_EQ(cached.iterations, dense.iterations) << "budget=" << budget;
    ASSERT_EQ(cached.x.size(), dense.x.size());
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(cached.x[i], dense.x[i])  // exact: same fp op sequence
          << "budget=" << budget << " i=" << i;
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(cached.g[i], dense.g[i]);
  }
}

TEST_P(SmoCachedEquivalence, BitIdenticalWithNonzeroDelta) {
  const std::uint64_t seed = GetParam();
  const std::size_t n = 24;
  const SmoProblem problem =
      random_smo_problem(n, seed ^ 0x5a5a, /*c=*/2.0, /*delta=*/3.0);

  Options dense_options;
  dense_options.shrinking = false;
  const Result dense = solve_smo(problem, dense_options);
  ASSERT_TRUE(dense.converged);

  std::vector<int> counts(n, 0);
  KernelCache cache(n, CountingEvaluator{&problem.q, &counts},
                    (n / 3) * n * sizeof(double));
  const Result cached =
      solve_smo(cache, problem.p, problem.y, problem.c, problem.delta);
  ASSERT_TRUE(cached.converged);
  EXPECT_NEAR(linalg::dot(problem.y, cached.x), 3.0, 1e-9);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(cached.x[i], dense.x[i]);
}

TEST_P(SmoCachedEquivalence, DenseShrinkingMatchesDenseFullScan) {
  const std::uint64_t seed = GetParam();
  const SmoProblem problem = random_smo_problem(48, seed ^ 0x1234);
  Options full;
  full.shrinking = false;
  Options shrunk;
  shrunk.shrinking = true;
  const Result a = solve_smo(problem, full);
  const Result b = solve_smo(problem, shrunk);
  ASSERT_TRUE(a.converged);
  ASSERT_TRUE(b.converged);
  EXPECT_EQ(a.iterations, b.iterations);
  for (std::size_t i = 0; i < a.x.size(); ++i) EXPECT_EQ(a.x[i], b.x[i]);
  EXPECT_EQ(a.objective, b.objective);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmoCachedEquivalence,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u));

TEST(Smo, CachedReusesRowsAcrossIterations) {
  const std::size_t n = 60;
  const SmoProblem problem = random_smo_problem(n, 99);
  std::vector<int> counts(n, 0);
  KernelCache cache(n, CountingEvaluator{&problem.q, &counts}, /*budget=*/0);
  const Result r = solve_smo(cache, problem.p, problem.y, problem.c, 0.0);
  ASSERT_TRUE(r.converged);
  ASSERT_GT(r.iterations, 1u);
  // Unlimited budget: every row is evaluated at most once no matter how
  // many pair steps revisit it, and revisits are all hits.
  EXPECT_EQ(cache.evictions(), 0);
  EXPECT_LE(cache.misses(), static_cast<std::int64_t>(n));
  for (int c : counts) EXPECT_LE(c, 1);
  EXPECT_GT(cache.hits(), cache.misses());
}

}  // namespace
}  // namespace ppml::qp
