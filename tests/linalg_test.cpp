#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "blas_oracles.h"
#include "linalg/blas.h"
#include "linalg/cholesky.h"
#include "linalg/matrix.h"
#include "linalg/parallel.h"
#include "trace_digest.h"

namespace ppml::linalg {
namespace {

TEST(Matrix, ConstructsZeroInitialized) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 4; ++j) EXPECT_EQ(m(i, j), 0.0);
}

TEST(Matrix, InitializerList) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m(0, 1), 2.0);
  EXPECT_EQ(m(1, 0), 3.0);
}

TEST(Matrix, InitializerListRaggedThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), InvalidArgument);
}

TEST(Matrix, FlatBufferConstructorValidatesSize) {
  EXPECT_NO_THROW(Matrix(2, 2, std::vector<double>{1, 2, 3, 4}));
  EXPECT_THROW(Matrix(2, 2, std::vector<double>{1, 2, 3}), InvalidArgument);
}

TEST(Matrix, AtThrowsOutOfRange) {
  Matrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), InvalidArgument);
  EXPECT_THROW(m.at(0, 2), InvalidArgument);
  EXPECT_NO_THROW(m.at(1, 1));
}

TEST(Matrix, RowSpanWritesThrough) {
  Matrix m(2, 3);
  auto row = m.row(1);
  row[2] = 7.0;
  EXPECT_EQ(m(1, 2), 7.0);
}

TEST(Matrix, TransposedRoundTrip) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t(2, 1), 6.0);
  EXPECT_EQ(t.transposed(), m);
}

TEST(Matrix, IdentityAndDiagonal) {
  const Matrix eye = Matrix::identity(3);
  EXPECT_EQ(eye(1, 1), 1.0);
  EXPECT_EQ(eye(0, 1), 0.0);
  const Matrix d = Matrix::diagonal({2.0, 3.0});
  EXPECT_EQ(d(0, 0), 2.0);
  EXPECT_EQ(d(1, 1), 3.0);
  EXPECT_EQ(d(0, 1), 0.0);
}

TEST(Matrix, ArithmeticAndComparison) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{4, 3}, {2, 1}};
  const Matrix sum = a + b;
  EXPECT_EQ(sum, (Matrix{{5, 5}, {5, 5}}));
  const Matrix diff = a - b;
  EXPECT_EQ(diff(0, 0), -3.0);
  const Matrix scaled = 2.0 * a;
  EXPECT_EQ(scaled(1, 1), 8.0);
  EXPECT_THROW(a + Matrix(1, 2), InvalidArgument);
}

TEST(Matrix, MaxAbsDiffAndAllclose) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b = a;
  b(1, 1) += 1e-5;
  EXPECT_NEAR(max_abs_diff(a, b), 1e-5, 1e-12);
  EXPECT_TRUE(allclose(a, b, 1e-4));
  EXPECT_FALSE(allclose(a, b, 1e-6));
}

TEST(Matrix, StreamOutputContainsShape) {
  std::ostringstream os;
  os << Matrix(2, 3);
  EXPECT_NE(os.str().find("2x3"), std::string::npos);
}

TEST(Blas, DotAndNorms) {
  Vector x{1.0, 2.0, 2.0};
  EXPECT_EQ(dot(x, x), 9.0);
  EXPECT_EQ(squared_norm(x), 9.0);
  EXPECT_EQ(norm(x), 3.0);
  EXPECT_THROW(dot(x, Vector{1.0}), InvalidArgument);
}

TEST(Blas, AxpyScaleSubAdd) {
  Vector x{1.0, 2.0};
  Vector y{10.0, 20.0};
  axpy(2.0, x, y);
  EXPECT_EQ(y, (Vector{12.0, 24.0}));
  scale(0.5, y);
  EXPECT_EQ(y, (Vector{6.0, 12.0}));
  EXPECT_EQ(add(x, x), (Vector{2.0, 4.0}));
  EXPECT_EQ(sub(y, x), (Vector{5.0, 10.0}));
  EXPECT_EQ(scaled(3.0, x), (Vector{3.0, 6.0}));
}

TEST(Blas, SquaredDistance) {
  EXPECT_EQ(squared_distance(Vector{0.0, 0.0}, Vector{3.0, 4.0}), 25.0);
}

TEST(Blas, GemvAgainstHand) {
  Matrix a{{1, 2}, {3, 4}, {5, 6}};
  const Vector out = gemv(a, Vector{1.0, 1.0});
  EXPECT_EQ(out, (Vector{3.0, 7.0, 11.0}));
  const Vector out_t = gemv_t(a, Vector{1.0, 1.0, 1.0});
  EXPECT_EQ(out_t, (Vector{9.0, 12.0}));
}

TEST(Blas, GemvTIsPerRowLoopBitwiseAtEveryIsaLevel) {
  // out[j] = 0.0 + x[0] a(0, j) + x[1] a(1, j) + ... in ascending row
  // order, one multiply and one add per row: the per-row axpy loop.
  std::mt19937_64 rng(17);
  std::normal_distribution<double> normal;
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {0, 3}, {1, 1}, {37, 3}, {2000, 4}, {5, 17}, {9, 0}};
  for (const Isa isa : testing::available_isas()) {
    force_isa(isa);
    for (const auto& [rows, cols] : shapes) {
      Matrix a(rows, cols);
      for (double& v : a.data()) v = normal(rng) * 1e3;
      Vector x(rows);
      for (double& v : x) v = normal(rng);
      Vector expected(cols, 0.0);
      for (std::size_t i = 0; i < rows; ++i)
        for (std::size_t j = 0; j < cols; ++j) expected[j] += x[i] * a(i, j);
      const Vector out = gemv_t(a, x);
      ASSERT_EQ(out.size(), cols);
      for (std::size_t j = 0; j < cols; ++j)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(out[j]),
                  std::bit_cast<std::uint64_t>(expected[j]))
            << isa_name(isa) << " " << rows << "x" << cols << " col " << j;
    }
  }
  clear_forced_isa();
}

TEST(Blas, GemmAgainstHand) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  EXPECT_EQ(gemm(a, b), (Matrix{{19, 22}, {43, 50}}));
  EXPECT_THROW(gemm(a, Matrix(3, 2)), InvalidArgument);
}

TEST(Blas, GemmNtMatchesGemmWithTranspose) {
  std::mt19937_64 rng(1);
  std::normal_distribution<double> normal;
  Matrix a(4, 3);
  Matrix b(5, 3);
  for (double& v : a.data()) v = normal(rng);
  for (double& v : b.data()) v = normal(rng);
  EXPECT_TRUE(allclose(gemm_nt(a, b), gemm(a, b.transposed()), 1e-12));
}

TEST(Blas, GramMatricesMatchDefinition) {
  std::mt19937_64 rng(2);
  std::normal_distribution<double> normal;
  Matrix a(6, 4);
  for (double& v : a.data()) v = normal(rng);
  EXPECT_TRUE(allclose(gram_at_a(a), gemm(a.transposed(), a), 1e-12));
  EXPECT_TRUE(allclose(gram_a_at(a), gemm(a, a.transposed()), 1e-12));
}

class CholeskySizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CholeskySizes, SolveRecoversKnownSolution) {
  const std::size_t n = GetParam();
  std::mt19937_64 rng(n);
  std::normal_distribution<double> normal;
  Matrix b(n, n);
  for (double& v : b.data()) v = normal(rng);
  // SPD by construction: B B^T + n I.
  Matrix a = gram_a_at(b);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);

  Vector x_true(n);
  for (double& v : x_true) v = normal(rng);
  const Vector rhs = gemv(a, x_true);

  const Cholesky chol(a);
  const Vector x = chol.solve(rhs);
  EXPECT_TRUE(allclose(x, x_true, 1e-8)) << "n=" << n;

  // L L^T == A.
  EXPECT_TRUE(allclose(gemm_nt(chol.l(), chol.l()), a, 1e-8));
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskySizes,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 40, 100));

TEST(Cholesky, RejectsNonPositiveDefinite) {
  Matrix a{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  EXPECT_THROW(Cholesky{a}, NumericError);
}

TEST(Cholesky, RejectsNonSymmetric) {
  Matrix a{{1.0, 2.0}, {0.0, 1.0}};
  EXPECT_THROW(Cholesky{a}, InvalidArgument);
}

TEST(Cholesky, RejectsNonSquare) {
  EXPECT_THROW(Cholesky{Matrix(2, 3)}, InvalidArgument);
}

TEST(Cholesky, InverseTimesMatrixIsIdentity) {
  Matrix a{{4.0, 1.0}, {1.0, 3.0}};
  const Matrix inv = Cholesky(a).inverse();
  EXPECT_TRUE(allclose(gemm(a, inv), Matrix::identity(2), 1e-12));
}

TEST(Cholesky, LogDetMatchesHandComputation) {
  Matrix a{{4.0, 0.0}, {0.0, 9.0}};
  EXPECT_NEAR(Cholesky(a).log_det(), std::log(36.0), 1e-12);
}

TEST(Cholesky, MatrixSolveMatchesColumnSolves) {
  Matrix a{{5.0, 1.0}, {1.0, 4.0}};
  Matrix rhs{{1.0, 0.0}, {2.0, 1.0}};
  const Cholesky chol(a);
  const Matrix x = chol.solve(rhs);
  for (std::size_t j = 0; j < 2; ++j) {
    const Vector col = chol.solve(rhs.col(j));
    for (std::size_t i = 0; i < 2; ++i) EXPECT_NEAR(x(i, j), col[i], 1e-12);
  }
}

// ---------------------------------------------------------------------------
// Bit-identity pin for the blocked factor. The oracle below is a verbatim
// copy of the scalar column-by-column Crout factor and the two
// substitutions the blocked U = L^T code replaced; every factor element,
// solve, inverse and log-det must match it bit for bit, at every panel
// boundary and at both dispatch levels (the suite is also registered with
// PPML_FORCE_ISA=scalar).

Matrix crout_oracle(const Matrix& a) {
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    const auto lrow_j = l.row(j);
    for (std::size_t k = 0; k < j; ++k) diag -= lrow_j[k] * lrow_j[k];
    if (!(diag > 0.0)) {
      throw NumericError("Cholesky: matrix is not positive definite (pivot " +
                         std::to_string(diag) + " at column " +
                         std::to_string(j) + ")");
    }
    const double ljj = std::sqrt(diag);
    l(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double acc = a(i, j);
      const auto lrow_i = l.row(i);
      for (std::size_t k = 0; k < j; ++k) acc -= lrow_i[k] * lrow_j[k];
      l(i, j) = acc / ljj;
    }
  }
  return l;
}

void forward_substitute_oracle(const Matrix& l, Vector& x) {
  const std::size_t n = l.rows();
  for (std::size_t i = 0; i < n; ++i) {
    double acc = x[i];
    const auto row = l.row(i);
    for (std::size_t j = 0; j < i; ++j) acc -= row[j] * x[j];
    x[i] = acc / row[i];
  }
}

void backward_substitute_transposed_oracle(const Matrix& l, Vector& x) {
  const std::size_t n = l.rows();
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= l(j, ii) * x[j];
    x[ii] = acc / l(ii, ii);
  }
}

Vector solve_oracle(const Matrix& l, std::span<const double> b) {
  Vector x(b.begin(), b.end());
  forward_substitute_oracle(l, x);
  backward_substitute_transposed_oracle(l, x);
  return x;
}

/// Message of the NumericError `factor` throws ("" when it does not throw).
template <typename Fn>
std::string numeric_error_message(Fn&& factor) {
  try {
    factor();
  } catch (const NumericError& e) {
    return e.what();
  }
  return "";
}

/// EXPECT_EQ on the IEEE-754 bit pattern of every element (so -0.0 against
/// +0.0 fails too); reports the first mismatch only.
void expect_bit_identical(std::span<const double> got,
                          std::span<const double> want,
                          const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(got[i]) !=
        std::bit_cast<std::uint64_t>(want[i])) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                std::bit_cast<std::uint64_t>(want[i]))
          << what << ": element " << i << " is " << got[i] << ", oracle "
          << want[i];
      return;
    }
  }
}

enum class SpdKind {
  kGram,          // B B^T + n I
  kRbf,           // I + rho K, K an RBF Gram (the kernel-vertical system)
  kNearSymmetric  // RBF system with sub-tolerance noise above the diagonal
};

Matrix make_spd(SpdKind kind, std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed * 7919 + n);
  std::normal_distribution<double> normal;
  if (kind == SpdKind::kGram) {
    Matrix b(n, n);
    for (double& v : b.data()) v = normal(rng);
    Matrix a = gram_a_at(b);
    for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
    return a;
  }
  constexpr std::size_t kFeatures = 6;
  constexpr double kGamma = 0.1;
  constexpr double kRho = 100.0;
  Matrix x(n, kFeatures);
  for (double& v : x.data()) v = normal(rng);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double k = std::exp(-kGamma * squared_distance(x.row(i), x.row(j)));
      a(i, j) = a(j, i) = kRho * k;
    }
    a(i, i) += 1.0;
  }
  if (kind == SpdKind::kNearSymmetric) {
    // The factor reads the lower triangle only; noise above the diagonal
    // must pass the symmetry check and leave every bit unchanged.
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j) a(i, j) *= 1.0 + 1e-12;
  }
  return a;
}

struct FactorCase {
  std::size_t n;
  std::uint64_t seed;
  SpdKind kind;
};

std::string case_name(const ::testing::TestParamInfo<FactorCase>& info) {
  const char* kinds[] = {"gram", "rbf", "nearsym"};
  return std::string(kinds[static_cast<int>(info.param.kind)]) + "_n" +
         std::to_string(info.param.n) + "_seed" +
         std::to_string(info.param.seed);
}

std::vector<FactorCase> factor_cases() {
  constexpr std::size_t nb = Cholesky::kPanelRows;
  const std::size_t sizes[] = {1, 2, 3, 4, 5, 7, nb - 1, nb, nb + 1,
                               2 * nb + 3, 517};
  std::vector<FactorCase> cases;
  for (SpdKind kind : {SpdKind::kGram, SpdKind::kRbf, SpdKind::kNearSymmetric})
    for (std::size_t n : sizes)
      for (std::uint64_t seed : {1u, 2u, 3u}) cases.push_back({n, seed, kind});
  return cases;
}

class CholeskyOracle : public ::testing::TestWithParam<FactorCase> {};

TEST_P(CholeskyOracle, FactorSolveInverseLogDetAreBitIdentical) {
  const FactorCase c = GetParam();
  const Matrix a = make_spd(c.kind, c.n, c.seed);
  const Matrix l_oracle = crout_oracle(a);
  const Cholesky chol(a);

  const Matrix l = chol.l();
  ASSERT_EQ(l.rows(), c.n);
  ASSERT_EQ(l.cols(), c.n);
  expect_bit_identical(l.data(), l_oracle.data(), "factor");

  std::mt19937_64 rng(c.seed ^ 0x5eedULL);
  std::normal_distribution<double> normal;
  Vector b(c.n);
  for (double& v : b) v = normal(rng);
  expect_bit_identical(chol.solve(b), solve_oracle(l_oracle, b), "solve");

  Matrix inv_oracle(c.n, c.n);
  for (std::size_t j = 0; j < c.n; ++j) {
    Vector e(c.n, 0.0);
    e[j] = 1.0;
    const Vector col = solve_oracle(l_oracle, e);
    for (std::size_t i = 0; i < c.n; ++i) inv_oracle(i, j) = col[i];
  }
  expect_bit_identical(chol.inverse().data(), inv_oracle.data(), "inverse");

  double log_det = 0.0;
  for (std::size_t i = 0; i < c.n; ++i) log_det += std::log(l_oracle(i, i));
  log_det *= 2.0;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(chol.log_det()),
            std::bit_cast<std::uint64_t>(log_det));
}

INSTANTIATE_TEST_SUITE_P(PanelBoundaries, CholeskyOracle,
                         ::testing::ValuesIn(factor_cases()), case_name);

TEST(CholeskyOracle, NonPositiveDefiniteThrowsTheSeedMessage) {
  constexpr std::size_t nb = Cholesky::kPanelRows;
  std::vector<Matrix> inputs = {
      Matrix{{1.0, 2.0}, {2.0, 1.0}},
      Matrix{{-4.0}},
      Matrix{{0.0, 0.0}, {0.0, 1.0}},
      Matrix{{std::nan("")}},
      Matrix{{-0.0}},  // the pivot's sign shows in the message
  };
  // Pivots that fail in the first panel, on a panel's first row, and in a
  // trailing row two panels in.
  for (std::size_t column : {std::size_t{5}, nb, 2 * nb + 1}) {
    Matrix a = make_spd(SpdKind::kRbf, 2 * nb + 3, 3);
    a(column, column) = -1.0;
    inputs.push_back(std::move(a));
  }
  for (const Matrix& a : inputs) {
    const std::string want = numeric_error_message([&] { crout_oracle(a); });
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(numeric_error_message([&] { Cholesky{a}; }), want);
  }
}

TEST(CholeskyOracle, AsymmetricInputIsRejected) {
  EXPECT_THROW((Cholesky{Matrix{{1.0, 2.0}, {0.0, 1.0}}}), InvalidArgument);
  Matrix a = make_spd(SpdKind::kRbf, 2 * Cholesky::kPanelRows + 3, 1);
  a(3, 2 * Cholesky::kPanelRows + 1) += 1e-3;
  EXPECT_THROW(Cholesky{a}, InvalidArgument);
  // The in-place path checks the scaled pair before it overwrites the upper
  // element.
  EXPECT_THROW(Cholesky(std::move(a), 3.0, 1.0 + 1e-10), InvalidArgument);
}

// The kernel-vertical learner moves its gram K into the factor and asks for
// A = rho K + (1 + 1e-10) I; that must be the factor of the explicitly
// built system, bit for bit, with K left readable below the diagonal.
TEST_P(CholeskyOracle, InPlaceScaledShiftMatchesTheExplicitSystem) {
  const FactorCase c = GetParam();
  constexpr double kRho = 3.0;
  constexpr double kShift = 1.0 + 1e-10;
  const Matrix k = make_spd(c.kind, c.n, c.seed);
  Matrix a = k;
  for (double& v : a.data()) v *= kRho;
  for (std::size_t i = 0; i < c.n; ++i) a(i, i) += kShift;
  const Cholesky want(a);
  const Cholesky got(Matrix(k), kRho, kShift);

  const Matrix l = got.l();
  expect_bit_identical(l.data(), want.l().data(), "factor");
  for (std::size_t i = 0; i < c.n; ++i)
    for (std::size_t j = i + 1; j < c.n; ++j)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(l(i, j)), 0u) << i << "," << j;

  std::mt19937_64 rng(c.seed ^ 0xb1a5ULL);
  std::normal_distribution<double> normal;
  Vector b(c.n);
  for (double& v : b) v = normal(rng);
  expect_bit_identical(got.solve(b), want.solve(b), "solve");
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.log_det()),
            std::bit_cast<std::uint64_t>(want.log_det()));

  // The strict lower triangle is K's, unscaled and untouched.
  const Matrix& packed = got.packed();
  for (std::size_t i = 0; i < c.n; ++i)
    for (std::size_t j = 0; j < i; ++j)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(packed(i, j)),
                std::bit_cast<std::uint64_t>(k(i, j)))
          << i << "," << j;
}

TEST(Woodbury, MatchesDirectInverse) {
  // (I + c G^T G)^{-1} check via the small-space inverse it returns:
  // woodbury_small_inverse returns (I + c*Kgg)^{-1}.
  std::mt19937_64 rng(3);
  std::normal_distribution<double> normal;
  Matrix g(4, 7);
  for (double& v : g.data()) v = normal(rng);
  const Matrix kgg = gram_a_at(g);
  const double c = 2.5;

  const Matrix small_inv = woodbury_small_inverse(kgg, c);
  Matrix expected = kgg;
  for (double& v : expected.data()) v *= c;
  for (std::size_t i = 0; i < 4; ++i) expected(i, i) += 1.0;
  EXPECT_TRUE(allclose(gemm(expected, small_inv), Matrix::identity(4), 1e-9));

  // Full-space identity: (I + c G^T G)(I - c G^T D G) == I.
  const Matrix gtg = gram_at_a(g);
  Matrix big = gtg;
  for (double& v : big.data()) v *= c;
  for (std::size_t i = 0; i < 7; ++i) big(i, i) += 1.0;
  const Matrix gt_d_g = gemm(g.transposed(), gemm(small_inv, g));
  Matrix inv_big = gt_d_g;
  for (double& v : inv_big.data()) v *= -c;
  for (std::size_t i = 0; i < 7; ++i) inv_big(i, i) += 1.0;
  EXPECT_TRUE(allclose(gemm(big, inv_big), Matrix::identity(7), 1e-9));
}

TEST(Errors, CheckMacroMessagesIncludeLocation) {
  try {
    PPML_CHECK(false, "custom detail");
    FAIL() << "should have thrown";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("custom detail"), std::string::npos);
    EXPECT_NE(what.find("linalg_test.cpp"), std::string::npos);
  }
}

// ------------------------------------------- blocked + threaded products

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed,
                     double zero_fraction = 0.2) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> normal;
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  Matrix m(rows, cols);
  for (double& v : m.data())
    v = uniform(rng) < zero_fraction ? 0.0 : normal(rng);
  return m;
}

/// Naive std::thread parallel backend: static round-robin over `threads`.
ParallelBackend thread_backend(std::size_t threads) {
  return [threads](std::size_t n, const std::function<void(std::size_t)>& fn) {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t)
      pool.emplace_back([&, t] {
        for (std::size_t i = t; i < n; i += threads) fn(i);
      });
    for (std::thread& th : pool) th.join();
  };
}

TEST(BlockedGemm, MatchesNaiveExactlyAcrossShapes) {
  // Shapes chosen to cross the internal tile boundaries (64-row tasks,
  // 256-column tiles) and to hit the degenerate edges.
  const std::size_t shapes[][3] = {{0, 0, 0},   {0, 3, 5},    {3, 0, 5},
                                   {3, 5, 0},   {1, 1, 1},    {1, 7, 300},
                                   {7, 1, 7},   {65, 33, 130}, {64, 64, 256},
                                   {66, 10, 257}};
  std::uint64_t seed = 1000;
  for (const auto& s : shapes) {
    const Matrix a = random_matrix(s[0], s[1], ++seed);
    const Matrix b = random_matrix(s[1], s[2], ++seed);
    // operator== — the blocked path must be bit-identical, not just close.
    EXPECT_EQ(gemm(a, b), gemm_naive(a, b))
        << s[0] << "x" << s[1] << "x" << s[2];
    const Matrix bt = random_matrix(s[2], s[1], ++seed);
    EXPECT_EQ(gemm_nt(a, bt), gemm_nt_naive(a, bt))
        << s[0] << "x" << s[1] << "x" << s[2];
  }
}

TEST(BlockedGemm, SyrkMatchesGemmNtWithSelf) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{9},
                              std::size_t{70}, std::size_t{130}}) {
    const Matrix a = random_matrix(n, 17, 2000 + n);
    EXPECT_EQ(syrk(a), gemm_nt_naive(a, a)) << "n=" << n;
    EXPECT_EQ(gram_a_at(a), syrk(a));
  }
}

TEST(BlockedGemm, SymvLowerMatchesGemvBitwise) {
  // Sizes cross the 4-lane SIMD groups and the 16-row blocks. x mixes
  // zeros, signed zeros and +/-1e16 pairs whose sums cancel, so any change
  // in a row's summation order shows in its bits.
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4},
        std::size_t{5}, std::size_t{15}, std::size_t{16}, std::size_t{17},
        std::size_t{31}, std::size_t{32}, std::size_t{33}, std::size_t{65},
        std::size_t{257}}) {
    const Matrix half = random_matrix(n, n, 3000 + n);
    Matrix k(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j <= i; ++j) k(i, j) = k(j, i) = half(i, j);
    if (n > 3) k(3, 1) = k(1, 3) = -0.0;
    // Only the strict lower triangle and the diagonal vector may be read.
    Matrix packed = k;
    Vector diag(n);
    for (std::size_t i = 0; i < n; ++i) {
      diag[i] = k(i, i);
      for (std::size_t j = i; j < n; ++j) packed(i, j) = std::nan("");
    }
    Vector x = random_matrix(1, n, 4000 + n, 0.3).data();
    for (std::size_t i = 0; i < n; i += 7) x[i] = (i / 7) % 2 ? 0.0 : -0.0;
    for (std::size_t i = 2; i + 1 < n; i += 5) {
      x[i] = 1e16;
      x[i + 1] = -1e16;
    }
    Vector got(n, std::nan(""));
    symv_lower(packed, diag, x, got);
    expect_bit_identical(got, gemv(k, x), "n=" + std::to_string(n));
  }
}

TEST(BlockedGemm, ThreadedResultsAreBitIdenticalToSerial) {
  // Big enough to clear the internal FLOP threshold for parallel dispatch
  // (2 * 130 * 70 * 130 > 2^21), with several row-task blocks.
  const Matrix a = random_matrix(130, 70, 31);
  const Matrix b = random_matrix(70, 130, 32);
  const Matrix bt = random_matrix(130, 70, 33);
  const Matrix serial = gemm(a, b);
  const Matrix serial_nt = gemm_nt(a, bt);
  const Matrix serial_syrk = syrk(a);
  ASSERT_FALSE(parallel_enabled());
  for (const std::size_t threads : {1u, 2u, 5u}) {
    const ParallelScope scope(thread_backend(threads));
    ASSERT_TRUE(parallel_enabled());
    EXPECT_EQ(gemm(a, b), serial) << "threads=" << threads;
    EXPECT_EQ(gemm_nt(a, bt), serial_nt) << "threads=" << threads;
    EXPECT_EQ(syrk(a), serial_syrk) << "threads=" << threads;
  }
  EXPECT_FALSE(parallel_enabled());
}

TEST(ParallelFor, RunsEveryIndexOnceUnderBackend) {
  std::vector<std::atomic<int>> touched(257);
  for (auto& t : touched) t.store(0);
  const ParallelScope scope(thread_backend(4));
  parallel_for(touched.size(), [&](std::size_t i) { ++touched[i]; });
  for (std::size_t i = 0; i < touched.size(); ++i)
    EXPECT_EQ(touched[i].load(), 1) << "i=" << i;
}

TEST(ParallelFor, NestedScopesRestorePrevious) {
  EXPECT_FALSE(parallel_enabled());
  {
    const ParallelScope outer(thread_backend(2));
    EXPECT_TRUE(parallel_enabled());
    {
      const ParallelScope inner(nullptr);  // explicitly serial inner region
      EXPECT_FALSE(parallel_enabled());
    }
    EXPECT_TRUE(parallel_enabled());
  }
  EXPECT_FALSE(parallel_enabled());
}

}  // namespace
}  // namespace ppml::linalg
