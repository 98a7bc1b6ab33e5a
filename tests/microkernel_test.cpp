// Bit-identity contract of the runtime-dispatched SIMD microkernels
// (linalg/microkernel.h): every ISA level must produce EXACTLY the same
// bits as the scalar loops and the naive single-threaded oracles, for every
// shape — including the awkward ones (remainder columns, k = 1, row counts
// not divisible by the vector width). EXPECT_EQ on doubles throughout; any
// tolerance here would defeat the point of the contract.
//
// The suite is registered twice in ctest: once plain (dispatch resolves to
// the best ISA the machine has) and once with PPML_FORCE_ISA=scalar in the
// environment, so the scalar fallback paths stay exercised on AVX2 hosts.
#include "linalg/microkernel.h"

#include <gtest/gtest.h>

#include <bit>

#include <cstdlib>
#include <random>
#include <vector>

#include "blas_oracles.h"
#include "linalg/blas.h"
#include "linalg/common.h"
#include "svm/kernel.h"

namespace {

using ppml::InvalidArgument;
using ppml::linalg::Isa;
using ppml::linalg::Matrix;
using ppml::linalg::Vector;
namespace linalg = ppml::linalg;
namespace svm = ppml::svm;

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> normal(0.0, 1.0);
  Matrix m(rows, cols);
  for (double& v : m.data()) v = normal(rng);
  return m;
}

Vector random_vector(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> normal(0.0, 1.0);
  Vector v(n);
  for (double& e : v) e = normal(rng);
  return v;
}

void expect_matrices_identical(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a.data()[i], b.data()[i]) << "flat index " << i;
}

/// Pins the dispatcher to `isa` for the enclosing scope (skips the body of
/// a test when the level is unavailable — e.g. avx2 on a non-x86 build).
class ScopedIsa {
 public:
  explicit ScopedIsa(Isa isa) : available_(linalg::isa_available(isa)) {
    if (available_) linalg::force_isa(isa);
  }
  ~ScopedIsa() { linalg::clear_forced_isa(); }
  bool available() const { return available_; }

 private:
  bool available_;
};

// Shapes chosen to hit every remainder path: 4-wide AVX2 lanes leave
// 1/2/3-row tails at rows % 4 != 0, k = 1 exercises the degenerate inner
// loop, 65 x 257 crosses the blocking tile boundaries off-by-one.
struct Shape {
  std::size_t m, k, n;
};
const Shape kShapes[] = {
    {1, 1, 1}, {3, 1, 5}, {4, 4, 4},  {5, 7, 3},
    {8, 16, 8}, {17, 9, 13}, {65, 257, 31}, {33, 64, 66},
};
const std::uint64_t kSeeds[] = {11, 29, 47};
// Every dispatch level; the loops skip the ones this machine cannot run.
const Isa kAllIsas[] = {Isa::kScalar, Isa::kAvx2, Isa::kAvx512};

class MicrokernelIdentity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MicrokernelIdentity, GemmMatchesNaiveOnEveryIsa) {
  for (const Shape& s : kShapes) {
    const Matrix a = random_matrix(s.m, s.k, GetParam());
    const Matrix b = random_matrix(s.k, s.n, GetParam() ^ 0xabcdULL);
    const Matrix oracle = linalg::gemm_naive(a, b);
    for (Isa isa : kAllIsas) {
      ScopedIsa pin(isa);
      if (!pin.available()) continue;
      expect_matrices_identical(linalg::gemm(a, b), oracle);
    }
  }
}

TEST_P(MicrokernelIdentity, GemmNtMatchesNaiveOnEveryIsa) {
  for (const Shape& s : kShapes) {
    const Matrix a = random_matrix(s.m, s.k, GetParam());
    const Matrix b = random_matrix(s.n, s.k, GetParam() ^ 0x77ULL);
    const Matrix oracle = linalg::gemm_nt_naive(a, b);
    for (Isa isa : kAllIsas) {
      ScopedIsa pin(isa);
      if (!pin.available()) continue;
      expect_matrices_identical(linalg::gemm_nt(a, b), oracle);
    }
  }
}

TEST_P(MicrokernelIdentity, SyrkAndGramsMatchScalarOnEveryIsa) {
  for (const Shape& s : kShapes) {
    const Matrix a = random_matrix(s.m, s.k, GetParam() ^ 0x5151ULL);
    Matrix syrk_scalar, gram_scalar;
    Vector gemv_scalar;
    const Vector x = random_vector(s.k, GetParam() ^ 0x99ULL);
    {
      ScopedIsa pin(Isa::kScalar);
      syrk_scalar = linalg::syrk(a);
      gram_scalar = linalg::gram_at_a(a);
      gemv_scalar = linalg::gemv(a, x);
    }
    for (Isa isa : {Isa::kAvx2, Isa::kAvx512}) {
      ScopedIsa pin(isa);
      if (!pin.available()) continue;
      expect_matrices_identical(linalg::syrk(a), syrk_scalar);
      expect_matrices_identical(linalg::gram_at_a(a), gram_scalar);
      const Vector got = linalg::gemv(a, x);
      ASSERT_EQ(got.size(), gemv_scalar.size());
      for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], gemv_scalar[i]);
    }
  }
}

TEST_P(MicrokernelIdentity, KernelRowsMatchPairwiseOracleOnEveryIsa) {
  const svm::Kernel kernels[] = {
      svm::Kernel::rbf(0.37),
      svm::Kernel::polynomial(3, 0.5, 1.25),
      svm::Kernel::linear(),
      svm::Kernel::sigmoid(0.11, -0.2),
  };
  for (const Shape& s : kShapes) {
    const Matrix b = random_matrix(s.m, s.k, GetParam() ^ 0xbeefULL);
    const Vector x = random_vector(s.k, GetParam() ^ 0x33ULL);
    for (const svm::Kernel& kernel : kernels) {
      // Pairwise oracle: one scalar kernel evaluation per row, no strip
      // batching anywhere.
      Vector oracle(b.rows());
      for (std::size_t r = 0; r < b.rows(); ++r)
        oracle[r] = kernel(x, b.row(r));
      for (Isa isa : kAllIsas) {
        ScopedIsa pin(isa);
        if (!pin.available()) continue;
        const Vector got = svm::kernel_row(kernel, x, b);
        ASSERT_EQ(got.size(), oracle.size());
        for (std::size_t r = 0; r < got.size(); ++r)
          EXPECT_EQ(got[r], oracle[r]) << kernel.describe() << " row " << r;
      }
    }
  }
}

TEST_P(MicrokernelIdentity, RankUpdateMatchesPerElementOracleOnEveryIsa) {
  // Shape s: kk = s.k panel rows of width s.n + s.m (so the 16-, 4- and
  // 1-column tails are all hit), row stride padded past the width.
  for (const Shape& s : kShapes) {
    const std::size_t n = s.n + s.m;
    const std::size_t ldx = n + 3;
    const Vector a = random_vector(s.k, GetParam() ^ 0x4242ULL);
    const Vector x = random_vector(s.k * ldx, GetParam() ^ 0x1717ULL);
    const Vector y0 = random_vector(n, GetParam() ^ 0x2323ULL);
    Vector oracle = y0;
    for (std::size_t j = 0; j < n; ++j) {
      double acc = oracle[j];
      for (std::size_t p = 0; p < s.k; ++p) acc += a[p] * x[p * ldx + j];
      oracle[j] = acc;
    }
    for (Isa isa : kAllIsas) {
      ScopedIsa pin(isa);
      if (!pin.available()) continue;
      Vector y = y0;
      linalg::microkernels().rank_update(a.data(), x.data(), ldx, s.k,
                                         y.data(), n);
      for (std::size_t j = 0; j < n; ++j)
        EXPECT_EQ(y[j], oracle[j]) << linalg::isa_name(isa) << " column " << j;
    }
  }
}

TEST_P(MicrokernelIdentity, NarrowRankUpdateMatchesScalarBitwise) {
  // n = 1..9 columns over 1000 rows: every width the 4-column lanes leave a
  // 1-, 2- or 3-column tail for (and n < 4, where the tail is everything)
  // must give the scalar table's bits at every level.
  constexpr std::size_t kRows = 1000;
  for (std::size_t n = 1; n <= 9; ++n) {
    const std::size_t ldx = n + 1;
    const Vector a = random_vector(kRows, GetParam() ^ 0x5151ULL);
    const Vector x = random_vector(kRows * ldx, GetParam() ^ 0x6262ULL);
    const Vector y0 = random_vector(n, GetParam() ^ 0x7373ULL);
    Vector scalar = y0;
    {
      ScopedIsa pin(Isa::kScalar);
      linalg::microkernels().rank_update(a.data(), x.data(), ldx, kRows,
                                         scalar.data(), n);
    }
    for (Isa isa : kAllIsas) {
      ScopedIsa pin(isa);
      if (!pin.available()) continue;
      Vector y = y0;
      linalg::microkernels().rank_update(a.data(), x.data(), ldx, kRows,
                                         y.data(), n);
      for (std::size_t j = 0; j < n; ++j)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(y[j]),
                  std::bit_cast<std::uint64_t>(scalar[j]))
            << linalg::isa_name(isa) << " n=" << n << " column " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(MultiSeed, MicrokernelIdentity,
                         ::testing::ValuesIn(kSeeds));

// ------------------------------------------------------------- dispatcher

TEST(MicrokernelDispatch, ScalarIsAlwaysAvailable) {
  EXPECT_TRUE(linalg::isa_available(Isa::kScalar));
  // detected_isa() must itself be runnable.
  EXPECT_TRUE(linalg::isa_available(linalg::detected_isa()));
}

TEST(MicrokernelDispatch, ForceIsaPinsTheActiveTable) {
  {
    ScopedIsa pin(Isa::kScalar);
    EXPECT_EQ(linalg::active_isa(), Isa::kScalar);
    EXPECT_STREQ(linalg::active_isa_name(), "scalar");
    EXPECT_EQ(linalg::microkernels().isa, Isa::kScalar);
  }
  if (linalg::isa_available(Isa::kAvx2)) {
    ScopedIsa pin(Isa::kAvx2);
    EXPECT_EQ(linalg::active_isa(), Isa::kAvx2);
    EXPECT_STREQ(linalg::active_isa_name(), "avx2");
    EXPECT_EQ(linalg::microkernels().isa, Isa::kAvx2);
  }
  if (linalg::isa_available(Isa::kAvx512)) {
    ScopedIsa pin(Isa::kAvx512);
    EXPECT_EQ(linalg::active_isa(), Isa::kAvx512);
    EXPECT_STREQ(linalg::active_isa_name(), "avx512");
    EXPECT_EQ(linalg::microkernels().isa, Isa::kAvx512);
    // The level runs the AVX2 linalg kernels under its own name.
    ASSERT_TRUE(linalg::isa_available(Isa::kAvx2));
    const linalg::Microkernels& avx512 = linalg::microkernels();
    ScopedIsa avx2(Isa::kAvx2);
    EXPECT_EQ(avx512.axpy, linalg::microkernels().axpy);
    EXPECT_EQ(avx512.dot_rows, linalg::microkernels().dot_rows);
    EXPECT_EQ(avx512.sqdist_rows, linalg::microkernels().sqdist_rows);
    EXPECT_EQ(avx512.rank_update, linalg::microkernels().rank_update);
  }
}

TEST(MicrokernelDispatch, DetectedIsaIsTheHighestAvailable) {
  for (Isa isa : kAllIsas)
    if (linalg::isa_available(isa)) {
      EXPECT_GE(linalg::detected_isa(), isa) << linalg::isa_name(isa);
    }
}

TEST(MicrokernelDispatch, ClearRestoresAutomaticResolution) {
  linalg::force_isa(Isa::kScalar);
  linalg::clear_forced_isa();
  // With no force and no env override the probe picks the best level.
  if (std::getenv("PPML_FORCE_ISA") == nullptr) {
    EXPECT_EQ(linalg::active_isa(), linalg::detected_isa());
  }
}

TEST(MicrokernelDispatch, EnvOverrideIsHonored) {
  // The ctest forced-scalar variant runs this whole binary with
  // PPML_FORCE_ISA=scalar; pin that the dispatcher actually obeyed it.
  if (const char* forced = std::getenv("PPML_FORCE_ISA")) {
    linalg::clear_forced_isa();
    const auto parsed = linalg::parse_isa(forced);
    ASSERT_TRUE(parsed.has_value()) << "bad PPML_FORCE_ISA: " << forced;
    EXPECT_EQ(linalg::active_isa(), *parsed);
  } else {
    GTEST_SKIP() << "PPML_FORCE_ISA not set in this variant";
  }
}

TEST(MicrokernelDispatch, ForceUnavailableIsaThrows) {
  bool any_unavailable = false;
  for (Isa isa : kAllIsas)
    if (!linalg::isa_available(isa)) {
      any_unavailable = true;
      EXPECT_THROW(linalg::force_isa(isa), InvalidArgument)
          << linalg::isa_name(isa);
    }
  if (!any_unavailable)
    GTEST_SKIP() << "every level runs here; nothing is unavailable to force";
}

TEST(MicrokernelDispatch, ParseIsaRoundTrips) {
  EXPECT_EQ(linalg::parse_isa("scalar"), Isa::kScalar);
  EXPECT_EQ(linalg::parse_isa("avx2"), Isa::kAvx2);
  EXPECT_EQ(linalg::parse_isa("avx512"), Isa::kAvx512);
  EXPECT_EQ(linalg::parse_isa("neon"), std::nullopt);
  EXPECT_EQ(linalg::parse_isa("avx512f"), std::nullopt);
  EXPECT_EQ(linalg::parse_isa(""), std::nullopt);
  EXPECT_STREQ(linalg::isa_name(Isa::kScalar), "scalar");
  EXPECT_STREQ(linalg::isa_name(Isa::kAvx2), "avx2");
  EXPECT_STREQ(linalg::isa_name(Isa::kAvx512), "avx512");
  for (Isa isa : kAllIsas)
    EXPECT_EQ(linalg::parse_isa(linalg::isa_name(isa)), isa);
}

}  // namespace
