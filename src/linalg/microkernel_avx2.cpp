// AVX2 microkernels. This translation unit is compiled with -mavx2 and
// deliberately WITHOUT -mfma: the bit-identity contract needs separate
// multiply and add instructions, and keeping FMA out of the compiler's
// instruction set makes contraction impossible rather than merely avoided.
//
// Strategy (see microkernel.h): vectorize across output elements. Each
// output element's accumulator lives in its own 64-bit lane and is fed in
// strictly ascending k with vmulpd + vaddpd — the same IEEE-754 sequence the
// scalar loop applies — so results are bit-identical to the scalar table at
// every shape, including remainders handled by the trailing scalar loops.
#if defined(PPML_HAVE_AVX2)

#include <immintrin.h>

#include "linalg/microkernel.h"

namespace ppml::linalg {

namespace {

void axpy_avx2(double a, const double* x, double* y, std::size_t n) {
  const __m256d va = _mm256_set1_pd(a);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d vx = _mm256_loadu_pd(x + j);
    const __m256d vy = _mm256_loadu_pd(y + j);
    // y[j] = y[j] + a*x[j], one mul and one add per element — identical to
    // the scalar statement `y[j] += a * x[j]`.
    _mm256_storeu_pd(y + j, _mm256_add_pd(vy, _mm256_mul_pd(va, vx)));
  }
  for (; j < n; ++j) y[j] += a * x[j];
}

// Transpose four 4-wide row segments (b0..b3 at columns [k, k+4)) into four
// column vectors v[c] = {b0[k+c], b1[k+c], b2[k+c], b3[k+c]}.
inline void transpose4x4(const double* b0, const double* b1, const double* b2,
                         const double* b3, std::size_t k, __m256d v[4]) {
  const __m256d r0 = _mm256_loadu_pd(b0 + k);
  const __m256d r1 = _mm256_loadu_pd(b1 + k);
  const __m256d r2 = _mm256_loadu_pd(b2 + k);
  const __m256d r3 = _mm256_loadu_pd(b3 + k);
  const __m256d t0 = _mm256_unpacklo_pd(r0, r1);
  const __m256d t1 = _mm256_unpackhi_pd(r0, r1);
  const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
  const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
  v[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
  v[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
  v[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
  v[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
}

void dot_rows_avx2(const double* x, const double* b, std::size_t ldb,
                   std::size_t rows, std::size_t k, double* out) {
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const double* b0 = b + (r + 0) * ldb;
    const double* b1 = b + (r + 1) * ldb;
    const double* b2 = b + (r + 2) * ldb;
    const double* b3 = b + (r + 3) * ldb;
    // Lane c of acc is row (r+c)'s private accumulator; every k feeds all
    // four lanes with one broadcast-mul-add, in ascending k order.
    __m256d acc = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 4 <= k; i += 4) {
      __m256d v[4];
      transpose4x4(b0, b1, b2, b3, i, v);
      for (int c = 0; c < 4; ++c) {
        const __m256d vx = _mm256_set1_pd(x[i + static_cast<std::size_t>(c)]);
        acc = _mm256_add_pd(acc, _mm256_mul_pd(vx, v[c]));
      }
    }
    for (; i < k; ++i) {
      const __m256d vb = _mm256_set_pd(b3[i], b2[i], b1[i], b0[i]);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(x[i]), vb));
    }
    _mm256_storeu_pd(out + r, acc);
  }
  for (; r < rows; ++r) {
    const double* br = b + r * ldb;
    double acc = 0.0;
    for (std::size_t i = 0; i < k; ++i) acc += x[i] * br[i];
    out[r] = acc;
  }
}

void sqdist_rows_avx2(const double* x, const double* b, std::size_t ldb,
                      std::size_t rows, std::size_t k, double* out) {
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const double* b0 = b + (r + 0) * ldb;
    const double* b1 = b + (r + 1) * ldb;
    const double* b2 = b + (r + 2) * ldb;
    const double* b3 = b + (r + 3) * ldb;
    __m256d acc = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 4 <= k; i += 4) {
      __m256d v[4];
      transpose4x4(b0, b1, b2, b3, i, v);
      for (int c = 0; c < 4; ++c) {
        const __m256d vx = _mm256_set1_pd(x[i + static_cast<std::size_t>(c)]);
        // d = x[k] - b[k]; acc += d*d — sub, mul, add per element, exactly
        // the scalar sequence.
        const __m256d d = _mm256_sub_pd(vx, v[c]);
        acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
      }
    }
    for (; i < k; ++i) {
      const __m256d vb = _mm256_set_pd(b3[i], b2[i], b1[i], b0[i]);
      const __m256d d = _mm256_sub_pd(_mm256_set1_pd(x[i]), vb);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
    }
    _mm256_storeu_pd(out + r, acc);
  }
  for (; r < rows; ++r) {
    const double* br = b + r * ldb;
    double acc = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      const double d = x[i] - br[i];
      acc += d * d;
    }
    out[r] = acc;
  }
}

// The last n mod 4 columns: one p loop feeds all T of them, so their T
// independent chains overlap instead of running one after the other. Each
// y[t] still takes a[p] * x_p[t] by one multiply and one add (this file is
// built without -mfma) in ascending p, as the scalar loop does.
template <std::size_t T>
void rank_update_tail(const double* a, const double* x, std::size_t ldx,
                      std::size_t kk, double* y) {
  double acc[T];
  for (std::size_t t = 0; t < T; ++t) acc[t] = y[t];
  for (std::size_t p = 0; p < kk; ++p, x += ldx) {
    const double ap = a[p];
    for (std::size_t t = 0; t < T; ++t) acc[t] += ap * x[t];
  }
  for (std::size_t t = 0; t < T; ++t) y[t] = acc[t];
}

// Register tile of 16 columns: four accumulators hold y[j..j+16) across all
// kk rows of x, so y is loaded and stored once per tile rather than once per
// row. Lane j is fed a[p]*x_p[j] by vmulpd + vaddpd in ascending p — the
// scalar loop's sequence.
void rank_update_avx2(const double* a, const double* x, std::size_t ldx,
                      std::size_t kk, double* y, std::size_t n) {
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    __m256d y0 = _mm256_loadu_pd(y + j);
    __m256d y1 = _mm256_loadu_pd(y + j + 4);
    __m256d y2 = _mm256_loadu_pd(y + j + 8);
    __m256d y3 = _mm256_loadu_pd(y + j + 12);
    const double* xp = x + j;
    for (std::size_t p = 0; p < kk; ++p, xp += ldx) {
      const __m256d va = _mm256_set1_pd(a[p]);
      y0 = _mm256_add_pd(y0, _mm256_mul_pd(va, _mm256_loadu_pd(xp)));
      y1 = _mm256_add_pd(y1, _mm256_mul_pd(va, _mm256_loadu_pd(xp + 4)));
      y2 = _mm256_add_pd(y2, _mm256_mul_pd(va, _mm256_loadu_pd(xp + 8)));
      y3 = _mm256_add_pd(y3, _mm256_mul_pd(va, _mm256_loadu_pd(xp + 12)));
    }
    _mm256_storeu_pd(y + j, y0);
    _mm256_storeu_pd(y + j + 4, y1);
    _mm256_storeu_pd(y + j + 8, y2);
    _mm256_storeu_pd(y + j + 12, y3);
  }
  for (; j + 4 <= n; j += 4) {
    __m256d acc = _mm256_loadu_pd(y + j);
    const double* xp = x + j;
    for (std::size_t p = 0; p < kk; ++p, xp += ldx)
      acc = _mm256_add_pd(
          acc, _mm256_mul_pd(_mm256_set1_pd(a[p]), _mm256_loadu_pd(xp)));
    _mm256_storeu_pd(y + j, acc);
  }
  switch (n - j) {
    case 3: rank_update_tail<3>(a, x + j, ldx, kk, y + j); break;
    case 2: rank_update_tail<2>(a, x + j, ldx, kk, y + j); break;
    case 1: rank_update_tail<1>(a, x + j, ldx, kk, y + j); break;
    default: break;
  }
}

constexpr Microkernels kAvx2Table{Isa::kAvx2,       "avx2",
                                  axpy_avx2,        dot_rows_avx2,
                                  sqdist_rows_avx2, rank_update_avx2};

// The avx512 level runs these same kernels under its own name.
constexpr Microkernels kAvx512Table{Isa::kAvx512,     "avx512",
                                    axpy_avx2,        dot_rows_avx2,
                                    sqdist_rows_avx2, rank_update_avx2};

}  // namespace

const Microkernels& avx2_microkernels() noexcept { return kAvx2Table; }
const Microkernels& avx512_microkernels() noexcept { return kAvx512Table; }

}  // namespace ppml::linalg

#endif  // PPML_HAVE_AVX2
