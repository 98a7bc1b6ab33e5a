// AVX2 fast pass for the bisection in solve_diagonal_qp (diagonal_qp.cpp).
// This translation unit is compiled with -mavx2 and deliberately WITHOUT
// -mfma; solve_diagonal_qp calls it only when the linalg dispatch seam
// (linalg::active_isa()) selects the AVX2 level, so the rest of the qp
// library stays baseline-ISA clean.
//
// Every lane builds the term t_i = y_i * clip((p_i - nu*y_i)/d_i, 0, C)
// with the serial loop's IEEE operations in the serial order — one
// multiply, subtract, divide, max, min and multiply, no contraction — so
// each term is bit-identical to the serial term. The clip is
// min(C, max(0, q)) with the constant as the FIRST operand: vmaxpd/vminpd
// return their second operand on NaN and on equal zeros, which is exactly
// what std::max(q, 0.0) and std::min(q, C) return. Only the order in which
// the terms are summed differs from the serial pass; the caller certifies
// that the difference cannot change its decision.
#if defined(PPML_HAVE_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>

namespace ppml::qp {

namespace {

inline __m256d terms4(const double* p, const double* y, const double* d,
                      __m256d nu, __m256d c, __m256d zero) {
  const __m256d vy = _mm256_loadu_pd(y);
  const __m256d q = _mm256_div_pd(
      _mm256_sub_pd(_mm256_loadu_pd(p), _mm256_mul_pd(nu, vy)),
      _mm256_loadu_pd(d));
  return _mm256_mul_pd(vy, _mm256_min_pd(c, _mm256_max_pd(zero, q)));
}

/// kPack[keep]: 32-bit lane indices that move the 64-bit lanes whose bits
/// are set in `keep` to the front, in order.
constexpr std::array<std::array<int, 8>, 16> make_pack_table() {
  std::array<std::array<int, 8>, 16> table{};
  for (int keep = 0; keep < 16; ++keep) {
    int out = 0;
    for (int lane = 0; lane < 4; ++lane) {
      if ((keep >> lane & 1) == 0) continue;
      table[keep][2 * out] = 2 * lane;
      table[keep][2 * out + 1] = 2 * lane + 1;
      ++out;
    }
  }
  return table;
}
constexpr auto kPack = make_pack_table();

inline double lane_sum(__m256d v) {
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, v);
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

}  // namespace

/// Writes the n terms t_i to `terms` and returns their sum in eight
/// lanes, with the sum of |t_i| in `*abs_sum`. No term takes part in more
/// than n/8 + 6 additions. Unless `lo` is null, also counts the i with
/// t_i == hi[i] into ties[0] and with lo[i] == t_i into ties[1].
double diagonal_terms_avx2(const double* p, const double* y, const double* d,
                           std::size_t n, double nu, double c, double* terms,
                           double* abs_sum, const double* lo, const double* hi,
                           std::size_t* ties) noexcept {
  const __m256d vnu = _mm256_set1_pd(nu);
  const __m256d vc = _mm256_set1_pd(c);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d sign = _mm256_set1_pd(-0.0);
  __m256d sum0 = zero;
  __m256d sum1 = zero;
  __m256d abs0 = zero;
  __m256d abs1 = zero;
  std::size_t ties_hi = 0;
  std::size_t ties_lo = 0;
  const auto count_ties = [&](std::size_t at, __m256d t) {
    const auto count = [](__m256d a, __m256d b) {
      return static_cast<std::size_t>(std::popcount(static_cast<unsigned>(
          _mm256_movemask_pd(_mm256_cmp_pd(a, b, _CMP_EQ_OQ)))));
    };
    ties_hi += count(t, _mm256_loadu_pd(hi + at));
    ties_lo += count(_mm256_loadu_pd(lo + at), t);
  };
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d t0 = terms4(p + i, y + i, d + i, vnu, vc, zero);
    const __m256d t1 = terms4(p + i + 4, y + i + 4, d + i + 4, vnu, vc, zero);
    _mm256_storeu_pd(terms + i, t0);
    _mm256_storeu_pd(terms + i + 4, t1);
    if (lo != nullptr) {
      count_ties(i, t0);
      count_ties(i + 4, t1);
    }
    sum0 = _mm256_add_pd(sum0, t0);
    sum1 = _mm256_add_pd(sum1, t1);
    abs0 = _mm256_add_pd(abs0, _mm256_andnot_pd(sign, t0));
    abs1 = _mm256_add_pd(abs1, _mm256_andnot_pd(sign, t1));
  }
  if (i + 4 <= n) {
    const __m256d t0 = terms4(p + i, y + i, d + i, vnu, vc, zero);
    _mm256_storeu_pd(terms + i, t0);
    if (lo != nullptr) count_ties(i, t0);
    sum0 = _mm256_add_pd(sum0, t0);
    abs0 = _mm256_add_pd(abs0, _mm256_andnot_pd(sign, t0));
    i += 4;
  }
  double sum = lane_sum(_mm256_add_pd(sum0, sum1));
  double abs = lane_sum(_mm256_add_pd(abs0, abs1));
  for (; i < n; ++i) {
    const double t =
        y[i] * std::min(std::max((p[i] - nu * y[i]) / d[i], 0.0), c);
    terms[i] = t;
    sum += t;
    abs += std::abs(t);
    if (lo != nullptr) {
      ties_hi += t == hi[i] ? 1 : 0;
      ties_lo += lo[i] == t ? 1 : 0;
    }
  }
  if (lo != nullptr) {
    ties[0] = ties_hi;
    ties[1] = ties_lo;
  }
  *abs_sum = abs;
  return sum;
}

/// Retires every j < n with lo[j] == hi[j]: adds lo[j] into retired[0]
/// and |lo[j]| into retired[1], and packs the other elements' p, y, d, lo
/// and hi to the front of out[], lo and hi, in order. out[] may equal
/// in[] (the store for element j never lands past j). Returns the number
/// kept. A retired value takes part in at most n/4 + 6 additions here.
std::size_t diagonal_pack_avx2(const double* const in[3],
                               double* const out[3], double* lo, double* hi,
                               std::size_t n, double* retired) noexcept {
  const __m256d sign = _mm256_set1_pd(-0.0);
  __m256d sum = _mm256_setzero_pd();
  __m256d abs = _mm256_setzero_pd();
  std::size_t kept = 0;
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d vlo = _mm256_loadu_pd(lo + j);
    const __m256d vhi = _mm256_loadu_pd(hi + j);
    const __m256d equal = _mm256_cmp_pd(vlo, vhi, _CMP_EQ_OQ);
    sum = _mm256_add_pd(sum, _mm256_and_pd(equal, vlo));
    abs = _mm256_add_pd(abs, _mm256_and_pd(equal, _mm256_andnot_pd(sign, vlo)));
    const int keep = ~_mm256_movemask_pd(equal) & 0xF;
    const __m256i pack = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(kPack[keep].data()));
    const auto store = [&](double* dst, __m256d v) {
      _mm256_storeu_pd(dst + kept, _mm256_castps_pd(_mm256_permutevar8x32_ps(
                                       _mm256_castpd_ps(v), pack)));
    };
    for (int k = 0; k < 3; ++k) store(out[k], _mm256_loadu_pd(in[k] + j));
    store(lo, vlo);
    store(hi, vhi);
    kept += static_cast<std::size_t>(
        std::popcount(static_cast<unsigned>(keep)));
  }
  double retired_sum = lane_sum(sum);
  double retired_abs = lane_sum(abs);
  for (; j < n; ++j) {
    if (lo[j] == hi[j]) {
      retired_sum += lo[j];
      retired_abs += std::abs(lo[j]);
      continue;
    }
    for (int k = 0; k < 3; ++k) out[k][kept] = in[k][j];
    lo[kept] = lo[j];
    hi[kept] = hi[j];
    ++kept;
  }
  retired[0] += retired_sum;
  retired[1] += retired_abs;
  return kept;
}

}  // namespace ppml::qp

#endif  // PPML_HAVE_AVX2
