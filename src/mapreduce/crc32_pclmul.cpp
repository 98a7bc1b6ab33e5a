// CRC-32 folding with carry-less multiplies. This translation unit is
// compiled with -mavx2 -mpclmul, so every instruction is VEX-encoded;
// crc32() in serde.cpp calls it only when the linalg dispatch seam
// (linalg::active_isa()) selects the AVX2 level and cpuid reports PCLMUL.
//
// The algorithm is the 4x128-bit folding of Gopal et al., "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ Instruction" (Intel,
// 2009), in the bit-reflected domain of the IEEE polynomial 0xEDB88320:
// four 128-bit accumulators fold 64 bytes per step with k1/k2, collapse to
// one with k3/k4, fold the remaining 16-byte blocks, reduce 128 -> 64 bits
// with k4/k5 and Barrett-reduce to 32 bits with P' and mu. The constants
// are the ones zlib and Chromium use in their crc32_simd. A CRC is a
// polynomial remainder, so the result equals the table-driven CRC exactly.
#if defined(PPML_HAVE_PCLMUL)

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

namespace ppml::mapreduce {

namespace {

// k1, k2: fold one 128-bit lane across 64 bytes (bit-reflected, 33 bits).
alignas(16) constexpr std::uint64_t kK1K2[2] = {0x0154442bd4, 0x01c6e41596};
// k3, k4: fold one 128-bit lane across 16 bytes.
alignas(16) constexpr std::uint64_t kK3K4[2] = {0x01751997d0, 0x00ccaa009e};
// k5: fold 96 bits down to 64.
alignas(16) constexpr std::uint64_t kK5K0[2] = {0x0163cd6124, 0x0000000000};
// P' (the polynomial) and mu = floor(x^64 / P), both reflected.
alignas(16) constexpr std::uint64_t kPolyMu[2] = {0x01db710641, 0x01f7011641};

inline __m128i load(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

inline __m128i constants(const std::uint64_t* k) {
  return _mm_load_si128(reinterpret_cast<const __m128i*>(k));
}

/// One fold step: both halves of `acc` carried forward by the distance
/// that `k` encodes, xor'd into `next`.
inline __m128i fold(__m128i acc, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

}  // namespace

/// Advances the raw (pre-inverted) CRC state `crc` over `len` bytes at `p`.
/// `len` must be a multiple of 16 and at least 64.
std::uint32_t crc32_fold_pclmul(const std::uint8_t* p, std::size_t len,
                                std::uint32_t crc) noexcept {
  __m128i x1 =
      _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  len -= 64;

  __m128i k = constants(kK1K2);
  for (; len >= 64; p += 64, len -= 64) {
    x1 = fold(x1, k, load(p));
    x2 = fold(x2, k, load(p + 16));
    x3 = fold(x3, k, load(p + 32));
    x4 = fold(x4, k, load(p + 48));
  }

  k = constants(kK3K4);
  x1 = fold(x1, k, x2);
  x1 = fold(x1, k, x3);
  x1 = fold(x1, k, x4);
  for (; len >= 16; p += 16, len -= 16) x1 = fold(x1, k, load(p));

  // 128 -> 64 bits.
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x2 = _mm_clmulepi64_si128(x1, k, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
  k = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(kK5K0));
  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k, 0x00),
                     x2);

  // Barrett reduction to 32 bits.
  k = constants(kPolyMu);
  x2 = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k, 0x10);
  x2 = _mm_clmulepi64_si128(_mm_and_si128(x2, mask32), k, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

}  // namespace ppml::mapreduce

#endif  // PPML_HAVE_PCLMUL
