// Sixteen-block AVX-512 ChaCha20 keystream, and the fixed-point encode
// conversion that runs beside it on the mask path. This translation unit is
// the only one compiled with -mavx512f -mavx512dq; ChaCha20Stream::fill and
// FixedPointCodec::encode_vector call it only when the linalg dispatch seam
// (linalg::active_isa()) selects the avx512 level, so the rest of the crypto
// library stays baseline-ISA clean.
//
// Keystream layout: one __m512i per state word, lane b holding that word of
// block b, so one pass of the RFC 8439 double-round loop computes sixteen
// consecutive blocks (counters c+0 .. c+15). Every lane runs exactly the
// scalar block function's 32-bit adds, xors and rotations (vprold for every
// rotation), and the counter lanes wrap modulo 2^32 exactly as the scalar
// `input_[12] += 1` does, so the output is the scalar keystream bit for bit.
// A 16x16 word transpose in registers turns the word-major lanes back into
// block-major 64-byte rows, which are stored straight into the caller's
// buffer (unaligned stores).
#if defined(PPML_HAVE_AVX512)

// GCC 12 reports -Wmaybe-uninitialized inside avx512fintrin.h for every
// _mm512_rol_epi32: the intrinsic passes _mm512_undefined_epi32() as the
// (unused, all lanes selected) merge source. Nothing here reads it.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>

#include <cstddef>
#include <cstdint>

namespace ppml::crypto {

namespace {

inline void quarter_round(__m512i& a, __m512i& b, __m512i& c, __m512i& d) {
  a = _mm512_add_epi32(a, b); d = _mm512_rol_epi32(_mm512_xor_si512(d, a), 16);
  c = _mm512_add_epi32(c, d); b = _mm512_rol_epi32(_mm512_xor_si512(b, c), 12);
  a = _mm512_add_epi32(a, b); d = _mm512_rol_epi32(_mm512_xor_si512(d, a), 8);
  c = _mm512_add_epi32(c, d); b = _mm512_rol_epi32(_mm512_xor_si512(b, c), 7);
}

// x[w] holds word w of blocks 0..15 (lane b = block b). Transposes in
// registers and stores the 16 words of block b at out + 8*b (in u64s: each
// block is 8 u64s, and little-endian word pairs are the u64 words).
inline void transpose_store(const __m512i x[16], std::uint64_t* out) {
  // u[g][j], 128-bit lane L: words 4g..4g+3 of block 4L+j.
  __m512i u[4][4];
  for (int g = 0; g < 4; ++g) {
    const __m512i t0 = _mm512_unpacklo_epi32(x[4 * g], x[4 * g + 1]);
    const __m512i t1 = _mm512_unpackhi_epi32(x[4 * g], x[4 * g + 1]);
    const __m512i t2 = _mm512_unpacklo_epi32(x[4 * g + 2], x[4 * g + 3]);
    const __m512i t3 = _mm512_unpackhi_epi32(x[4 * g + 2], x[4 * g + 3]);
    u[g][0] = _mm512_unpacklo_epi64(t0, t2);
    u[g][1] = _mm512_unpackhi_epi64(t0, t2);
    u[g][2] = _mm512_unpacklo_epi64(t1, t3);
    u[g][3] = _mm512_unpackhi_epi64(t1, t3);
  }
  // For each j, a 4x4 transpose of 128-bit lanes across u[0..3][j] gives
  // the rows of blocks j, 4+j, 8+j and 12+j.
  auto store = [out](int block, __m512i v) {
    _mm512_storeu_si512(out + 8 * block, v);
  };
  for (int j = 0; j < 4; ++j) {
    const __m512i s0 = _mm512_shuffle_i32x4(u[0][j], u[1][j], 0x44);
    const __m512i s1 = _mm512_shuffle_i32x4(u[0][j], u[1][j], 0xEE);
    const __m512i s2 = _mm512_shuffle_i32x4(u[2][j], u[3][j], 0x44);
    const __m512i s3 = _mm512_shuffle_i32x4(u[2][j], u[3][j], 0xEE);
    store(j, _mm512_shuffle_i32x4(s0, s2, 0x88));
    store(4 + j, _mm512_shuffle_i32x4(s0, s2, 0xDD));
    store(8 + j, _mm512_shuffle_i32x4(s1, s3, 0x88));
    store(12 + j, _mm512_shuffle_i32x4(s1, s3, 0xDD));
  }
}

}  // namespace

// Declared in prng.cpp. Writes `batches` x 128 keystream words to `out`:
// batch k holds blocks with counters input[12] + 16k + 0..15. Does not
// modify `input`; the caller advances its counter by 16 * batches.
void chacha20_blocks16_avx512(const std::uint32_t* input, std::size_t batches,
                              std::uint64_t* out) noexcept {
  __m512i counter = _mm512_add_epi32(
      _mm512_set1_epi32(static_cast<int>(input[12])),
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
  const __m512i sixteen = _mm512_set1_epi32(16);

  for (std::size_t k = 0; k < batches; ++k, out += 128) {
    __m512i x[16];
    for (int i = 0; i < 16; ++i)
      x[i] = _mm512_set1_epi32(static_cast<int>(input[i]));
    x[12] = counter;
    for (int round = 0; round < 10; ++round) {  // 20 rounds = 10 double-rounds
      quarter_round(x[0], x[4], x[8], x[12]);
      quarter_round(x[1], x[5], x[9], x[13]);
      quarter_round(x[2], x[6], x[10], x[14]);
      quarter_round(x[3], x[7], x[11], x[15]);
      quarter_round(x[0], x[5], x[10], x[15]);
      quarter_round(x[1], x[6], x[11], x[12]);
      quarter_round(x[2], x[7], x[8], x[13]);
      quarter_round(x[3], x[4], x[9], x[14]);
    }
    for (int i = 0; i < 16; ++i)
      x[i] = _mm512_add_epi32(
          x[i], i == 12 ? counter
                        : _mm512_set1_epi32(static_cast<int>(input[i])));
    transpose_store(x, out);
    counter = _mm512_add_epi32(counter, sixteen);
  }
}

// Declared in fixed_point.cpp. out[i] = v[i] * scale converted to int64 in
// the MXCSR rounding mode (round to nearest even by default, as nearbyint
// and rint round), embedded in two's complement. The caller has already
// checked every |v[i]| against a bound that keeps the product inside int64,
// and scale is a power of two, so the product is exact.
void fixed_point_encode_avx512(const double* v, std::size_t n, double scale,
                               std::uint64_t* out) noexcept {
  const __m512d s = _mm512_set1_pd(scale);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm512_storeu_si512(
        out + i, _mm512_cvtpd_epi64(_mm512_mul_pd(_mm512_loadu_pd(v + i), s)));
  if (i < n) {
    const auto tail = static_cast<__mmask8>((1u << (n - i)) - 1u);
    _mm512_mask_storeu_epi64(
        out + i, tail,
        _mm512_cvtpd_epi64(_mm512_mul_pd(_mm512_maskz_loadu_pd(tail, v + i),
                                         s)));
  }
}

}  // namespace ppml::crypto

#pragma GCC diagnostic pop

#endif  // PPML_HAVE_AVX512
