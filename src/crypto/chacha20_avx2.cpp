// Eight-block AVX2 ChaCha20 keystream. This translation unit is compiled
// with -mavx2; ChaCha20Stream::fill calls it only when the linalg dispatch
// seam (linalg::active_isa()) selects the AVX2 level, so the rest of the
// crypto library stays baseline-ISA clean.
//
// Layout: one __m256i per state word, lane b holding that word of block b,
// so one pass of the RFC 8439 double-round loop computes eight consecutive
// blocks (counters c+0 .. c+7). Every lane runs exactly the scalar block
// function's 32-bit adds, xors and rotations, and the counter lanes wrap
// modulo 2^32 exactly as the scalar `input_[12] += 1` does, so the output
// is the scalar keystream bit for bit. An 8x8 word transpose in registers
// turns the word-major lanes back into block-major 32-byte rows, which are
// stored straight into the caller's buffer (unaligned stores).
#if defined(PPML_HAVE_AVX2)

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

namespace ppml::crypto {

namespace {

inline __m256i rotl16(__m256i x) {
  const __m256i k = _mm256_setr_epi8(2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14,
                                     15, 12, 13, 2, 3, 0, 1, 6, 7, 4, 5, 10,
                                     11, 8, 9, 14, 15, 12, 13);
  return _mm256_shuffle_epi8(x, k);
}

inline __m256i rotl8(__m256i x) {
  const __m256i k = _mm256_setr_epi8(3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15,
                                     12, 13, 14, 3, 0, 1, 2, 7, 4, 5, 6, 11,
                                     8, 9, 10, 15, 12, 13, 14);
  return _mm256_shuffle_epi8(x, k);
}

template <int kBits>
inline __m256i rotl(__m256i x) {
  return _mm256_or_si256(_mm256_slli_epi32(x, kBits),
                         _mm256_srli_epi32(x, 32 - kBits));
}

inline void quarter_round(__m256i& a, __m256i& b, __m256i& c, __m256i& d) {
  a = _mm256_add_epi32(a, b); d = rotl16(_mm256_xor_si256(d, a));
  c = _mm256_add_epi32(c, d); b = rotl<12>(_mm256_xor_si256(b, c));
  a = _mm256_add_epi32(a, b); d = rotl8(_mm256_xor_si256(d, a));
  c = _mm256_add_epi32(c, d); b = rotl<7>(_mm256_xor_si256(b, c));
}

// r[i] holds word (w0 + i) of blocks 0..7 (lane b = block b). Transposes in
// registers and stores words w0..w0+7 of block b at out + 8*b (in u64s:
// each block is 8 u64s, and little-endian word pairs are the u64 words).
inline void transpose_store(const __m256i r[8], std::uint64_t* out) {
  const __m256i t0 = _mm256_unpacklo_epi32(r[0], r[1]);
  const __m256i t1 = _mm256_unpackhi_epi32(r[0], r[1]);
  const __m256i t2 = _mm256_unpacklo_epi32(r[2], r[3]);
  const __m256i t3 = _mm256_unpackhi_epi32(r[2], r[3]);
  const __m256i t4 = _mm256_unpacklo_epi32(r[4], r[5]);
  const __m256i t5 = _mm256_unpackhi_epi32(r[4], r[5]);
  const __m256i t6 = _mm256_unpacklo_epi32(r[6], r[7]);
  const __m256i t7 = _mm256_unpackhi_epi32(r[6], r[7]);
  // u0 = {r0..r3 of blocks 0 | 4}, u1 = {1 | 5}, u2 = {2 | 6}, u3 = {3 | 7};
  // u4..u7 likewise for r4..r7.
  const __m256i u0 = _mm256_unpacklo_epi64(t0, t2);
  const __m256i u1 = _mm256_unpackhi_epi64(t0, t2);
  const __m256i u2 = _mm256_unpacklo_epi64(t1, t3);
  const __m256i u3 = _mm256_unpackhi_epi64(t1, t3);
  const __m256i u4 = _mm256_unpacklo_epi64(t4, t6);
  const __m256i u5 = _mm256_unpackhi_epi64(t4, t6);
  const __m256i u6 = _mm256_unpacklo_epi64(t5, t7);
  const __m256i u7 = _mm256_unpackhi_epi64(t5, t7);
  auto store = [out](std::size_t block, __m256i v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 8 * block), v);
  };
  store(0, _mm256_permute2x128_si256(u0, u4, 0x20));
  store(1, _mm256_permute2x128_si256(u1, u5, 0x20));
  store(2, _mm256_permute2x128_si256(u2, u6, 0x20));
  store(3, _mm256_permute2x128_si256(u3, u7, 0x20));
  store(4, _mm256_permute2x128_si256(u0, u4, 0x31));
  store(5, _mm256_permute2x128_si256(u1, u5, 0x31));
  store(6, _mm256_permute2x128_si256(u2, u6, 0x31));
  store(7, _mm256_permute2x128_si256(u3, u7, 0x31));
}

}  // namespace

// Declared in prng.cpp. Writes `batches` x 64 keystream words to `out`:
// batch k holds blocks with counters input[12] + 8k + 0..7. Does not modify
// `input`; the caller advances its counter by 8 * batches.
void chacha20_blocks8_avx2(const std::uint32_t* input, std::size_t batches,
                           std::uint64_t* out) noexcept {
  __m256i in[16];
  for (int i = 0; i < 16; ++i)
    in[i] = _mm256_set1_epi32(static_cast<int>(input[i]));
  in[12] = _mm256_add_epi32(in[12], _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  const __m256i eight = _mm256_set1_epi32(8);

  for (std::size_t k = 0; k < batches; ++k, out += 64) {
    __m256i x[16];
    for (int i = 0; i < 16; ++i) x[i] = in[i];
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
    for (int i = 0; i < 16; ++i) x[i] = _mm256_add_epi32(x[i], in[i]);
    transpose_store(x, out);      // words 0..7 of each block
    transpose_store(x + 8, out + 4);  // words 8..15
    in[12] = _mm256_add_epi32(in[12], eight);
  }
}

}  // namespace ppml::crypto

#endif  // PPML_HAVE_AVX2
