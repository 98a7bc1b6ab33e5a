#include "crypto/prng.h"

#include <bit>
#include <cstring>

#include "linalg/microkernel.h"

namespace ppml::crypto {

#if defined(PPML_HAVE_AVX2)
// Defined in chacha20_avx2.cpp (compiled with -mavx2).
void chacha20_blocks8_avx2(const std::uint32_t* input, std::size_t batches,
                           std::uint64_t* out) noexcept;
#endif
#if defined(PPML_HAVE_AVX512)
// Defined in chacha20_avx512.cpp (compiled with -mavx512f -mavx512dq).
void chacha20_blocks16_avx512(const std::uint32_t* input, std::size_t batches,
                              std::uint64_t* out) noexcept;
#endif

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SplitMix64::next_double() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

Xoshiro256::Xoshiro256(std::uint64_t seed) {
  SplitMix64 seeder(seed);
  for (auto& word : state_) word = seeder.next();
}

std::uint64_t Xoshiro256::next() {
  const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = std::rotl(state_[3], 45);
  return result;
}

double Xoshiro256::next_double() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

void Xoshiro256::fill(std::span<std::uint64_t> out) {
  for (auto& word : out) word = next();
}

namespace {

constexpr std::array<std::uint32_t, 4> kChaChaConstants = {
    0x61707865u, 0x3320646eu, 0x79622d32u, 0x6b206574u};  // "expand 32-byte k"

inline void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                          std::uint32_t& d) {
  a += b; d ^= a; d = std::rotl(d, 16);
  c += d; b ^= c; b = std::rotl(b, 12);
  a += b; d ^= a; d = std::rotl(d, 8);
  c += d; b ^= c; b = std::rotl(b, 7);
}

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

ChaCha20Stream::ChaCha20Stream(const std::array<std::uint8_t, 32>& key,
                               const std::array<std::uint8_t, 12>& nonce) {
  for (int i = 0; i < 4; ++i) input_[i] = kChaChaConstants[i];
  for (int i = 0; i < 8; ++i) input_[4 + i] = load_le32(key.data() + 4 * i);
  input_[12] = 0;  // block counter
  for (int i = 0; i < 3; ++i) input_[13 + i] = load_le32(nonce.data() + 4 * i);
}

ChaCha20Stream::ChaCha20Stream(std::uint64_t seed, std::uint64_t stream_id) {
  // Derive key and nonce deterministically from the two seeds.
  SplitMix64 seeder(seed ^ 0x243f6a8885a308d3ULL);
  std::array<std::uint8_t, 32> key{};
  for (int i = 0; i < 4; ++i) {
    const std::uint64_t word = seeder.next();
    std::memcpy(key.data() + 8 * i, &word, 8);
  }
  std::array<std::uint8_t, 12> nonce{};
  std::memcpy(nonce.data(), &stream_id, 8);
  const std::uint32_t tail = static_cast<std::uint32_t>(seeder.next());
  std::memcpy(nonce.data() + 8, &tail, 4);
  *this = ChaCha20Stream(key, nonce);
}

void ChaCha20Stream::refill() {
  block_ = input_;
  for (int round = 0; round < 10; ++round) {  // 20 rounds = 10 double-rounds
    quarter_round(block_[0], block_[4], block_[8], block_[12]);
    quarter_round(block_[1], block_[5], block_[9], block_[13]);
    quarter_round(block_[2], block_[6], block_[10], block_[14]);
    quarter_round(block_[3], block_[7], block_[11], block_[15]);
    quarter_round(block_[0], block_[5], block_[10], block_[15]);
    quarter_round(block_[1], block_[6], block_[11], block_[12]);
    quarter_round(block_[2], block_[7], block_[8], block_[13]);
    quarter_round(block_[3], block_[4], block_[9], block_[14]);
  }
  for (int i = 0; i < 16; ++i) block_[i] += input_[i];
  input_[12] += 1;  // next block
  cursor_ = 0;
}

std::uint64_t ChaCha20Stream::next_u64() {
  if (cursor_ + 2 > 16) refill();
  const std::uint64_t lo = block_[cursor_];
  const std::uint64_t hi = block_[cursor_ + 1];
  cursor_ += 2;
  return lo | (hi << 32);
}

void ChaCha20Stream::fill(std::span<std::uint64_t> out) {
  std::size_t i = 0;
  // Use up the block next_u64 left part-read (cursor_ is always even).
  while (i < out.size() && cursor_ < 16) out[i++] = next_u64();
#if defined(PPML_HAVE_AVX2)
  // Whole batches of `blocks` blocks straight into `out`, at the level the
  // dispatch seam runs. They continue the counter sequence the scalar path
  // would use.
  const auto write_batches = [&](auto* kernel, std::uint32_t blocks) {
    const std::size_t words = 8 * std::size_t{blocks};  // 8 u64 per block
    const std::size_t batches = (out.size() - i) / words;
    if (batches == 0) return;
    kernel(input_.data(), batches, out.data() + i);
    input_[12] += static_cast<std::uint32_t>(blocks * batches);
    i += batches * words;
  };
  const linalg::Isa isa = linalg::active_isa();
#if defined(PPML_HAVE_AVX512)
  if (isa >= linalg::Isa::kAvx512) write_batches(chacha20_blocks16_avx512, 16);
#endif
  // At avx512 at most one 8-block batch is left, so a 64..127-word rest
  // (serving's 64-word masks) runs the AVX2 kernel.
  if (isa >= linalg::Isa::kAvx2) write_batches(chacha20_blocks8_avx2, 8);
#endif
  for (; i < out.size(); ++i) out[i] = next_u64();
}

}  // namespace ppml::crypto
