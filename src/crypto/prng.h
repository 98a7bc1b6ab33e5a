// Deterministic pseudo-random generators used by the protocols.
//
// SplitMix64 seeds things; xoshiro256** is the general-purpose stream;
// ChaCha20 provides a keyed, cryptographic-quality expansion for turning a
// Diffie–Hellman shared secret into an arbitrarily long pairwise mask
// stream (DESIGN.md §2.5). All are deterministic given their seed/key, which
// the protocol tests rely on.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace ppml::crypto {

/// SplitMix64 — tiny, passes BigCrush, perfect for seeding.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform double in [0, 1) from the top 53 bits of next().
  double next_double();

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 (Blackman & Vigna).
class Xoshiro256 {
 public:
  explicit Xoshiro256(std::uint64_t seed);
  std::uint64_t next();
  /// Uniform double in [0, 1).
  double next_double();
  void fill(std::span<std::uint64_t> out);

 private:
  std::array<std::uint64_t, 4> state_;
};

/// ChaCha20 keystream generator (RFC 8439 block function). Used as a PRF:
/// key = 32 bytes, nonce = 12 bytes, counter starts at 0.
///
/// The stream is RFC 8439-exact at every ISA level. next_u64() always runs
/// the scalar block function. fill() works in this order, at the level
/// linalg::active_isa() reports (PPML_FORCE_ISA and linalg::force_isa() pin
/// it):
///   1. finish the part-read block with the scalar function;
///   2. at avx512, write whole 16-block (128-word) batches with the kernel in
///      chacha20_avx512.cpp;
///   3. at avx2 and above, write whole 8-block (64-word) batches with the
///      kernel in chacha20_avx2.cpp (at avx512 that is at most one batch);
///   4. end with scalar blocks.
/// The 32-bit block counter wraps in every lane exactly as the scalar
/// `input_[12] += 1` does, so any mix of next_u64() and fill() calls yields
/// the same words.
class ChaCha20Stream {
 public:
  ChaCha20Stream(const std::array<std::uint8_t, 32>& key,
                 const std::array<std::uint8_t, 12>& nonce);

  /// Convenience: derive key/nonce from two 64-bit seeds (protocol usage:
  /// seed = DH shared secret, stream_id = protocol round).
  ChaCha20Stream(std::uint64_t seed, std::uint64_t stream_id);

  std::uint64_t next_u64();
  void fill(std::span<std::uint64_t> out);

 private:
  void refill();

  std::array<std::uint32_t, 16> input_;
  std::array<std::uint32_t, 16> block_;
  std::size_t cursor_ = 16;  // words consumed from block_
};

}  // namespace ppml::crypto
