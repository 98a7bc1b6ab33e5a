// Fixed-point encoding of reals into the ring Z_2^64.
//
// The paper's secure summation protocol adds masked values; masking and
// cancellation must be *exact*, which floating point cannot give. We encode
// each double as round(v * 2^fractional_bits) interpreted in two's
// complement inside uint64, do all protocol arithmetic mod 2^64 (where
// pairwise masks cancel exactly), and decode the final sum.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/common.h"

namespace ppml::crypto {

class FixedPointCodec {
 public:
  /// `fractional_bits` in [1, 52]; `max_terms` is the largest number of
  /// encoded values that will ever be summed before decoding — it sizes the
  /// overflow headroom check.
  explicit FixedPointCodec(unsigned fractional_bits = 24,
                           std::size_t max_terms = 1024);

  unsigned fractional_bits() const noexcept { return fractional_bits_; }

  /// Largest magnitude encodable such that max_terms values can be summed
  /// without wrapping past +/- 2^62 (one guard bit kept spare).
  double max_encodable() const noexcept { return max_encodable_; }

  /// Encode one value. Throws NumericError if |v| exceeds max_encodable()
  /// or v is not finite.
  std::uint64_t encode(double v) const;

  /// Decode one value (inverse of encode up to quantization).
  double decode(std::uint64_t r) const;

  /// encode() of every element, bit for bit. Checks the whole span before
  /// converting any of it: the first value encode() would reject throws
  /// encode()'s NumericError. At the avx512 dispatch level the conversion
  /// runs eight lanes at a time (chacha20_avx512.cpp).
  std::vector<std::uint64_t> encode_vector(std::span<const double> v) const;
  /// decode() of every element, bit for bit.
  std::vector<double> decode_vector(std::span<const std::uint64_t> r) const;
  /// The same conversions into a caller's buffer of the input's size.
  void encode_into(std::span<const double> v,
                   std::span<std::uint64_t> out) const;
  void decode_into(std::span<const std::uint64_t> r,
                   std::span<double> out) const;

  /// Worst-case absolute quantization error of a sum of `terms` encoded
  /// values: terms * 2^-(fractional_bits+1).
  double quantization_bound(std::size_t terms) const noexcept;

 private:
  unsigned fractional_bits_;
  double scale_;
  double max_encodable_;
};

/// Ring helpers (explicit names beat scattered arithmetic).
inline std::uint64_t ring_add(std::uint64_t a, std::uint64_t b) {
  return a + b;  // mod 2^64 by construction
}
inline std::uint64_t ring_sub(std::uint64_t a, std::uint64_t b) {
  return a - b;
}

void ring_add_inplace(std::span<std::uint64_t> acc,
                      std::span<const std::uint64_t> v);
void ring_sub_inplace(std::span<std::uint64_t> acc,
                      std::span<const std::uint64_t> v);

}  // namespace ppml::crypto
