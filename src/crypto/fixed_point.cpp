#include "crypto/fixed_point.h"

#include <cmath>

#include "linalg/microkernel.h"
#include "obs/obs.h"

namespace ppml::crypto {

#if defined(PPML_HAVE_AVX512)
// Defined in chacha20_avx512.cpp (compiled with -mavx512f -mavx512dq).
void fixed_point_encode_avx512(const double* v, std::size_t n, double scale,
                               std::uint64_t* out) noexcept;
#endif

namespace {

/// out[i] = round(v[i] * scale) as int64, in two's complement, for values
/// already range-checked so that every product fits int64.
void convert_scaled(std::span<const double> v, double scale,
                    std::uint64_t* out) {
#if defined(PPML_HAVE_AVX512)
  if (linalg::active_isa() >= linalg::Isa::kAvx512) {
    // vcvtpd2qq rounds in the MXCSR mode, as nearbyint does.
    fixed_point_encode_avx512(v.data(), v.size(), scale, out);
    return;
  }
#endif
  // std::rint rounds as nearbyint does (it differs only in raising
  // FE_INEXACT) and compiles inline, with no libm call per element.
  for (std::size_t i = 0; i < v.size(); ++i)
    out[i] = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(std::rint(v[i] * scale)));
}

}  // namespace

FixedPointCodec::FixedPointCodec(unsigned fractional_bits,
                                 std::size_t max_terms)
    : fractional_bits_(fractional_bits),
      scale_(std::ldexp(1.0, static_cast<int>(fractional_bits))) {
  PPML_CHECK(fractional_bits >= 1 && fractional_bits <= 52,
             "FixedPointCodec: fractional_bits must be in [1, 52]");
  PPML_CHECK(max_terms >= 1, "FixedPointCodec: max_terms must be >= 1");
  // Keep the sum of max_terms encoded magnitudes below 2^62.
  max_encodable_ =
      std::ldexp(1.0, 62 - static_cast<int>(fractional_bits)) /
      static_cast<double>(max_terms);
}

std::uint64_t FixedPointCodec::encode(double v) const {
  if (!std::isfinite(v)) {
    throw NumericError("FixedPointCodec::encode: non-finite value");
  }
  if (std::abs(v) > max_encodable_) {
    throw NumericError(
        "FixedPointCodec::encode: magnitude " + std::to_string(v) +
        " exceeds safe range " + std::to_string(max_encodable_) +
        " (raise headroom or lower fractional_bits)");
  }
  const double scaled = std::nearbyint(v * scale_);
  const auto as_int = static_cast<std::int64_t>(scaled);
  return static_cast<std::uint64_t>(as_int);  // two's complement embedding
}

double FixedPointCodec::decode(std::uint64_t r) const {
  const auto as_int = static_cast<std::int64_t>(r);  // interpret sign
  return static_cast<double>(as_int) / scale_;
}

std::vector<std::uint64_t> FixedPointCodec::encode_vector(
    std::span<const double> v) const {
  std::vector<std::uint64_t> out(v.size());
  encode_into(v, out);
  return out;
}

std::vector<double> FixedPointCodec::decode_vector(
    std::span<const std::uint64_t> r) const {
  std::vector<double> out(r.size());
  decode_into(r, out);
  return out;
}

void FixedPointCodec::encode_into(std::span<const double> v,
                                  std::span<std::uint64_t> out) const {
  PPML_CHECK(out.size() == v.size(), "FixedPointCodec: size mismatch");
  // Range first, over the whole span: the first value encode() rejects
  // (non-finite or over max_encodable_) throws encode()'s own error. After
  // it every |v[i] * scale_| <= 2^62, so each conversion below fits int64,
  // and the product is exact because scale_ is a power of two.
  for (const double x : v)
    if (!(std::abs(x) <= max_encodable_)) encode(x);
  convert_scaled(v, scale_, out.data());
  obs::count("crypto.fp_encode", static_cast<std::int64_t>(v.size()));
}

void FixedPointCodec::decode_into(std::span<const std::uint64_t> r,
                                  std::span<double> out) const {
  PPML_CHECK(out.size() == r.size(), "FixedPointCodec: size mismatch");
  // x * 2^-f is the correctly rounded x / 2^f: the same double decode()
  // returns, for a multiply instead of a divide.
  const double inv_scale =
      std::ldexp(1.0, -static_cast<int>(fractional_bits_));
  for (std::size_t i = 0; i < r.size(); ++i)
    out[i] = static_cast<double>(static_cast<std::int64_t>(r[i])) * inv_scale;
  obs::count("crypto.fp_decode", static_cast<std::int64_t>(r.size()));
}

double FixedPointCodec::quantization_bound(std::size_t terms) const noexcept {
  return static_cast<double>(terms) /
         std::ldexp(1.0, static_cast<int>(fractional_bits_) + 1);
}

void ring_add_inplace(std::span<std::uint64_t> acc,
                      std::span<const std::uint64_t> v) {
  PPML_CHECK(acc.size() == v.size(), "ring_add_inplace: size mismatch");
  for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += v[i];
}

void ring_sub_inplace(std::span<std::uint64_t> acc,
                      std::span<const std::uint64_t> v) {
  PPML_CHECK(acc.size() == v.size(), "ring_sub_inplace: size mismatch");
  for (std::size_t i = 0; i < acc.size(); ++i) acc[i] -= v[i];
}

}  // namespace ppml::crypto
