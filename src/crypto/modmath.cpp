#include "crypto/modmath.h"

#include <array>

#include "linalg/common.h"

namespace ppml::crypto {

namespace {

/// (a * b) mod m for reduced a, b < m < 2^64: the product is below 2^128,
/// so the u128 multiply is exact.
std::uint64_t mulmod_u64(std::uint64_t a, std::uint64_t b, std::uint64_t m) {
  return static_cast<std::uint64_t>(static_cast<u128>(a) * b % m);
}

}  // namespace

u128 mulmod(u128 a, u128 b, u128 m) {
  PPML_CHECK(m != 0, "mulmod: zero modulus");
  PPML_CHECK(m >> 126 == 0, "mulmod: modulus must be < 2^126");
  a %= m;
  b %= m;
  if ((m >> 64) == 0)
    return mulmod_u64(static_cast<std::uint64_t>(a),
                      static_cast<std::uint64_t>(b),
                      static_cast<std::uint64_t>(m));
  // m >= 2^64 (Paillier's n^2): reduced operands can exceed 2^64, so their
  // product can overflow u128. Only the small-operand case multiplies.
  if ((a >> 64) == 0 && (b >> 64) == 0) {
    // a*b < 2^128; reduce directly when it cannot overflow the reduction.
    if ((a >> 32) == 0 || (b >> 32) == 0) return (a * b) % m;
  }
  u128 result = 0;
  while (b != 0) {
    if (b & 1) {
      result += a;
      if (result >= m) result -= m;
    }
    a <<= 1;
    if (a >= m) a -= m;
    b >>= 1;
  }
  return result;
}

u128 powmod(u128 base, u128 exp, u128 m) {
  PPML_CHECK(m != 0, "powmod: zero modulus");
  if ((m >> 64) == 0) {
    const auto m64 = static_cast<std::uint64_t>(m);
    std::uint64_t result = 1 % m64;
    auto b = static_cast<std::uint64_t>(base % m);
    while (exp != 0) {
      if (exp & 1) result = mulmod_u64(result, b, m64);
      b = mulmod_u64(b, b, m64);
      exp >>= 1;
    }
    return result;
  }
  u128 result = 1 % m;
  base %= m;
  while (exp != 0) {
    if (exp & 1) result = mulmod(result, base, m);
    base = mulmod(base, base, m);
    exp >>= 1;
  }
  return result;
}

std::uint64_t gcd_u64(std::uint64_t a, std::uint64_t b) {
  while (b != 0) {
    const std::uint64_t t = a % b;
    a = b;
    b = t;
  }
  return a;
}

std::uint64_t lcm_u64(std::uint64_t a, std::uint64_t b) {
  if (a == 0 || b == 0) return 0;
  return a / gcd_u64(a, b) * b;
}

u128 invmod(u128 a, u128 m) {
  // Extended Euclid over signed 128-bit; values stay far below the limit.
  using i128 = __int128;
  i128 t = 0;
  i128 new_t = 1;
  i128 r = static_cast<i128>(m);
  i128 new_r = static_cast<i128>(a % m);
  while (new_r != 0) {
    const i128 quotient = r / new_r;
    const i128 tmp_t = t - quotient * new_t;
    t = new_t;
    new_t = tmp_t;
    const i128 tmp_r = r - quotient * new_r;
    r = new_r;
    new_r = tmp_r;
  }
  if (r != 1) throw NumericError("invmod: inputs are not coprime");
  if (t < 0) t += static_cast<i128>(m);
  return static_cast<u128>(t);
}

bool is_prime_u64(std::uint64_t n) {
  if (n < 2) return false;
  for (std::uint64_t p : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL,
                          23ULL, 29ULL, 31ULL, 37ULL}) {
    if (n % p == 0) return n == p;
  }
  std::uint64_t d = n - 1;
  unsigned r = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++r;
  }
  // These bases are a proven deterministic set for all n < 2^64.
  for (std::uint64_t base : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL,
                             19ULL, 23ULL, 29ULL, 31ULL, 37ULL}) {
    u128 x = powmod(base % n, d, n);
    if (x == 1 || x == n - 1) continue;
    bool witness = true;
    for (unsigned i = 1; i < r; ++i) {
      x = mulmod(x, x, n);
      if (x == n - 1) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

std::uint64_t random_prime(unsigned bits, Xoshiro256& rng) {
  PPML_CHECK(bits >= 8 && bits <= 63, "random_prime: bits must be in [8, 63]");
  const std::uint64_t top = 1ULL << (bits - 1);
  const std::uint64_t mask = top - 1;
  for (int attempt = 0; attempt < 100'000; ++attempt) {
    std::uint64_t candidate = top | (rng.next() & mask) | 1ULL;
    if (is_prime_u64(candidate)) return candidate;
  }
  throw NumericError("random_prime: gave up (astronomically unlikely)");
}

std::pair<std::uint64_t, std::uint64_t> random_safe_prime(unsigned bits,
                                                          Xoshiro256& rng) {
  PPML_CHECK(bits >= 9 && bits <= 63,
             "random_safe_prime: bits must be in [9, 63]");
  for (int attempt = 0; attempt < 1'000'000; ++attempt) {
    const std::uint64_t q = random_prime(bits - 1, rng);
    const std::uint64_t p = 2 * q + 1;
    if (is_prime_u64(p)) return {p, q};
  }
  throw NumericError("random_safe_prime: gave up");
}

}  // namespace ppml::crypto
