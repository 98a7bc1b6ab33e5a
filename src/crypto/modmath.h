// Modular arithmetic helpers for the crypto substrate.
//
// Uses unsigned __int128 throughout; moduli up to 2^126 are supported so the
// toy-parameter Paillier (n^2 < 2^124) and the 61-bit DH group both fit.
#pragma once

#include <cstdint>

#include "crypto/prng.h"

namespace ppml::crypto {

using u128 = unsigned __int128;

/// (a * b) mod m for m < 2^126. For m < 2^64 both reduced operands are
/// below 2^64, so their product fits a u128 exactly and one multiply plus
/// one `%` gives the answer. Wider moduli (only Paillier's n^2) reduce by
/// bit-serial double-and-add, since their product could need 252 bits.
u128 mulmod(u128 a, u128 b, u128 m);

/// (base ^ exp) mod m by square-and-multiply. The modulus width is checked
/// once, so the m < 2^64 loop multiplies without per-step dispatch.
u128 powmod(u128 base, u128 exp, u128 m);

/// Greatest common divisor.
std::uint64_t gcd_u64(std::uint64_t a, std::uint64_t b);

/// Least common multiple (caller guarantees no overflow at our sizes).
std::uint64_t lcm_u64(std::uint64_t a, std::uint64_t b);

/// Modular inverse of a mod m (m need not be prime, but gcd(a, m) must be
/// 1); throws NumericError otherwise.
u128 invmod(u128 a, u128 m);

/// Deterministic Miller–Rabin, exact for all 64-bit inputs.
bool is_prime_u64(std::uint64_t n);

/// Uniform random prime with exactly `bits` bits (MSB set), bits in [8, 63].
std::uint64_t random_prime(unsigned bits, Xoshiro256& rng);

/// Random safe prime p = 2q + 1 with `bits` bits; returns {p, q}.
std::pair<std::uint64_t, std::uint64_t> random_safe_prime(unsigned bits,
                                                          Xoshiro256& rng);

}  // namespace ppml::crypto
