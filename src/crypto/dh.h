// Diffie–Hellman key agreement over a safe-prime group.
//
// Used to establish the pairwise mask seeds of the secure summation
// protocol without per-iteration mask exchange (DESIGN.md §2.5). Parameters
// are simulation-scale (61-bit group) — the protocol logic, message flow
// and cost shape are faithful; production deployments would swap in a
// 2048-bit group or X25519. This is documented, not hidden.
#pragma once

#include <cstdint>

#include "crypto/modmath.h"

namespace ppml::crypto {

/// Group description: p safe prime (p = 2q + 1), g a generator of the
/// order-q subgroup (quadratic residues).
struct DhGroup {
  std::uint64_t p = 0;
  std::uint64_t q = 0;
  std::uint64_t g = 0;

  /// Fixed 61-bit group shared by all parties (deterministic).
  static DhGroup standard_group();

  /// Generate a fresh group from randomness (slower; used in tests).
  static DhGroup generate(unsigned bits, Xoshiro256& rng);
};

struct DhKeyPair {
  std::uint64_t secret = 0;  ///< x in [1, q-1]
  std::uint64_t public_value = 0;  ///< g^x mod p
};

/// Sample a key pair.
DhKeyPair dh_keygen(const DhGroup& group, Xoshiro256& rng);

/// Validate a peer's public value: it must lie in (1, p-1) and have order
/// q (be a quadratic residue). Throws InvalidArgument otherwise — the
/// small-subgroup confinement guard. Costs one exponentiation, so callers
/// that pair one public value with many secrets validate it once.
void dh_check_public(const DhGroup& group, std::uint64_t public_value);

/// Shared secret g^{xy} mod p from my secret and the peer's public value.
/// Validates the peer value with dh_check_public first.
std::uint64_t dh_shared_secret(const DhGroup& group, std::uint64_t my_secret,
                               std::uint64_t peer_public);

}  // namespace ppml::crypto
