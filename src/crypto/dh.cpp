#include "crypto/dh.h"

#include "linalg/common.h"

namespace ppml::crypto {

DhGroup DhGroup::generate(unsigned bits, Xoshiro256& rng) {
  DhGroup group;
  const auto [p, q] = random_safe_prime(bits, rng);
  group.p = p;
  group.q = q;
  // Squares generate the order-q subgroup of quadratic residues.
  std::uint64_t h = 2;
  std::uint64_t g = 0;
  do {
    g = static_cast<std::uint64_t>(mulmod(h, h, p));
    ++h;
  } while (g == 1);
  group.g = g;
  return group;
}

DhGroup DhGroup::standard_group() {
  // Deterministic seed => every party derives the identical group, playing
  // the role of published standard parameters (cf. RFC 3526 groups).
  static const DhGroup group = [] {
    Xoshiro256 rng(0x70706d6c2d646821ULL);  // "ppml-dh!"
    return generate(61, rng);
  }();
  return group;
}

DhKeyPair dh_keygen(const DhGroup& group, Xoshiro256& rng) {
  PPML_CHECK(group.p > 3 && group.q > 1 && group.g > 1, "dh_keygen: bad group");
  DhKeyPair pair;
  // Secret in [1, q-1]: a 64-bit draw reduced mod q, redrawn only on 0.
  // The reduction is slightly biased toward small residues (2^64 is not a
  // multiple of q); every pairwise seed derives from this exact sampling.
  do {
    pair.secret = rng.next() % group.q;
  } while (pair.secret == 0);
  pair.public_value =
      static_cast<std::uint64_t>(powmod(group.g, pair.secret, group.p));
  return pair;
}

void dh_check_public(const DhGroup& group, std::uint64_t public_value) {
  PPML_CHECK(public_value > 1 && public_value < group.p - 1,
             "dh_check_public: peer public value out of range");
  // Subgroup check: element must have order q (i.e., be a QR).
  PPML_CHECK(powmod(public_value, group.q, group.p) == 1,
             "dh_check_public: peer value not in the prime-order subgroup");
}

std::uint64_t dh_shared_secret(const DhGroup& group, std::uint64_t my_secret,
                               std::uint64_t peer_public) {
  dh_check_public(group, peer_public);
  return static_cast<std::uint64_t>(powmod(peer_public, my_secret, group.p));
}

}  // namespace ppml::crypto
