// Walkthrough of the paper's §V coalition-resistant secure summation
// protocol, step by step, with the actual numbers printed — useful for
// understanding what the reducer (and a coalition of curious learners)
// can and cannot see.
#include <cstdio>

#include "crypto/dh.h"
#include "crypto/paillier.h"
#include "crypto/secure_sum.h"

using namespace ppml;

int main() {
  constexpr std::size_t kParties = 3;
  const crypto::FixedPointCodec codec(/*fractional_bits=*/20, kParties);

  // Each learner's private local training result (a tiny w_m here).
  const std::vector<std::vector<double>> secrets = {
      {0.75, -1.25}, {0.50, 0.10}, {-0.25, 2.15}};

  std::printf("=== Step 0: pairwise key agreement (Diffie–Hellman) ===\n");
  const crypto::DhGroup group = crypto::DhGroup::standard_group();
  std::printf("group: p = %llu (61-bit safe prime), g = %llu\n",
              static_cast<unsigned long long>(group.p),
              static_cast<unsigned long long>(group.g));
  const auto seeds = crypto::agree_pairwise_seeds(kParties, /*session=*/42);
  std::printf("party 0 and party 1 derived the same seed: %s\n",
              seeds[0][1] == seeds[1][0] ? "yes" : "NO (bug!)");

  std::printf("\n=== Steps 1-4: masked contributions ===\n");
  const std::vector<std::size_t> everyone{0, 1, 2};
  std::vector<std::uint64_t> ring_sum(2, 0);  // the reducer's accumulator
  for (std::size_t i = 0; i < kParties; ++i) {
    crypto::SecureSumParty party(i, kParties, codec, seeds[i]);
    const auto masked = party.mask(secrets[i], /*round=*/0, everyone);
    const auto plain = codec.encode_vector(secrets[i]);
    std::printf("party %zu secret (%.2f, %.2f)\n", i, secrets[i][0],
                secrets[i][1]);
    std::printf("  plain encoding : %016llx %016llx\n",
                static_cast<unsigned long long>(plain[0]),
                static_cast<unsigned long long>(plain[1]));
    std::printf("  on the wire    : %016llx %016llx   <- what the reducer"
                " sees\n",
                static_cast<unsigned long long>(masked[0]),
                static_cast<unsigned long long>(masked[1]));
    crypto::ring_add_inplace(ring_sum, masked);
  }

  std::printf("\n=== Step 5: the reducer averages; masks cancel ===\n");
  auto average = codec.decode_vector(ring_sum);
  for (double& v : average) v /= kParties;
  std::printf("secure average : (%.6f, %.6f)\n", average[0], average[1]);
  double e0 = 0.0;
  double e1 = 0.0;
  for (const auto& s : secrets) {
    e0 += s[0] / kParties;
    e1 += s[1] / kParties;
  }
  std::printf("true average   : (%.6f, %.6f)\n", e0, e1);
  std::printf("quantization bound per entry: %.2e\n",
              codec.quantization_bound(kParties));

  std::printf("\n=== Coalition attack (paper §V): parties 1+2 + reducer vs "
              "party 0 ===\n");
  std::printf(
      "The coalition can strip masks (0,1) and (0,2) from party 0's wire\n"
      "value, but the result is still offset by mask (0,?) with... no one:\n"
      "with 3 parties the coalition holds ALL of party 0's pairwise masks,\n"
      "so M = 3 with 2 colluders is the protocol's collusion bound — the\n"
      "paper's guarantee is against coalitions of size <= M - 2.\n"
      "With 4+ parties (see tests/crypto_test.cpp) one honest peer's mask\n"
      "remains and the coalition learns nothing.\n");

  std::printf("\n=== Why not public-key crypto per value? ===\n");
  crypto::Xoshiro256 rng(7);
  const auto keys = crypto::paillier_keygen(24, rng);
  const auto c1 = crypto::paillier_encrypt(keys.public_key, 750, rng);
  const auto c2 = crypto::paillier_encrypt(keys.public_key, 500, rng);
  const auto sum = crypto::paillier_add(keys.public_key, c1, c2);
  std::printf(
      "Paillier also sums under encryption: Dec(c1*c2) = %llu (= 750+500),\n"
      "but costs a modular exponentiation per value — run "
      "bench/crypto_overhead\nfor the measured gap vs the paper's masking.\n",
      static_cast<unsigned long long>(
          crypto::paillier_decrypt(keys.public_key, keys.private_key, sum)));
  return 0;
}
