#include <gtest/gtest.h>

#include "crypto/dropout_recovery.h"
#include "crypto/secure_sum_session.h"

namespace ppml::crypto {
namespace {

SecureSumConfig config_for(std::size_t m) {
  SecureSumConfig config;
  config.num_parties = m;
  config.protocol_seed = 42;
  return config;
}

struct ProtocolFixture {
  std::size_t parties;
  SecureSumSession session;
  std::vector<std::size_t> everyone;
  std::vector<std::vector<double>> values;

  explicit ProtocolFixture(std::size_t m)
      : parties(m), session(config_for(m)), everyone(m) {
    for (std::size_t i = 0; i < m; ++i) everyone[i] = i;
    values.resize(m);
    Xoshiro256 rng(m);
    for (auto& v : values) {
      v.resize(5);
      for (double& x : v) x = rng.next_double() * 20.0 - 10.0;
    }
  }

  /// Every party but `dropped` masks against the full cohort for `round`
  /// (indexed by party id; the dropped party's entry stays empty).
  std::vector<std::vector<std::uint64_t>> contributions(std::size_t dropped,
                                                        std::size_t round) {
    std::vector<std::vector<std::uint64_t>> out(parties);
    for (std::size_t i : survivors(dropped)) {
      const SecureSumSession::Tensor tensor(values[i]);
      out[i] = session.contribute(i, {&tensor, 1}, round, everyone);
    }
    return out;
  }

  std::vector<std::size_t> survivors(std::size_t dropped) const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < parties; ++i)
      if (i != dropped) out.push_back(i);
    return out;
  }

  std::vector<double> survivor_expected(std::size_t dropped) const {
    std::vector<double> expected(5, 0.0);
    for (std::size_t i : survivors(dropped))
      for (std::size_t j = 0; j < 5; ++j) expected[j] += values[i][j];
    return expected;
  }
};

TEST(DropoutRecovery, WithoutRecoveryTheSumIsGarbage) {
  ProtocolFixture setup(4);
  std::vector<std::uint64_t> total(5, 0);
  for (const auto& contribution : setup.contributions(/*dropped=*/2, 0))
    if (!contribution.empty()) ring_add_inplace(total, contribution);
  const auto decoded = setup.session.codec().decode_vector(total);
  const auto expected = setup.survivor_expected(2);
  // Uncancelled masks => decoded values are wildly off.
  bool any_far = false;
  for (std::size_t j = 0; j < 5; ++j)
    if (std::abs(decoded[j] - expected[j]) > 1.0) any_far = true;
  EXPECT_TRUE(any_far);
}

class DropoutRecoveryParties
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(DropoutRecoveryParties, RecoversExactSurvivorSum) {
  const auto [m, dropped] = GetParam();
  ProtocolFixture setup(m);
  setup.session.arm_recovery(/*threshold=*/2, /*sharing_seed=*/7);

  SecureSumSession::ReduceAudit audit;
  setup.session.reduce_average(/*round=*/3, setup.everyone,
                               setup.survivors(dropped),
                               setup.contributions(dropped, /*round=*/3),
                               &audit);
  EXPECT_EQ(audit.dropped, std::vector<std::size_t>{dropped});
  const auto expected = setup.survivor_expected(dropped);
  for (std::size_t j = 0; j < 5; ++j)
    EXPECT_NEAR(audit.decoded_sum[j], expected[j], 1e-4) << "entry " << j;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DropoutRecoveryParties,
    ::testing::Values(std::make_tuple(3u, 0u), std::make_tuple(4u, 2u),
                      std::make_tuple(5u, 4u), std::make_tuple(8u, 3u)));

TEST(DropoutRecovery, SharesReconstructSeeds) {
  ProtocolFixture setup(5);
  const auto& seeds = setup.session.pairwise_seeds();
  DropoutRecoverySession session(seeds, 3, 9);
  // Any 3 holders' shares of pair (1, 4) reconstruct the true seed.
  std::vector<ShamirShare> revealed{session.share(0, 1, 4),
                                    session.share(2, 1, 4),
                                    session.share(4, 1, 4)};
  EXPECT_EQ(DropoutRecoverySession::reconstruct_seed(revealed), seeds[1][4]);
  // Fewer than threshold shares give the wrong value.
  std::vector<ShamirShare> too_few{session.share(0, 1, 4),
                                   session.share(2, 1, 4)};
  EXPECT_NE(DropoutRecoverySession::reconstruct_seed(too_few), seeds[1][4]);
}

TEST(DropoutRecovery, ValidatesInputs) {
  ProtocolFixture setup(4);
  const auto& seeds = setup.session.pairwise_seeds();
  EXPECT_THROW(DropoutRecoverySession(seeds, 1, 1), InvalidArgument);
  EXPECT_THROW(DropoutRecoverySession(seeds, 4, 1), InvalidArgument);

  DropoutRecoverySession session(seeds, 2, 1);
  EXPECT_THROW(session.share(0, 1, 1), InvalidArgument);
  EXPECT_THROW(session.share(9, 0, 1), InvalidArgument);

  // Not enough survivors to hit the threshold.
  setup.session.arm_recovery(/*threshold=*/3, /*sharing_seed=*/1);
  auto contributions = setup.contributions(/*dropped=*/3, 0);
  contributions[2].clear();
  const std::vector<std::size_t> present{0, 1};
  EXPECT_THROW(
      setup.session.reduce_average(0, setup.everyone, present, contributions),
      InvalidArgument);
}

TEST(DropoutRecovery, AsymmetricSeedMatrixRejected) {
  ProtocolFixture setup(3);
  auto seeds = setup.session.pairwise_seeds();
  seeds[0][1] ^= 1;
  EXPECT_THROW(DropoutRecoverySession(seeds, 2, 1), InvalidArgument);
}

}  // namespace
}  // namespace ppml::crypto
