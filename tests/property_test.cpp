// Property-based suites (TEST_P sweeps) on cross-cutting invariants:
//  - the secure consensus path computes EXACTLY what a plaintext average
//    would, round by round, for every scheme/learner-count combination;
//  - kernel Gram matrices are PSD for the PSD kernel families;
//  - serialization round-trips arbitrary payloads and never crashes on
//    truncation;
//  - fixed-point ring arithmetic commutes with summation;
//  - Paillier homomorphism holds over random batches.
#include <gtest/gtest.h>

#include <random>

#include "core/consensus_engine.h"
#include "core/linear_horizontal.h"
#include "core/vertical.h"
#include "crypto/paillier.h"
#include "crypto/secure_sum.h"
#include "data/generators.h"
#include "data/standardize.h"
#include "linalg/blas.h"
#include "linalg/cholesky.h"
#include "mapreduce/serde.h"
#include "svm/kernel.h"

namespace ppml {
namespace {

// ---------------------------------------------------------------------
// Secure consensus == plaintext consensus, per round.

class SecureEqualsPlain
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(SecureEqualsPlain, LinearHorizontalRoundByRound) {
  const auto [m, seed] = GetParam();
  auto split = data::train_test_split(data::make_cancer_like(seed), 0.5, seed);
  data::StandardScaler scaler;
  scaler.fit_transform(split);
  const auto partition = data::partition_horizontally(split.train, m, seed);

  core::AdmmParams params;
  params.max_iterations = 6;

  // Plain path: drive the learners by hand with exact averaging.
  std::vector<core::LinearHorizontalLearner> plain;
  plain.reserve(m);
  for (const auto& shard : partition.shards)
    plain.emplace_back(shard, m, params);
  const std::size_t dim = split.train.features() + 1;
  linalg::Vector broadcast;
  std::vector<linalg::Vector> plain_broadcasts;
  for (std::size_t round = 0; round < params.max_iterations; ++round) {
    linalg::Vector average(dim, 0.0);
    for (auto& learner : plain) {
      const linalg::Vector contribution = learner.local_step(broadcast);
      linalg::axpy(1.0 / static_cast<double>(m), contribution, average);
    }
    broadcast = average;
    plain_broadcasts.push_back(average);
  }

  // Secure path: the library trainer with the full protocol.
  std::vector<std::shared_ptr<core::ConsensusLearner>> secure;
  for (const auto& shard : partition.shards)
    secure.push_back(
        std::make_shared<core::LinearHorizontalLearner>(shard, m, params));
  core::AveragingCoordinator coordinator(dim);
  std::vector<linalg::Vector> secure_broadcasts;
  core::InMemoryTransport transport;
  core::ConsensusEngine(secure, coordinator, params)
      .run(transport, [&](std::size_t) {
        linalg::Vector state = coordinator.z();
        state.push_back(coordinator.s());
        secure_broadcasts.push_back(std::move(state));
      });

  ASSERT_EQ(secure_broadcasts.size(), plain_broadcasts.size());
  const double quantization =
      crypto::FixedPointCodec(params.fixed_point_bits, m)
          .quantization_bound(m) *
      2.0;
  for (std::size_t round = 0; round < plain_broadcasts.size(); ++round) {
    for (std::size_t j = 0; j < dim; ++j) {
      EXPECT_NEAR(secure_broadcasts[round][j], plain_broadcasts[round][j],
                  quantization + 1e-9)
          << "round " << round << " dim " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, SecureEqualsPlain,
    ::testing::Combine(::testing::Values(2u, 3u, 5u),
                       ::testing::Values(1u, 2u)));

// ---------------------------------------------------------------------
// PSD kernels produce PSD Gram matrices.

class KernelPsd : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KernelPsd, GramPlusEpsilonFactorizes) {
  const std::uint64_t seed = GetParam();
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> normal;
  linalg::Matrix points(24, 5);
  for (double& v : points.data()) v = normal(rng);

  const std::vector<svm::Kernel> psd_kernels = {
      svm::Kernel::linear(), svm::Kernel::rbf(0.3),
      svm::Kernel::polynomial(2, 0.5, 1.0)};
  for (const auto& kernel : psd_kernels) {
    linalg::Matrix gram = svm::gram(kernel, points);
    for (std::size_t i = 0; i < gram.rows(); ++i) gram(i, i) += 1e-8;
    EXPECT_NO_THROW(linalg::Cholesky{gram}) << kernel.describe();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelPsd,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// ---------------------------------------------------------------------
// Serde fuzz: random payload round trips; truncation throws, never UB.

class SerdeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerdeFuzz, RandomPayloadRoundTripsAndTruncationThrows) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<int> kind(0, 4);
  std::uniform_int_distribution<std::size_t> length(0, 20);
  std::normal_distribution<double> normal;

  mapreduce::Writer writer;
  std::vector<int> script;
  for (int op = 0; op < 30; ++op) {
    const int k = kind(rng);
    script.push_back(k);
    switch (k) {
      case 0:
        writer.put_u64(rng());
        break;
      case 1:
        writer.put_double(normal(rng));
        break;
      case 2: {
        std::string s(length(rng), 'x');
        for (char& ch : s) ch = static_cast<char>('a' + (rng() % 26));
        writer.put_string(s);
        break;
      }
      case 3: {
        std::vector<std::uint64_t> v(length(rng));
        for (auto& x : v) x = rng();
        writer.put_u64_vector(v);
        break;
      }
      default: {
        std::vector<double> v(length(rng));
        for (auto& x : v) x = normal(rng);
        writer.put_double_vector(v);
        break;
      }
    }
  }
  const mapreduce::Bytes payload = writer.buffer();

  // Full read-back succeeds and consumes everything.
  {
    mapreduce::Reader reader(payload);
    for (int k : script) {
      switch (k) {
        case 0: reader.get_u64(); break;
        case 1: reader.get_double(); break;
        case 2: reader.get_string(); break;
        case 3: reader.get_u64_vector(); break;
        default: reader.get_double_vector(); break;
      }
    }
    EXPECT_TRUE(reader.exhausted());
  }

  // Any truncation throws ppml::Error at some point (never crashes).
  std::uniform_int_distribution<std::size_t> cut(0, payload.size() - 1);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = cut(rng);
    mapreduce::Bytes truncated(payload.begin(),
                               payload.begin() + static_cast<long>(n));
    mapreduce::Reader reader(truncated);
    bool threw = false;
    try {
      for (int k : script) {
        switch (k) {
          case 0: reader.get_u64(); break;
          case 1: reader.get_double(); break;
          case 2: reader.get_string(); break;
          case 3: reader.get_u64_vector(); break;
          default: reader.get_double_vector(); break;
        }
      }
    } catch (const Error&) {
      threw = true;
    }
    EXPECT_TRUE(threw) << "cut at " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerdeFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// ---------------------------------------------------------------------
// Fixed point: ring sum == real sum (within bound) across widths/scales.

class FixedPointSum
    : public ::testing::TestWithParam<std::tuple<unsigned, std::uint64_t>> {};

TEST_P(FixedPointSum, RingSumMatchesRealSum) {
  const auto [bits, seed] = GetParam();
  const std::size_t terms = 64;
  const crypto::FixedPointCodec codec(bits, terms);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uniform(-100.0, 100.0);

  std::uint64_t ring_acc = 0;
  double real_acc = 0.0;
  for (std::size_t i = 0; i < terms; ++i) {
    const double v = uniform(rng);
    ring_acc += codec.encode(v);
    real_acc += v;
  }
  EXPECT_NEAR(codec.decode(ring_acc), real_acc,
              codec.quantization_bound(terms));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FixedPointSum,
    ::testing::Combine(::testing::Values(8u, 16u, 24u, 32u),
                       ::testing::Values(1u, 2u, 3u)));

// ---------------------------------------------------------------------
// Paillier batch homomorphism.

class PaillierBatch : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PaillierBatch, SumOfManyCiphertextsDecryptsToSum) {
  crypto::Xoshiro256 rng(GetParam());
  const auto keys = crypto::paillier_keygen(24, rng);
  crypto::u128 acc = crypto::paillier_encrypt(keys.public_key, 0, rng);
  std::uint64_t expected = 0;
  for (int i = 0; i < 25; ++i) {
    const std::uint64_t m = rng.next() % 1000;
    expected += m;
    acc = crypto::paillier_add(
        keys.public_key, acc,
        crypto::paillier_encrypt(keys.public_key, m, rng));
  }
  EXPECT_EQ(crypto::paillier_decrypt(keys.public_key, keys.private_key, acc),
            expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PaillierBatch,
                         ::testing::Values(1u, 2u, 3u, 4u));

// ---------------------------------------------------------------------
// Vertical coordinator invariant: the hinge prox never increases the
// regularized objective it minimizes (sanity across random inputs).

class VerticalProx : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VerticalProx, ProxPointImprovesObjective) {
  std::mt19937_64 rng(GetParam());
  std::normal_distribution<double> normal;
  const std::size_t n = 40;
  linalg::Vector labels(n);
  for (std::size_t i = 0; i < n; ++i)
    labels[i] = (rng() & 1) != 0 ? 1.0 : -1.0;

  core::AdmmParams params;
  params.rho = 10.0;
  params.c = 5.0;
  core::VerticalCoordinator coordinator(labels, 2, params);
  linalg::Vector cbar(n);
  for (double& v : cbar) v = normal(rng);
  coordinator.combine(cbar);

  // Objective: C * sum hinge(y (zeta + b)) + rho/(2M) ||zeta - q||^2 where
  // q = M(cbar + 0). The prox output must beat the trivial zeta = q point.
  const double mm = 2.0;
  linalg::Vector q(n);
  for (std::size_t i = 0; i < n; ++i) q[i] = mm * cbar[i];
  const auto objective = [&](const linalg::Vector& zeta, double b) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += params.c * std::max(0.0, 1.0 - labels[i] * (zeta[i] + b));
      const double d = zeta[i] - q[i];
      acc += params.rho / (2.0 * mm) * d * d;
    }
    return acc;
  };
  const double at_prox = objective(coordinator.zeta(), coordinator.bias());
  const double at_q = objective(q, coordinator.bias());
  EXPECT_LE(at_prox, at_q + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerticalProx,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace ppml
