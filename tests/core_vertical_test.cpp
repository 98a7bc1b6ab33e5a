#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/vertical.h"
#include "data/generators.h"
#include "data/standardize.h"
#include "svm/metrics.h"
#include "svm/trainer.h"
#include "trace_digest.h"

namespace ppml::core {
namespace {

data::SplitDataset cancer_split() {
  auto split = data::train_test_split(data::make_cancer_like(1), 0.5, 42);
  data::StandardScaler scaler;
  scaler.fit_transform(split);
  return split;
}

AdmmParams fast_params(std::size_t iterations = 40) {
  AdmmParams params;
  params.max_iterations = iterations;
  return params;
}

TEST(LinearVertical, ApproachesCentralizedAccuracy) {
  const auto split = cancer_split();
  const auto partition = data::partition_vertically(split.train, 4, 7);
  const auto result =
      train_linear_vertical(partition, fast_params(60), &split.test);

  svm::TrainOptions central_options;
  central_options.c = 50.0;
  const auto central = svm::train_linear_svm(split.train, central_options);
  const double central_acc =
      svm::accuracy(central.predict_all(split.test.x), split.test.y);
  EXPECT_GE(result.trace.final_accuracy(), central_acc - 0.03);
}

TEST(LinearVertical, DeltaZDecreases) {
  const auto split = cancer_split();
  const auto partition = data::partition_vertically(split.train, 4, 7);
  const auto result =
      train_linear_vertical(partition, fast_params(50), nullptr);
  const double early = result.trace.records[1].z_delta_sq;
  const double late = result.trace.records[49].z_delta_sq;
  EXPECT_LT(late, early * 0.3);  // Fig. 4(c): steady decay
}

TEST(LinearVertical, ModelViewMatchesBlockAssembly) {
  const auto split = cancer_split();
  const auto partition = data::partition_vertically(split.train, 3, 5);
  const auto result =
      train_linear_vertical(partition, fast_params(30), nullptr);

  // decision(x) must equal sum over learners of <w_m, x[idx_m]> + b; verify
  // against explicit reassembly into a full-width weight vector.
  Vector w_full(split.train.features(), 0.0);
  for (std::size_t m = 0; m < 3; ++m)
    for (std::size_t j = 0; j < partition.feature_indices[m].size(); ++j)
      w_full[partition.feature_indices[m][j]] = result.model.w_blocks[m][j];
  for (std::size_t i = 0; i < 10; ++i) {
    double expected = result.model.b;
    for (std::size_t j = 0; j < w_full.size(); ++j)
      expected += w_full[j] * split.test.x(i, j);
    EXPECT_NEAR(result.model.decision_value(split.test.x.row(i)), expected,
                1e-12);
  }
}

TEST(LinearVertical, EachLearnerContributesFeatures) {
  // Zeroing one learner's block must change predictions — all feature
  // blocks participate (the paper's point about OCR needing cooperation).
  const auto split = cancer_split();
  const auto partition = data::partition_vertically(split.train, 4, 7);
  auto result = train_linear_vertical(partition, fast_params(40), &split.test);
  const double full_acc = result.trace.final_accuracy();

  VerticalLinearModelView crippled = result.model;
  for (double& v : crippled.w_blocks[0]) v = 0.0;
  const double crippled_acc =
      svm::accuracy(crippled.predict_all(split.test.x), split.test.y);
  EXPECT_LT(crippled_acc, full_acc);
}

TEST(LinearVertical, WorksWithManyLearners) {
  const auto split = cancer_split();
  // 9 features, 9 learners: one feature each — the extreme case.
  const auto partition = data::partition_vertically(split.train, 9, 3);
  const auto result =
      train_linear_vertical(partition, fast_params(60), &split.test);
  EXPECT_GE(result.trace.final_accuracy(), 0.85);
}

TEST(VerticalCoordinatorTest, EnforcesLabelValidity) {
  EXPECT_THROW(VerticalCoordinator(Vector{1.0, 0.5}, 2, fast_params()),
               InvalidArgument);
  EXPECT_THROW(VerticalCoordinator(Vector{}, 2, fast_params()),
               InvalidArgument);
  EXPECT_THROW(VerticalCoordinator(Vector{1.0, -1.0}, 1, fast_params()),
               InvalidArgument);
}

TEST(VerticalCoordinatorTest, CombineChecksDimension) {
  VerticalCoordinator coordinator(Vector{1.0, -1.0, 1.0}, 2, fast_params());
  EXPECT_THROW(coordinator.combine(Vector{1.0}), InvalidArgument);
}

TEST(VerticalCoordinatorTest, HingeProxRespectsLabels) {
  // With zero input the prox pushes zeta toward the margin: y_i * zeta_i
  // should become positive for all i after one combine.
  const Vector labels{1.0, -1.0, 1.0, -1.0};
  AdmmParams params = fast_params();
  params.rho = 1.0;
  params.c = 10.0;
  VerticalCoordinator coordinator(labels, 2, params);
  coordinator.combine(Vector(4, 0.0));
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_GT(labels[i] * coordinator.zeta()[i], 0.0);
}

// ------------------------------------------------------------- kernel

TEST(KernelVertical, LearnsOnCancerLike) {
  const auto split = cancer_split();
  const auto partition = data::partition_vertically(split.train, 4, 7);
  AdmmParams params = fast_params(50);
  const auto result = train_kernel_vertical(partition, svm::Kernel::rbf(0.3),
                                            params, &split.test);
  EXPECT_GE(result.trace.final_accuracy(), 0.85);
}

TEST(KernelVertical, AdditiveModelUsesAllBlocks) {
  const auto split = cancer_split();
  const auto partition = data::partition_vertically(split.train, 3, 5);
  const auto result = train_kernel_vertical(partition, svm::Kernel::rbf(0.3),
                                            fast_params(30), &split.test);
  VerticalKernelModelView crippled = result.model;
  for (double& v : crippled.alphas[0]) v = 0.0;
  const double full_acc =
      svm::accuracy(result.model.predict_all(split.test.x), split.test.y);
  const double crippled_acc =
      svm::accuracy(crippled.predict_all(split.test.x), split.test.y);
  EXPECT_LT(crippled_acc, full_acc);
}

TEST(KernelVertical, LinearKernelMatchesLinearVerticalDecisions) {
  // With the linear kernel the kernelized learner computes the same ridge
  // step as the explicit-weights learner — decisions must agree closely.
  const auto split = cancer_split();
  const auto partition = data::partition_vertically(split.train, 3, 9);
  AdmmParams params = fast_params(25);
  const auto linear = train_linear_vertical(partition, params, nullptr);
  const auto kernelized = train_kernel_vertical(
      partition, svm::Kernel::linear(), params, nullptr);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_NEAR(linear.model.decision_value(split.test.x.row(i)),
                kernelized.model.decision_value(split.test.x.row(i)), 1e-3);
  }
}

TEST(KernelVertical, TraceRecordsEveryIteration) {
  const auto split = cancer_split();
  const auto partition = data::partition_vertically(split.train, 2, 3);
  const auto result = train_kernel_vertical(partition, svm::Kernel::rbf(0.3),
                                            fast_params(12), &split.test);
  ASSERT_EQ(result.trace.records.size(), 12u);
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(result.trace.records[i].iteration, i);
    EXPECT_GE(result.trace.records[i].test_accuracy, 0.0);
    EXPECT_LE(result.trace.records[i].test_accuracy, 1.0);
  }
}

TEST(KernelVertical, LocalStepDigestPinned) {
  // n = 97 crosses the factor's 32-row panels and the 4-lane SIMD groups,
  // so every remainder path of the factorization, the solves and the
  // c = K alpha product runs. Ten steps against a deterministic broadcast;
  // alpha and c are hashed bit for bit after each one. The digest is the
  // same at every ISA level.
  constexpr std::size_t kRows = 97;
  linalg::Matrix block(kRows, 5);
  for (std::size_t i = 0; i < kRows; ++i)
    for (std::size_t j = 0; j < 5; ++j)
      block(i, j) = std::sin(0.37 * static_cast<double>(i * 5 + j) + 0.1);
  AdmmParams params;
  params.rho = 3.0;
  KernelVerticalLearner learner(std::move(block), svm::Kernel::rbf(0.4),
                                params);
  std::uint64_t h = testing::kFnvOffset;
  Vector broadcast;
  for (std::size_t step = 0; step < 10; ++step) {
    const Vector c = learner.local_step(broadcast);
    h = testing::fnv1a_bits(h, learner.alpha());
    h = testing::fnv1a_bits(h, c);
    broadcast.resize(kRows);
    for (std::size_t i = 0; i < kRows; ++i)
      broadcast[i] = std::cos(static_cast<double>(i + 3 * step)) - 0.5 * c[i];
  }
  EXPECT_EQ(h, 0x781D21F4208DDCCDULL);
}

/// Trains kv on the cancer split (3 learners, RBF) against `test` and
/// returns the digest of every trace record plus the final model, at
/// every available ISA level, forced in-process.
std::vector<std::uint64_t> kernel_vertical_digests(
    const data::Dataset& train, const data::Dataset& test,
    const AdmmParams& params, std::size_t expected_rounds) {
  const auto partition = data::partition_vertically(train, 3, 5);
  std::vector<std::uint64_t> digests;
  for (const linalg::Isa isa : testing::available_isas()) {
    linalg::force_isa(isa);
    const auto result = train_kernel_vertical(
        partition, svm::Kernel::rbf(0.3), params, &test);
    EXPECT_EQ(result.trace.records.size(), expected_rounds)
        << linalg::isa_name(isa);
    std::uint64_t h = testing::trace_digest(result.trace);
    for (const Vector& alpha : result.model.alphas)
      h = testing::fnv1a_bits(h, alpha);
    h = testing::fnv1a_bits(h, std::vector<double>{result.model.b});
    digests.push_back(h);
  }
  linalg::clear_forced_isa();
  return digests;
}

// Each digest is what per-round evaluation over cached test cross grams
// gives; the deferred evaluator must reproduce every record bit for bit.
TEST(KernelVertical, TraceDigestPinned) {
  const auto split = cancer_split();
  for (const std::uint64_t h :
       kernel_vertical_digests(split.train, split.test, fast_params(15), 15))
    EXPECT_EQ(h, 0xF53C0C489A658758ULL);
}

TEST(KernelVertical, TraceDigestPinnedWithMoreRoundsThanTestRows) {
  // Seven test rows and twenty rounds: the trace history fills twice and
  // the last six rounds are evaluated after the run.
  const auto split = cancer_split();
  const data::Dataset test = split.test.subset({0, 1, 2, 3, 4, 5, 6});
  for (const std::uint64_t h :
       kernel_vertical_digests(split.train, test, fast_params(20), 20))
    EXPECT_EQ(h, 0xDD78030FF3325339ULL);
}

TEST(KernelVertical, TraceDigestPinnedWhenConvergedEarly) {
  const auto split = cancer_split();
  AdmmParams params = fast_params(200);
  params.convergence_tolerance = 1e-2;
  for (const std::uint64_t h :
       kernel_vertical_digests(split.train, split.test, params, 52))
    EXPECT_EQ(h, 0x102F08824FD2965EULL);
}

TEST(VerticalLearners, ValidateParameters) {
  AdmmParams bad;
  bad.rho = 0.0;
  EXPECT_THROW(LinearVerticalLearner(linalg::Matrix(4, 2), bad),
               InvalidArgument);
  EXPECT_THROW(KernelVerticalLearner(linalg::Matrix(4, 2),
                                     svm::Kernel::rbf(0.5), bad),
               InvalidArgument);
  EXPECT_THROW(LinearVerticalLearner(linalg::Matrix(0, 0), fast_params()),
               InvalidArgument);
}

TEST(VerticalLearners, BroadcastSizeChecked) {
  LinearVerticalLearner learner(linalg::Matrix{{1.0}, {2.0}}, fast_params());
  EXPECT_THROW(learner.local_step(Vector{1.0, 2.0, 3.0}), InvalidArgument);
}

}  // namespace
}  // namespace ppml::core
