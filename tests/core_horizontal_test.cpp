#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/kernel_horizontal.h"
#include "core/linear_horizontal.h"
#include "data/generators.h"
#include "data/standardize.h"
#include "svm/metrics.h"
#include "svm/trainer.h"
#include "trace_digest.h"

namespace ppml::core {
namespace {

using data::Dataset;

/// Standardized cancer-like split shared by the tests (small but realistic).
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

TEST(LinearHorizontal, ConvergesTowardCentralizedModel) {
  const auto split = cancer_split();
  const auto partition = data::partition_horizontally(split.train, 4, 7);

  AdmmParams params = fast_params(80);
  const auto result = train_linear_horizontal(partition, params, &split.test);

  svm::TrainOptions central_options;
  central_options.c = params.c;
  const auto central = svm::train_linear_svm(split.train, central_options);

  const double central_acc =
      svm::accuracy(central.predict_all(split.test.x), split.test.y);
  const double distributed_acc = result.trace.final_accuracy();
  // Lemma 4.1: the distributed optimum equals the centralized one, so after
  // enough iterations accuracy must be within a couple of points.
  EXPECT_GE(distributed_acc, central_acc - 0.03);

  // The consensus direction should align with the centralized w.
  double dot = 0.0;
  double n1 = 0.0;
  double n2 = 0.0;
  for (std::size_t j = 0; j < central.w.size(); ++j) {
    dot += central.w[j] * result.model.w[j];
    n1 += central.w[j] * central.w[j];
    n2 += result.model.w[j] * result.model.w[j];
  }
  EXPECT_GT(dot / std::sqrt(n1 * n2), 0.95);
}

TEST(LinearHorizontal, DeltaZDecreasesOverall) {
  const auto split = cancer_split();
  const auto partition = data::partition_horizontally(split.train, 4, 7);
  const auto result =
      train_linear_horizontal(partition, fast_params(50), nullptr);
  ASSERT_EQ(result.trace.records.size(), 50u);
  const double early = result.trace.records[1].z_delta_sq;
  const double late = result.trace.records[49].z_delta_sq;
  EXPECT_LT(late, early * 1e-1);  // Fig. 4(a): steady decay
}

TEST(LinearHorizontal, FactoredDualMatchesDenseDualClosely) {
  // Forcing every shard onto the matrix-free FactoredBoxQpSolver (as a
  // HIGGS-scale shard would be) must reproduce the dense-Q model to within
  // solver tolerance — deterministic, but not bit-identical by design.
  const auto split = cancer_split();
  const auto partition = data::partition_horizontally(split.train, 4, 7);

  AdmmParams dense = fast_params(30);
  AdmmParams factored = fast_params(30);
  factored.dense_q_row_limit = 0;  // every shard takes the implicit path

  const auto a = train_linear_horizontal(partition, dense, nullptr);
  const auto b = train_linear_horizontal(partition, factored, nullptr);
  for (std::size_t j = 0; j < a.model.w.size(); ++j)
    EXPECT_NEAR(a.model.w[j], b.model.w[j], 1e-3) << j;
  EXPECT_NEAR(a.model.b, b.model.b, 1e-3);
}

TEST(LinearHorizontal, LearnerPicksSolverByShardSize) {
  const auto split = cancer_split();
  const auto partition = data::partition_horizontally(split.train, 2, 7);
  AdmmParams params = fast_params(5);
  const LinearHorizontalLearner dense(partition.shards[0], 2, params);
  EXPECT_FALSE(dense.uses_factored_qp());  // default limit is generous

  params.dense_q_row_limit = 1;
  const LinearHorizontalLearner factored(partition.shards[0], 2, params);
  EXPECT_TRUE(factored.uses_factored_qp());
}

TEST(LinearHorizontal, MaskVariantsProduceSameModel) {
  const auto split = cancer_split();
  const auto partition = data::partition_horizontally(split.train, 3, 3);
  AdmmParams seeded = fast_params(15);
  seeded.mask_variant = crypto::MaskVariant::kSeededMasks;
  AdmmParams exchanged = fast_params(15);
  exchanged.mask_variant = crypto::MaskVariant::kExchangedMasks;

  const auto a = train_linear_horizontal(partition, seeded, nullptr);
  const auto b = train_linear_horizontal(partition, exchanged, nullptr);
  // Mask algebra cancels exactly in the ring; only fixed-point quantization
  // remains, identical for both variants.
  for (std::size_t j = 0; j < a.model.w.size(); ++j)
    EXPECT_NEAR(a.model.w[j], b.model.w[j], 1e-4);
  EXPECT_NEAR(a.model.b, b.model.b, 1e-4);
}

TEST(LinearHorizontal, SecureAveragingMatchesPlainAveraging) {
  // Train twice with different protocol seeds: the consensus trajectory
  // must be identical up to fixed-point quantization, proving the crypto
  // layer does not perturb learning.
  const auto split = cancer_split();
  const auto partition = data::partition_horizontally(split.train, 4, 1);
  AdmmParams pa = fast_params(10);
  pa.protocol_seed = 111;
  AdmmParams pb = fast_params(10);
  pb.protocol_seed = 222;
  const auto a = train_linear_horizontal(partition, pa, nullptr);
  const auto b = train_linear_horizontal(partition, pb, nullptr);
  for (std::size_t j = 0; j < a.model.w.size(); ++j)
    EXPECT_NEAR(a.model.w[j], b.model.w[j], 1e-4);
}

TEST(LinearHorizontal, MoreLearnersStillLearn) {
  const auto split = cancer_split();
  for (std::size_t m : {2, 8}) {
    const auto partition = data::partition_horizontally(split.train, m, 5);
    const auto result =
        train_linear_horizontal(partition, fast_params(60), &split.test);
    EXPECT_GE(result.trace.final_accuracy(), 0.85) << "M=" << m;
  }
}

TEST(LinearHorizontal, RejectsDegenerateInputs) {
  const auto split = cancer_split();
  data::HorizontalPartition partition =
      data::partition_horizontally(split.train, 4, 7);
  partition.shards.resize(1);
  EXPECT_THROW(train_linear_horizontal(partition, fast_params(), nullptr),
               InvalidArgument);

  AdmmParams bad;
  bad.c = -1.0;
  EXPECT_THROW(
      LinearHorizontalLearner(split.train, 4, bad), InvalidArgument);
}

TEST(LinearHorizontal, EarlyStopOnTolerance) {
  const auto split = cancer_split();
  const auto partition = data::partition_horizontally(split.train, 4, 7);
  AdmmParams params = fast_params(100);
  params.convergence_tolerance = 1e-4;
  const auto result = train_linear_horizontal(partition, params, nullptr);
  EXPECT_TRUE(result.run.converged);
  EXPECT_LT(result.run.iterations, 100u);
  EXPECT_LE(result.trace.final_delta_sq(), 1e-4);
}

TEST(AveragingCoordinatorTest, TracksDeltaOnWeightPartOnly) {
  AveragingCoordinator coordinator(3);  // 2 weights + bias
  coordinator.combine({1.0, 2.0, 100.0});
  EXPECT_DOUBLE_EQ(coordinator.last_delta_sq(), 5.0);  // bias ignored
  coordinator.combine({1.0, 2.0, -100.0});
  EXPECT_DOUBLE_EQ(coordinator.last_delta_sq(), 0.0);
  EXPECT_EQ(coordinator.z(), (Vector{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(coordinator.s(), -100.0);
  EXPECT_THROW(coordinator.combine({1.0}), InvalidArgument);
}

// ------------------------------------------------------------- kernel

TEST(KernelHorizontal, LearnsNonlinearTask) {
  // Rings are impossible for a linear separator; the distributed kernel
  // scheme must crack them.
  auto split =
      data::train_test_split(data::make_two_rings(400, 1.0, 3.0, 0.1, 3), 0.5, 9);
  const auto partition = data::partition_horizontally(split.train, 4, 11);

  AdmmParams params = fast_params(60);
  params.landmarks = 40;
  params.c = 10.0;
  params.rho = 1.0;
  const auto result = train_kernel_horizontal(
      partition, svm::Kernel::rbf(0.5), params, &split.test);
  EXPECT_GE(result.trace.final_accuracy(), 0.90);

  // Sanity: the linear scheme fails on the same data.
  const auto linear = train_linear_horizontal(partition, params, &split.test);
  EXPECT_LE(linear.trace.final_accuracy(), 0.75);
}

TEST(KernelHorizontal, ApproachesCentralizedKernelAccuracy) {
  auto split = cancer_split();
  const auto partition = data::partition_horizontally(split.train, 4, 7);
  AdmmParams params = fast_params(60);
  params.landmarks = 60;
  params.rho = 1.0;
  const svm::Kernel kernel = svm::Kernel::rbf(0.1);
  const auto result =
      train_kernel_horizontal(partition, kernel, params, &split.test);

  svm::TrainOptions central_options;
  central_options.c = params.c;
  const auto central =
      svm::train_kernel_svm(split.train, kernel, central_options);
  const double central_acc =
      svm::accuracy(central.predict_all(split.test.x), split.test.y);
  EXPECT_GE(result.trace.final_accuracy(), central_acc - 0.05);
}

TEST(KernelHorizontal, ModelMatchesExpansionCoefficients) {
  auto split = cancer_split();
  const auto partition = data::partition_horizontally(split.train, 2, 7);
  AdmmParams params = fast_params(10);
  params.landmarks = 20;
  const svm::Kernel kernel = svm::Kernel::rbf(0.2);
  const auto result =
      train_kernel_horizontal(partition, kernel, params, nullptr);

  // The returned KernelModel must equal the traced expansion: re-predict a
  // few test rows both ways.
  const auto model = result.model;
  EXPECT_EQ(model.points.rows(),
            partition.shards.front().size() + params.landmarks);
  for (std::size_t i = 0; i < 5; ++i) {
    const double via_model = model.decision_value(split.test.x.row(i));
    EXPECT_TRUE(std::isfinite(via_model));
  }
}

TEST(KernelHorizontal, LandmarkCountTradesOffAccuracy) {
  auto split =
      data::train_test_split(data::make_two_rings(300, 1.0, 3.0, 0.1, 5), 0.5, 2);
  const auto partition = data::partition_horizontally(split.train, 3, 2);
  AdmmParams coarse = fast_params(40);
  coarse.landmarks = 3;
  coarse.c = 10.0;
  coarse.rho = 1.0;
  AdmmParams fine = coarse;
  fine.landmarks = 50;
  const auto lo = train_kernel_horizontal(partition, svm::Kernel::rbf(0.5),
                                          coarse, &split.test);
  const auto hi = train_kernel_horizontal(partition, svm::Kernel::rbf(0.5),
                                          fine, &split.test);
  EXPECT_GE(hi.trace.final_accuracy(), lo.trace.final_accuracy() - 0.02);
}

TEST(SampleLandmarks, StaysInBoundingBoxAndIsDeterministic) {
  linalg::Matrix reference{{0.0, 10.0}, {1.0, 20.0}, {0.5, 15.0}};
  const linalg::Matrix a = sample_landmarks(reference, 25, 3);
  const linalg::Matrix b = sample_landmarks(reference, 25, 3);
  EXPECT_EQ(a, b);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    EXPECT_GE(a(i, 0), 0.0);
    EXPECT_LE(a(i, 0), 1.0);
    EXPECT_GE(a(i, 1), 10.0);
    EXPECT_LE(a(i, 1), 20.0);
  }
  // Landmarks are uniform draws: none should coincide with a training row.
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t r = 0; r < reference.rows(); ++r)
      EXPECT_FALSE(a(i, 0) == reference(r, 0) && a(i, 1) == reference(r, 1));
}

TEST(KernelHorizontal, RejectsMismatchedLandmarkWidth) {
  auto split = cancer_split();
  AdmmParams params = fast_params(5);
  EXPECT_THROW(KernelHorizontalLearner(split.train, linalg::Matrix(5, 2),
                                       svm::Kernel::rbf(0.1), 4, params),
               InvalidArgument);
}

struct KernelHorizontalDigests {
  std::uint64_t trace = 0;
  std::uint64_t model = 0;
};

/// Trains kh on the cancer split (3 learners, 20 landmarks, RBF) against
/// `test` at every available ISA level, forced in-process, and returns the
/// digest of every trace record and of learner 0's model. At rho = 10 the
/// test accuracy moves from round to round, so a record out of place shows.
std::vector<KernelHorizontalDigests> kernel_horizontal_digests(
    const data::Dataset& train, const data::Dataset& test,
    AdmmParams params, std::size_t expected_rounds) {
  const auto partition = data::partition_horizontally(train, 3, 7);
  params.landmarks = 20;
  params.rho = 10.0;
  std::vector<KernelHorizontalDigests> digests;
  for (const linalg::Isa isa : testing::available_isas()) {
    linalg::force_isa(isa);
    const auto result = train_kernel_horizontal(
        partition, svm::Kernel::rbf(0.05), params, &test);
    EXPECT_EQ(result.trace.records.size(), expected_rounds)
        << linalg::isa_name(isa);
    KernelHorizontalDigests d;
    d.trace = testing::trace_digest(result.trace);
    d.model = testing::fnv1a_bits(testing::kFnvOffset,
                                  result.model.points.data());
    d.model = testing::fnv1a_bits(d.model, result.model.coeffs);
    d.model = testing::fnv1a_bits(d.model, std::vector<double>{result.model.b});
    digests.push_back(d);
  }
  linalg::clear_forced_isa();
  return digests;
}

// Each digest is what per-round evaluation over cached test cross grams
// gives; the deferred evaluator must reproduce every record bit for bit.
TEST(KernelHorizontal, TraceAndModelDigestPinned) {
  const auto split = cancer_split();
  for (const auto& d : kernel_horizontal_digests(split.train, split.test,
                                                 fast_params(15), 15)) {
    EXPECT_EQ(d.trace, 0x168CDD19CDE09C20ULL);
    EXPECT_EQ(d.model, 0x5B7A6078EFA2FD88ULL);
  }
}

TEST(KernelHorizontal, TraceDigestPinnedWithMoreRoundsThanTestRows) {
  // Seven test rows and twenty rounds: the trace history fills twice and
  // the last six rounds are evaluated after the run.
  const auto split = cancer_split();
  const data::Dataset test = split.test.subset({0, 1, 2, 3, 4, 5, 6});
  for (const auto& d :
       kernel_horizontal_digests(split.train, test, fast_params(20), 20))
    EXPECT_EQ(d.trace, 0x4304FD50503BBC2EULL);
}

TEST(KernelHorizontal, TraceDigestPinnedWhenConvergedEarly) {
  const auto split = cancer_split();
  AdmmParams params = fast_params(200);
  params.convergence_tolerance = 1e-3;
  for (const auto& d :
       kernel_horizontal_digests(split.train, split.test, params, 45))
    EXPECT_EQ(d.trace, 0x660CA1EE318C4049ULL);
}
}  // namespace
}  // namespace ppml::core
