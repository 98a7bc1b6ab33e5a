// Tests for the GLM trainers, secure vertical prediction, and the
// partial-participation consensus driver.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "core/consensus_engine.h"
#include "core/glm_horizontal.h"
#include "core/glm_vertical.h"
#include "core/secure_prediction.h"
#include "core/vertical.h"
#include "data/generators.h"
#include "data/standardize.h"
#include "linalg/blas.h"
#include "obs/obs.h"
#include "svm/metrics.h"

namespace ppml::core {
namespace {

data::SplitDataset cancer_split() {
  auto split = data::train_test_split(data::make_cancer_like(1), 0.5, 42);
  data::StandardScaler scaler;
  scaler.fit_transform(split);
  return split;
}

// ----------------------------------------------------------------- ridge

TEST(Ridge, CentralizedMatchesNormalEquationsByResidual) {
  const auto split = cancer_split();
  const auto model = centralized_ridge(split.train, 1e-2);
  // Optimality: gradient lambda*w + A^T(A theta - y) must vanish.
  const std::size_t k = split.train.features();
  Vector residual(split.train.size());
  for (std::size_t i = 0; i < split.train.size(); ++i)
    residual[i] =
        model.decision_value(split.train.x.row(i)) - split.train.y[i];
  Vector gradient_w = linalg::gemv_t(split.train.x, residual);
  for (std::size_t j = 0; j < k; ++j) gradient_w[j] += 1e-2 * model.w[j];
  EXPECT_LT(linalg::norm(gradient_w), 1e-6);
  double gradient_b = 0.0;
  for (double r : residual) gradient_b += r;
  EXPECT_NEAR(gradient_b, 0.0, 1e-6);
}

TEST(Ridge, DistributedConvergesToCentralized) {
  const auto split = cancer_split();
  const auto partition = data::partition_horizontally(split.train, 4, 7);
  GlmParams params;
  params.admm.max_iterations = 80;
  const auto distributed = train_ridge_horizontal(partition, params,
                                                  &split.test);
  const auto central = centralized_ridge(split.train, params.regularization);
  for (std::size_t j = 0; j < central.w.size(); ++j)
    EXPECT_NEAR(distributed.model.w[j], central.w[j], 5e-3) << j;
  EXPECT_NEAR(distributed.model.b, central.b, 5e-3);
}

TEST(Ridge, ClassifiesWell) {
  const auto split = cancer_split();
  const auto partition = data::partition_horizontally(split.train, 4, 7);
  GlmParams params;
  params.admm.max_iterations = 60;
  const auto result = train_ridge_horizontal(partition, params, &split.test);
  EXPECT_GE(result.trace.final_accuracy(), 0.92);
}

TEST(Ridge, RejectsBadParams) {
  GlmParams bad;
  bad.regularization = 0.0;
  EXPECT_THROW(
      RidgeHorizontalLearner(linalg::Matrix(4, 2), Vector(4, 1.0), 2, bad),
      InvalidArgument);
  EXPECT_THROW(RidgeHorizontalLearner(linalg::Matrix(4, 2), Vector(3, 1.0),
                                      2, GlmParams{}),
               InvalidArgument);
}

TEST(Ridge, HonoursTheAggregationTopology) {
  // GLM runs take their protocol settings from AdmmParams, topology
  // included: the grouped ring masks fewer pairs and decodes the same sums.
  const auto split = cancer_split();
  const auto partition = data::partition_horizontally(split.train, 9, 7);
  const auto run = [&](crypto::AggregationTopology topology) {
    GlmParams params;
    params.admm.max_iterations = 10;
    params.admm.agg_topology = topology;
    obs::MetricsRegistry metrics;
    obs::Session session(nullptr, &metrics);
    const auto result = train_ridge_horizontal(partition, params);
    Vector theta = result.model.w;
    theta.push_back(result.model.b);
    return std::make_pair(theta, metrics.counter("crypto.masks_generated"));
  };
  const auto [pairwise, pairwise_masks] =
      run(crypto::AggregationTopology::kPairwise);
  const auto [grouped, grouped_masks] =
      run(crypto::AggregationTopology::kGroupedRing);
  ASSERT_EQ(grouped.size(), pairwise.size());
  for (std::size_t j = 0; j < pairwise.size(); ++j)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(grouped[j]),
              std::bit_cast<std::uint64_t>(pairwise[j]))
        << j;
  EXPECT_GT(pairwise_masks, 0);
  EXPECT_LT(grouped_masks, pairwise_masks);
}

// -------------------------------------------------------------- logistic

TEST(Logistic, CentralizedIsStationary) {
  const auto split = cancer_split();
  const double lambda = 1e-2;
  const auto model = centralized_logistic(split.train, lambda);
  // Gradient of lambda/2 ||w||^2 + sum log1p(exp(-y f)) must vanish.
  const std::size_t k = split.train.features();
  Vector gradient(k + 1, 0.0);
  for (std::size_t j = 0; j < k; ++j) gradient[j] = lambda * model.w[j];
  for (std::size_t i = 0; i < split.train.size(); ++i) {
    const double t = model.decision_value(split.train.x.row(i));
    const double p = 1.0 / (1.0 + std::exp(split.train.y[i] * t));
    const auto row = split.train.x.row(i);
    for (std::size_t j = 0; j < k; ++j)
      gradient[j] += -split.train.y[i] * p * row[j];
    gradient[k] += -split.train.y[i] * p;
  }
  EXPECT_LT(linalg::norm(gradient), 1e-6);
}

TEST(Logistic, DistributedConvergesToCentralized) {
  const auto split = cancer_split();
  const auto partition = data::partition_horizontally(split.train, 4, 7);
  GlmParams params;
  params.admm.max_iterations = 80;
  const auto distributed =
      train_logistic_horizontal(partition, params, &split.test);
  const auto central =
      centralized_logistic(split.train, params.regularization);
  double dot = 0.0;
  double n1 = 0.0;
  double n2 = 0.0;
  for (std::size_t j = 0; j < central.w.size(); ++j) {
    dot += central.w[j] * distributed.model.w[j];
    n1 += central.w[j] * central.w[j];
    n2 += distributed.model.w[j] * distributed.model.w[j];
  }
  EXPECT_GT(dot / std::sqrt(n1 * n2), 0.99);
  EXPECT_GE(distributed.trace.final_accuracy(), 0.92);
}

TEST(Logistic, AccuracyComparableToSvm) {
  const auto split = cancer_split();
  const auto partition = data::partition_horizontally(split.train, 4, 7);
  GlmParams params;
  params.admm.max_iterations = 60;
  const auto logistic =
      train_logistic_horizontal(partition, params, &split.test);
  EXPECT_GE(logistic.trace.final_accuracy(), 0.92);
}

TEST(Logistic, RejectsBadLabels) {
  data::Dataset bad;
  bad.x = linalg::Matrix(2, 2);
  bad.y = {1.0, 0.3};
  EXPECT_THROW(LogisticHorizontalLearner(bad, 2, GlmParams{}),
               InvalidArgument);
}

// --------------------------------------------------------- vertical GLMs

TEST(RidgeVertical, LearnsAndConverges) {
  const auto split = cancer_split();
  const auto partition = data::partition_vertically(split.train, 4, 7);
  GlmParams params;
  params.admm.max_iterations = 60;
  params.admm.rho = 10.0;
  const auto result = train_ridge_vertical(partition, params, &split.test);
  EXPECT_GE(result.trace.final_accuracy(), 0.93);
  EXPECT_LT(result.trace.final_delta_sq(),
            result.trace.records[1].z_delta_sq);
}

TEST(RidgeVertical, ProxClosedFormIsStationary) {
  // The coordinator's closed-form prox must satisfy the stationarity
  // conditions of 1/2 sum (t - zeta - b)^2 + kappa/2 ||zeta - q||^2.
  const Vector targets{1.0, -1.0, 1.0, 1.0};
  GlmParams params;
  params.admm.rho = 8.0;
  RidgeVerticalCoordinator coordinator(targets, 2, params);
  const Vector cbar{0.2, -0.4, 0.1, 0.3};
  coordinator.combine(cbar);
  const double kappa = params.admm.rho / 2.0;
  double db = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    const double q = 2.0 * cbar[i];  // u was zero on the first round
    const double zeta = coordinator.zeta()[i];
    const double residual = targets[i] - zeta - coordinator.bias();
    EXPECT_NEAR(-residual + kappa * (zeta - q), 0.0, 1e-9) << i;
    db += residual;
  }
  EXPECT_NEAR(db, 0.0, 1e-9);
}

TEST(LogisticVertical, LearnsOnCancer) {
  const auto split = cancer_split();
  const auto partition = data::partition_vertically(split.train, 4, 7);
  GlmParams params;
  params.admm.max_iterations = 60;
  params.admm.rho = 10.0;
  const auto result = train_logistic_vertical(partition, params, &split.test);
  EXPECT_GE(result.trace.final_accuracy(), 0.93);
}

TEST(LogisticVertical, CoordinatorValidatesLabels) {
  GlmParams params;
  EXPECT_THROW(LogisticVerticalCoordinator(Vector{0.5, 1.0}, 2, params),
               InvalidArgument);
  EXPECT_THROW(LogisticVerticalCoordinator(Vector{}, 2, params),
               InvalidArgument);
  LogisticVerticalCoordinator ok(Vector{1.0, -1.0}, 2, params);
  EXPECT_THROW(ok.combine(Vector{1.0}), InvalidArgument);
}

// ------------------------------------------------- secure prediction

TEST(SecurePrediction, LinearMatchesPlainPredictions) {
  const auto split = cancer_split();
  const auto partition = data::partition_vertically(split.train, 4, 7);
  AdmmParams params;
  params.max_iterations = 40;
  const auto trained = train_linear_vertical(partition, params, nullptr);

  const Vector plain = trained.model.predict_all(split.test.x);
  const Vector secure =
      secure_vertical_predict(trained.model, split.test.x, params);
  ASSERT_EQ(secure.size(), plain.size());
  std::size_t disagreements = 0;
  for (std::size_t i = 0; i < plain.size(); ++i)
    if (secure[i] != plain[i]) ++disagreements;
  // Fixed-point quantization can only flip samples sitting exactly on the
  // boundary — none or almost none.
  EXPECT_LE(disagreements, 1u);
}

TEST(SecurePrediction, KernelMatchesPlainPredictions) {
  const auto split = cancer_split();
  const auto partition = data::partition_vertically(split.train, 3, 5);
  AdmmParams params;
  params.max_iterations = 30;
  const auto trained =
      train_kernel_vertical(partition, svm::Kernel::rbf(0.3), params, nullptr);
  const Vector plain = trained.model.predict_all(split.test.x);
  const Vector secure =
      secure_vertical_predict(trained.model, split.test.x, params);
  std::size_t disagreements = 0;
  for (std::size_t i = 0; i < plain.size(); ++i)
    if (secure[i] != plain[i]) ++disagreements;
  EXPECT_LE(disagreements, 1u);
}

TEST(SecurePrediction, DecisionValuesMatchToQuantization) {
  const auto split = cancer_split();
  const auto partition = data::partition_vertically(split.train, 4, 7);
  AdmmParams params;
  params.max_iterations = 30;
  const auto trained = train_linear_vertical(partition, params, nullptr);
  const Vector secure =
      secure_vertical_decision_values(trained.model, split.test.x, params);
  for (std::size_t i = 0; i < 25; ++i) {
    EXPECT_NEAR(secure[i], trained.model.decision_value(split.test.x.row(i)),
                1e-4);
  }
}

// --------------------------------------------- partial participation

TEST(PartialParticipation, SubsetMasksCancelExactly) {
  const std::size_t m = 6;
  const crypto::FixedPointCodec codec(20, 3);
  const auto seeds = crypto::agree_pairwise_seeds(m, 3);
  const std::vector<std::size_t> participants{1, 3, 4};
  std::vector<std::uint64_t> ring_sum(1, 0);
  double expected = 0.0;
  for (std::size_t i : participants) {
    crypto::SecureSumParty party(i, m, codec, seeds[i]);
    const std::vector<double> value{static_cast<double>(i) + 0.5};
    expected += value[0];
    crypto::ring_add_inplace(ring_sum, party.mask(value, 4, participants));
  }
  EXPECT_NEAR(codec.decode_vector(ring_sum)[0], expected, 1e-5);
}

TEST(PartialParticipation, NonParticipantCannotContribute) {
  const std::size_t m = 4;
  const crypto::FixedPointCodec codec(20, 2);
  const auto seeds = crypto::agree_pairwise_seeds(m, 3);
  crypto::SecureSumParty party(0, m, codec, seeds[0]);
  const std::vector<std::size_t> others{1, 2};
  EXPECT_THROW(party.mask(std::vector<double>{1.0}, 0, others),
               InvalidArgument);
}

TEST(PartialParticipation, StillLearnsWithSampledRounds) {
  const auto split = cancer_split();
  const std::size_t m = 6;
  const auto partition = data::partition_horizontally(split.train, m, 7);
  AdmmParams params;
  params.max_iterations = 80;

  std::vector<std::shared_ptr<ConsensusLearner>> learners;
  for (const auto& shard : partition.shards)
    learners.push_back(
        std::make_shared<LinearHorizontalLearner>(shard, m, params));
  AveragingCoordinator coordinator(split.train.features() + 1);

  PartialParticipation policy(/*participants_per_round=*/3,
                              /*sampling_seed=*/5);
  InMemoryTransport transport;
  const auto run =
      ConsensusEngine(learners, coordinator, params, policy).run(transport);
  EXPECT_EQ(run.iterations, 80u);

  const svm::LinearModel model{coordinator.z(), coordinator.s()};
  const double acc =
      svm::accuracy(model.predict_all(split.test.x), split.test.y);
  EXPECT_GE(acc, 0.9);
}

TEST(PartialParticipation, ValidatesArguments) {
  const auto split = cancer_split();
  const auto partition = data::partition_horizontally(split.train, 4, 7);
  AdmmParams params;
  std::vector<std::shared_ptr<ConsensusLearner>> learners;
  for (const auto& shard : partition.shards)
    learners.push_back(
        std::make_shared<LinearHorizontalLearner>(shard, 4, params));
  AveragingCoordinator coordinator(split.train.features() + 1);
  const auto build = [&](const AdmmParams& p, std::size_t per_round) {
    PartialParticipation policy(per_round, /*sampling_seed=*/1);
    ConsensusEngine engine(learners, coordinator, p, policy);
  };
  EXPECT_THROW(build(params, 1), InvalidArgument);
  EXPECT_THROW(build(params, 9), InvalidArgument);
  AdmmParams exchanged = params;
  exchanged.mask_variant = crypto::MaskVariant::kExchangedMasks;
  EXPECT_THROW(build(exchanged, 2), InvalidArgument);
}

}  // namespace
}  // namespace ppml::core
