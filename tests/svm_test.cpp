#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <sstream>

#include "data/generators.h"
#include "data/standardize.h"
#include "linalg/blas.h"
#include "linalg/microkernel.h"
#include "qp/smo.h"
#include "svm/kernel.h"
#include "svm/metrics.h"
#include "svm/model.h"
#include "svm/trainer.h"

namespace ppml::svm {
namespace {

using data::Dataset;

TEST(Kernel, LinearIsDotProduct) {
  const Kernel k = Kernel::linear();
  EXPECT_DOUBLE_EQ(k(linalg::Vector{1.0, 2.0}, linalg::Vector{3.0, 4.0}),
                   11.0);
}

TEST(Kernel, PolynomialMatchesFormula) {
  const Kernel k = Kernel::polynomial(2, 0.5, 1.0);
  // (0.5 * 11 + 1)^2 = 6.5^2 = 42.25.
  EXPECT_DOUBLE_EQ(k(linalg::Vector{1.0, 2.0}, linalg::Vector{3.0, 4.0}),
                   42.25);
}

TEST(Kernel, RbfIsOneAtZeroDistanceAndDecays) {
  const Kernel k = Kernel::rbf(0.5);
  linalg::Vector x{1.0, -1.0};
  EXPECT_DOUBLE_EQ(k(x, x), 1.0);
  EXPECT_NEAR(k(x, linalg::Vector{1.0, 0.0}), std::exp(-0.5), 1e-12);
  EXPECT_GT(k(x, linalg::Vector{1.0, -0.9}), k(x, linalg::Vector{1.0, 0.0}));
}

TEST(Kernel, SigmoidMatchesFormula) {
  const Kernel k = Kernel::sigmoid(0.1, -0.2);
  EXPECT_NEAR(k(linalg::Vector{1.0, 2.0}, linalg::Vector{3.0, 4.0}),
              std::tanh(0.1 * 11.0 - 0.2), 1e-12);
}

TEST(Kernel, ParseNames) {
  EXPECT_EQ(parse_kernel_type("linear"), KernelType::kLinear);
  EXPECT_EQ(parse_kernel_type("rbf"), KernelType::kRbf);
  EXPECT_EQ(parse_kernel_type("poly"), KernelType::kPolynomial);
  EXPECT_EQ(parse_kernel_type("polynomial"), KernelType::kPolynomial);
  EXPECT_EQ(parse_kernel_type("sigmoid"), KernelType::kSigmoid);
  EXPECT_THROW(parse_kernel_type("laplace"), InvalidArgument);
}

TEST(Kernel, DescribeMentionsKind) {
  EXPECT_EQ(Kernel::linear().describe(), "linear");
  EXPECT_NE(Kernel::rbf(2.0).describe().find("rbf"), std::string::npos);
}

TEST(Gram, SymmetricAndConsistentWithCrossGram) {
  const Dataset d = data::make_cancer_like(1).subset({0, 1, 2, 3, 4});
  const Kernel k = Kernel::rbf(0.3);
  const linalg::Matrix g = gram(k, d.x);
  for (std::size_t i = 0; i < g.rows(); ++i) {
    EXPECT_DOUBLE_EQ(g(i, i), 1.0);  // RBF diagonal
    for (std::size_t j = 0; j < g.cols(); ++j)
      EXPECT_DOUBLE_EQ(g(i, j), g(j, i));
  }
  const linalg::Matrix cross = cross_gram(k, d.x, d.x);
  EXPECT_TRUE(linalg::allclose(g, cross, 1e-15));
}

TEST(Gram, ExactlySymmetricForEveryKernelAtBothIsaLevels) {
  // K == K^T bit for bit is what lets a consumer keep only one triangle
  // (linalg::symv_lower reads K(i,k), k > i, as K(k,i)). Sizes cross the
  // 4-lane SIMD groups and syrk's 64-row blocks.
  std::vector<linalg::Isa> isas = {linalg::Isa::kScalar};
  for (const linalg::Isa isa : {linalg::Isa::kAvx2, linalg::Isa::kAvx512})
    if (linalg::isa_available(isa)) isas.push_back(isa);
  const Kernel kernels[] = {Kernel::linear(), Kernel::polynomial(3, 0.5, 1.0),
                            Kernel::rbf(0.3), Kernel::sigmoid(0.1, -0.2)};
  std::mt19937_64 rng(17);
  std::normal_distribution<double> normal;
  for (const std::size_t n : {1, 5, 33, 130}) {
    linalg::Matrix x(n, 7);
    for (double& v : x.data()) v = normal(rng);
    for (const linalg::Isa isa : isas) {
      linalg::force_isa(isa);
      for (const Kernel& k : kernels) {
        const linalg::Matrix g = gram(k, x);
        std::size_t asymmetric = 0;
        for (std::size_t i = 0; i < n; ++i)
          for (std::size_t j = 0; j < i; ++j)
            asymmetric += std::bit_cast<std::uint64_t>(g(i, j)) !=
                          std::bit_cast<std::uint64_t>(g(j, i));
        EXPECT_EQ(asymmetric, 0u) << k.describe() << " n=" << n << " "
                                  << linalg::isa_name(isa);
      }
    }
  }
  linalg::clear_forced_isa();
}

TEST(Gram, KernelRowMatchesCrossGram) {
  const Dataset d = data::make_cancer_like(2).subset({0, 1, 2, 3});
  const Kernel k = Kernel::polynomial(3);
  const linalg::Vector row = kernel_row(k, d.x.row(1), d.x);
  const linalg::Matrix cross = cross_gram(k, d.x, d.x);
  for (std::size_t j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(row[j], cross(1, j));
}

TEST(Gram, KernelRowIsCrossGramRowBitwiseAtEveryIsaLevel) {
  // Streamed evaluation (the kernel trainers' deferred test trace) computes
  // one kernel_row per query where it used to keep cross_gram's matrix.
  // Non-RBF cross grams come from gemm_nt plus an elementwise transform,
  // rows from the dot_rows strip, so the two must agree bit for bit. Sizes
  // cross the 4-lane SIMD groups and gemm_nt's 64-row blocks.
  std::vector<linalg::Isa> isas = {linalg::Isa::kScalar};
  for (const linalg::Isa isa : {linalg::Isa::kAvx2, linalg::Isa::kAvx512})
    if (linalg::isa_available(isa)) isas.push_back(isa);
  const Kernel kernels[] = {Kernel::linear(), Kernel::polynomial(3, 0.5, 1.0),
                            Kernel::rbf(0.3), Kernel::sigmoid(0.1, -0.2)};
  std::mt19937_64 rng(29);
  std::normal_distribution<double> normal;
  linalg::Matrix a(70, 9);
  linalg::Matrix b(131, 9);
  for (double& v : a.data()) v = normal(rng);
  for (double& v : b.data()) v = normal(rng);
  for (const linalg::Isa isa : isas) {
    linalg::force_isa(isa);
    for (const Kernel& k : kernels) {
      const linalg::Matrix cross = cross_gram(k, a, b);
      std::size_t differ = 0;
      for (std::size_t i = 0; i < a.rows(); ++i) {
        const linalg::Vector row = kernel_row(k, a.row(i), b);
        for (std::size_t j = 0; j < b.rows(); ++j)
          differ += std::bit_cast<std::uint64_t>(row[j]) !=
                    std::bit_cast<std::uint64_t>(cross(i, j));
      }
      EXPECT_EQ(differ, 0u) << k.describe() << " " << linalg::isa_name(isa);
    }
  }
  linalg::clear_forced_isa();
}

TEST(Gram, CrossGramRejectsWidthMismatch) {
  EXPECT_THROW(
      cross_gram(Kernel::linear(), linalg::Matrix(2, 3), linalg::Matrix(2, 4)),
      InvalidArgument);
}

TEST(LinearTrainer, SeparatesTrivialData) {
  Dataset d;
  d.x = linalg::Matrix{{2.0}, {3.0}, {-2.0}, {-3.0}};
  d.y = {1.0, 1.0, -1.0, -1.0};
  const LinearModel model = train_linear_svm(d, TrainOptions{});
  EXPECT_GT(model.predict(linalg::Vector{2.5}), 0.0);
  EXPECT_LT(model.predict(linalg::Vector{-2.5}), 0.0);
  // Margin boundaries at +/-2 with max margin => w = 1/2, b = 0.
  EXPECT_NEAR(model.w[0], 0.5, 1e-4);
  EXPECT_NEAR(model.b, 0.0, 1e-4);
}

TEST(LinearTrainer, AsymmetricBias) {
  Dataset d;
  d.x = linalg::Matrix{{4.0}, {6.0}, {0.0}, {2.0}};
  d.y = {1.0, 1.0, -1.0, -1.0};
  const LinearModel model = train_linear_svm(d, TrainOptions{});
  // Separating hyperplane at x = 3: w = 1, b = -3.
  EXPECT_NEAR(model.w[0], 1.0, 1e-4);
  EXPECT_NEAR(model.b, -3.0, 1e-4);
}

TEST(LinearTrainer, AccuracyOnCancerLikeMatchesPaperBand) {
  auto split = data::train_test_split(data::make_cancer_like(1), 0.5, 42);
  data::StandardScaler scaler;
  scaler.fit_transform(split);
  TrainOptions options;
  options.c = 50.0;  // the paper's C
  const LinearModel model = train_linear_svm(split.train, options);
  const double acc = accuracy(model.predict_all(split.test.x), split.test.y);
  EXPECT_GE(acc, 0.92);  // paper reports 95% on the real data
}

TEST(LinearTrainer, DiagnosticsPopulated) {
  Dataset d;
  d.x = linalg::Matrix{{1.0}, {-1.0}, {2.0}, {-2.0}};
  d.y = {1.0, -1.0, 1.0, -1.0};
  TrainDiagnostics diag;
  train_linear_svm(d, TrainOptions{}, &diag);
  EXPECT_TRUE(diag.converged);
  EXPECT_GT(diag.iterations, 0u);
  EXPECT_GT(diag.support_vectors, 0u);
}

TEST(KernelTrainer, RbfSolvesRings) {
  auto split =
      data::train_test_split(data::make_two_rings(300, 1.0, 3.0, 0.1, 1), 0.5, 7);
  TrainOptions options;
  options.c = 10.0;
  const KernelModel model =
      train_kernel_svm(split.train, Kernel::rbf(0.5), options);
  const double acc = accuracy(model.predict_all(split.test.x), split.test.y);
  EXPECT_GE(acc, 0.97);

  // A linear SVM must fail on rings (sanity that the task needs the kernel).
  const LinearModel linear = train_linear_svm(split.train, options);
  const double linear_acc =
      accuracy(linear.predict_all(split.test.x), split.test.y);
  EXPECT_LE(linear_acc, 0.70);
}

TEST(KernelTrainer, RbfSolvesXor) {
  auto split =
      data::train_test_split(data::make_xor_blobs(400, 0.25, 2), 0.5, 3);
  TrainOptions options;
  options.c = 10.0;
  const KernelModel model =
      train_kernel_svm(split.train, Kernel::rbf(1.0), options);
  EXPECT_GE(accuracy(model.predict_all(split.test.x), split.test.y), 0.95);
}

TEST(KernelTrainer, ModelKeepsOnlySupportVectors) {
  auto split =
      data::train_test_split(data::make_cancer_like(3), 0.5, 11);
  data::StandardScaler scaler;
  scaler.fit_transform(split);
  TrainOptions options;
  options.c = 1.0;
  TrainDiagnostics diag;
  const KernelModel model =
      train_kernel_svm(split.train, Kernel::rbf(0.2), options, &diag);
  EXPECT_EQ(model.points.rows(), diag.support_vectors);
  EXPECT_LT(model.points.rows(), split.train.size());  // easy data => sparse
}

TEST(KernelTrainer, LinearKernelMatchesLinearTrainer) {
  Dataset d;
  d.x = linalg::Matrix{{1.0, 0.5}, {2.0, -0.3}, {-1.0, 0.2}, {-2.0, -0.6}};
  d.y = {1.0, 1.0, -1.0, -1.0};
  TrainOptions options;
  options.c = 5.0;
  const LinearModel linear = train_linear_svm(d, options);
  const KernelModel kernelized =
      train_kernel_svm(d, Kernel::linear(), options);
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_NEAR(linear.decision_value(d.x.row(i)),
                kernelized.decision_value(d.x.row(i)), 1e-4);
  }
}

TEST(RecoverBias, FreeSupportVectorAverage) {
  // Two free SVs with margins implying b = 0.5 each.
  const linalg::Vector lambda{0.5, 0.5};
  const linalg::Vector y{1.0, -1.0};
  const linalg::Vector f0{0.5, -1.5};
  EXPECT_NEAR(recover_bias(lambda, y, f0, 1.0), 0.5, 1e-12);
}

TEST(RecoverBias, FallsBackToIntervalMidpoint) {
  // No free SVs: lambda at bounds. lambda=0,y=+1 => b >= 1 - f0 = 0.6;
  // lambda=C,y=+1 => b <= 1 - f0 = 1.0. Midpoint 0.8.
  const linalg::Vector lambda{0.0, 1.0};
  const linalg::Vector y{1.0, 1.0};
  const linalg::Vector f0{0.4, 0.0};
  EXPECT_NEAR(recover_bias(lambda, y, f0, 1.0), 0.8, 1e-12);
}

TEST(Model, LinearSaveLoadRoundTrip) {
  LinearModel model{linalg::Vector{1.5, -2.5, 0.125}, 0.75};
  std::stringstream buffer;
  model.save(buffer);
  const LinearModel loaded = LinearModel::load(buffer);
  EXPECT_EQ(loaded.w, model.w);
  EXPECT_EQ(loaded.b, model.b);
}

TEST(Model, KernelSaveLoadRoundTrip) {
  KernelModel model;
  model.kernel = Kernel::rbf(0.7);
  model.points = linalg::Matrix{{1.0, 2.0}, {3.0, 4.0}};
  model.coeffs = {0.5, -0.25};
  model.b = -1.0;
  std::stringstream buffer;
  model.save(buffer);
  const KernelModel loaded = KernelModel::load(buffer);
  EXPECT_EQ(loaded.coeffs, model.coeffs);
  EXPECT_EQ(loaded.points, model.points);
  EXPECT_EQ(loaded.kernel.type, model.kernel.type);
  EXPECT_DOUBLE_EQ(loaded.kernel.gamma, 0.7);
  // Same predictions after round trip.
  EXPECT_DOUBLE_EQ(loaded.decision_value(linalg::Vector{0.0, 1.0}),
                   model.decision_value(linalg::Vector{0.0, 1.0}));
}

TEST(Model, LoadRejectsBadHeader) {
  std::stringstream buffer("not-a-model v1\n0\n0\n");
  EXPECT_THROW(LinearModel::load(buffer), InvalidArgument);
}

TEST(Model, SupportSizeCountsNonZeroCoeffs) {
  KernelModel model;
  model.kernel = Kernel::linear();
  model.points = linalg::Matrix(3, 1);
  model.coeffs = {0.0, 1e-12, 0.5};
  EXPECT_EQ(model.support_size(1e-9), 1u);
}

TEST(Metrics, AccuracyCountsMatches) {
  const linalg::Vector pred{1.0, -1.0, 1.0, 1.0};
  const linalg::Vector truth{1.0, -1.0, -1.0, 1.0};
  EXPECT_DOUBLE_EQ(accuracy(pred, truth), 0.75);
  EXPECT_THROW(accuracy(pred, linalg::Vector{1.0}), InvalidArgument);
}

TEST(Metrics, ConfusionAndDerivedScores) {
  const linalg::Vector pred{1.0, 1.0, -1.0, -1.0, 1.0};
  const linalg::Vector truth{1.0, -1.0, -1.0, 1.0, 1.0};
  const Confusion c = confusion(pred, truth);
  EXPECT_EQ(c.true_positive, 2u);
  EXPECT_EQ(c.false_positive, 1u);
  EXPECT_EQ(c.true_negative, 1u);
  EXPECT_EQ(c.false_negative, 1u);
  EXPECT_DOUBLE_EQ(c.accuracy(), 0.6);
  EXPECT_DOUBLE_EQ(c.precision(), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(c.recall(), 2.0 / 3.0);
  EXPECT_NEAR(c.f1(), 2.0 / 3.0, 1e-12);
}

TEST(Metrics, DegenerateConfusionScoresAreZeroNotNan) {
  const Confusion c = confusion(linalg::Vector{-1.0}, linalg::Vector{-1.0});
  EXPECT_DOUBLE_EQ(c.precision(), 0.0);
  EXPECT_DOUBLE_EQ(c.recall(), 0.0);
  EXPECT_DOUBLE_EQ(c.f1(), 0.0);
}

TEST(Metrics, HingeLoss) {
  const linalg::Vector decisions{2.0, 0.5, -1.0};
  const linalg::Vector labels{1.0, 1.0, 1.0};
  // max(0, 1-2) + max(0, 0.5) + max(0, 2) = 0 + 0.5 + 2 = 2.5; mean 0.8333.
  EXPECT_NEAR(hinge_loss(decisions, labels), 2.5 / 3.0, 1e-12);
}

TEST(Gram, BatchedBuildersMatchPairwiseKernelBitwise) {
  // gram/cross_gram now route dot-product kernels through blocked
  // syrk/gemm_nt plus an elementwise transform, and parallelize RBF rows.
  // Every entry must still equal the scalar kernel applied pairwise —
  // exactly, since downstream bit-identity tests build on these values.
  const Dataset d = data::make_cancer_like(3).subset(
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  const Dataset e = data::make_cancer_like(4).subset({0, 1, 2, 3, 4});
  for (const Kernel& k :
       {Kernel::linear(), Kernel::polynomial(3, 0.7, 0.3), Kernel::rbf(0.4),
        Kernel::sigmoid(0.2, -0.1)}) {
    const linalg::Matrix g = gram(k, d.x);
    for (std::size_t i = 0; i < d.size(); ++i)
      for (std::size_t j = 0; j < d.size(); ++j)
        EXPECT_EQ(g(i, j), k(d.x.row(i), d.x.row(j)))
            << k.describe() << " (" << i << "," << j << ")";
    const linalg::Matrix cg = cross_gram(k, d.x, e.x);
    for (std::size_t i = 0; i < d.size(); ++i)
      for (std::size_t j = 0; j < e.size(); ++j)
        EXPECT_EQ(cg(i, j), k(d.x.row(i), e.x.row(j)))
            << k.describe() << " (" << i << "," << j << ")";
  }
}

TEST(KernelTrainer, CachedSolveMatchesDenseReferenceBitwise) {
  // The trainer no longer materializes the Gram matrix; it streams rows of
  // Q through a KernelCache. The dual solution must nonetheless be
  // bit-identical to the classic dense solve.
  const Dataset train = data::make_two_rings(60, 1.0, 3.0, 0.1, 7);
  const Kernel kernel = Kernel::rbf(1.0);
  TrainOptions options;
  options.c = 5.0;
  // Force heavy eviction: budget for ~25% of the rows.
  options.kernel_cache_bytes =
      (train.size() / 4) * train.size() * sizeof(double);

  TrainDiagnostics diagnostics;
  const KernelModel model =
      train_kernel_svm(train, kernel, options, &diagnostics);
  ASSERT_TRUE(diagnostics.converged);

  // Dense reference: materialized Q, no shrinking, full selection scans.
  const std::size_t n = train.size();
  qp::SmoProblem problem;
  problem.q.resize(n, n);
  const linalg::Matrix k = gram(kernel, train.x);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      problem.q(i, j) = train.y[i] * train.y[j] * k(i, j);
  problem.p.assign(n, 1.0);
  problem.y = train.y;
  problem.c = options.c;
  qp::Options qp_options;
  qp_options.tolerance = options.tolerance;
  qp_options.max_iterations = options.max_iterations;
  qp_options.shrinking = false;
  const qp::Result dense = qp::solve_smo(problem, qp_options);
  ASSERT_TRUE(dense.converged);

  EXPECT_EQ(diagnostics.iterations, dense.iterations);
  std::vector<std::size_t> support_rows;
  for (std::size_t i = 0; i < n; ++i)
    if (dense.x[i] > 1e-9) support_rows.push_back(i);
  ASSERT_EQ(model.coeffs.size(), support_rows.size());
  for (std::size_t r = 0; r < support_rows.size(); ++r) {
    const std::size_t i = support_rows[r];
    EXPECT_EQ(model.coeffs[r], dense.x[i] * train.y[i]) << "row " << i;
    for (std::size_t f = 0; f < train.features(); ++f)
      EXPECT_EQ(model.points(r, f), train.x(i, f));
  }
  // Bias comes from the solver's final gradient instead of a fresh
  // gemv(K, coeffs); equal to the dense recovery up to accumulated
  // round-off in f0, which recover_bias averages away.
  const linalg::Vector f0 = linalg::gemv(k, [&] {
    linalg::Vector coeff(n);
    for (std::size_t i = 0; i < n; ++i) coeff[i] = dense.x[i] * train.y[i];
    return coeff;
  }());
  EXPECT_NEAR(model.b, recover_bias(dense.x, train.y, f0, options.c), 1e-8);
}

TEST(KernelTrainer, CacheBudgetDoesNotChangeTheModel) {
  const Dataset train = data::make_two_rings(40, 1.0, 3.0, 0.1, 11);
  const Kernel kernel = Kernel::rbf(0.8);
  TrainOptions unlimited;
  unlimited.c = 3.0;
  unlimited.kernel_cache_bytes = 0;  // every row stays resident
  TrainOptions tiny = unlimited;
  tiny.kernel_cache_bytes = 1;  // clamped to the 2-row minimum
  const KernelModel a = train_kernel_svm(train, kernel, unlimited);
  const KernelModel b = train_kernel_svm(train, kernel, tiny);
  ASSERT_EQ(a.coeffs.size(), b.coeffs.size());
  for (std::size_t i = 0; i < a.coeffs.size(); ++i)
    EXPECT_EQ(a.coeffs[i], b.coeffs[i]);
  EXPECT_EQ(a.b, b.b);
}

}  // namespace
}  // namespace ppml::svm
