// Edge-case and integration corners not covered by the per-module suites:
// file-level IO round trips, GLM learners on the MapReduce cluster, small
// numeric corner cases, and cross-module plumbing details.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "core/glm_horizontal.h"
#include "core/glm_vertical.h"
#include "core/mapreduce_adapter.h"
#include "core/secure_prediction.h"
#include "core/vertical.h"
#include "data/generators.h"
#include "data/io.h"
#include "data/standardize.h"
#include "linalg/blas.h"
#include "linalg/cholesky.h"
#include "svm/metrics.h"
#include "svm/trainer.h"

namespace ppml {
namespace {

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("ppml-test-" + std::to_string(::getpid()));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

TEST(FileIo, CsvFileRoundTrip) {
  TempDir dir;
  const data::Dataset original = data::make_cancer_like(2);
  const std::string path = dir.file("data.csv");
  data::save_csv_file(original, path);
  const data::Dataset loaded = data::load_csv_file(path);
  EXPECT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.y, original.y);
  for (std::size_t i = 0; i < 10; ++i)
    for (std::size_t j = 0; j < original.features(); ++j)
      EXPECT_DOUBLE_EQ(loaded.x(i, j), original.x(i, j));
}

TEST(FileIo, MissingFilesThrow) {
  EXPECT_THROW(data::load_csv_file("/nonexistent/nope.csv"), Error);
  EXPECT_THROW(data::load_libsvm_file("/nonexistent/nope.libsvm"), Error);
}

TEST(FileIo, LibsvmFileRoundTripThroughCsvModel) {
  TempDir dir;
  const std::string path = dir.file("data.libsvm");
  {
    std::ofstream out(path);
    out << "+1 1:0.5 2:1.0\n-1 2:2.0\n+1 1:-1.5\n";
  }
  const data::Dataset d = data::load_libsvm_file(path);
  EXPECT_EQ(d.size(), 3u);
  EXPECT_EQ(d.features(), 2u);
  EXPECT_DOUBLE_EQ(d.x(2, 0), -1.5);
}

TEST(FileIo, ModelSaveLoadThroughFiles) {
  TempDir dir;
  const data::Dataset d = data::make_cancer_like(4);
  svm::TrainOptions options;
  options.c = 1.0;
  const svm::LinearModel model = svm::train_linear_svm(d, options);
  const std::string path = dir.file("model.txt");
  {
    std::ofstream out(path);
    model.save(out);
  }
  std::ifstream in(path);
  const svm::LinearModel loaded = svm::LinearModel::load(in);
  EXPECT_EQ(loaded.w, model.w);
  EXPECT_DOUBLE_EQ(loaded.b, model.b);
}

TEST(NumericCorners, OneByOneCholesky) {
  linalg::Matrix a{{4.0}};
  const linalg::Cholesky chol(a);
  EXPECT_DOUBLE_EQ(chol.l()(0, 0), 2.0);
  const linalg::Vector x = chol.solve(linalg::Vector{8.0});
  EXPECT_DOUBLE_EQ(x[0], 2.0);
}

TEST(NumericCorners, MatrixShapeOverflowThrows) {
  // rows * cols wraps size_t: the buffer must not be sized by the wrapped
  // product.
  const std::size_t big = std::size_t{1} << (sizeof(std::size_t) * 4);
  EXPECT_THROW(linalg::Matrix(big, big), InvalidArgument);
  EXPECT_THROW(linalg::Matrix(big + 1, big, 1.0), InvalidArgument);
  EXPECT_THROW(linalg::Matrix(big, big, std::vector<double>{}),
               InvalidArgument);
  linalg::Matrix m(2, 2);
  EXPECT_THROW(m.resize(big, big), InvalidArgument);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.size(), 4u);
  EXPECT_NO_THROW(linalg::Matrix(big, 0));
}

TEST(NumericCorners, FlatBufferMustMatchShape) {
  EXPECT_THROW(linalg::Matrix(2, 3, std::vector<double>(5)), InvalidArgument);
  EXPECT_THROW(linalg::Matrix(2, 3, std::vector<double>(7)), InvalidArgument);
  EXPECT_THROW(linalg::Matrix(0, 3, std::vector<double>(1)), InvalidArgument);
  const linalg::Matrix ok(2, 3, std::vector<double>(6, 1.5));
  EXPECT_EQ(ok(1, 2), 1.5);
}

TEST(NumericCorners, EmptyMatrixOperations) {
  linalg::Matrix empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.transposed().rows(), 0u);
  const linalg::Matrix gram = linalg::gram_at_a(linalg::Matrix(3, 0));
  EXPECT_EQ(gram.rows(), 0u);
}

TEST(NumericCorners, SingleSampleShardStillTrains) {
  // A learner with exactly one row per class must not break the QP.
  data::Dataset tiny;
  tiny.x = linalg::Matrix{{1.0, 0.0}, {-1.0, 0.0}};
  tiny.y = {1.0, -1.0};
  core::AdmmParams params;
  params.max_iterations = 5;
  core::LinearHorizontalLearner learner(tiny, 2, params);
  const linalg::Vector contribution = learner.local_step({});
  EXPECT_EQ(contribution.size(), 3u);
  for (double v : contribution) EXPECT_TRUE(std::isfinite(v));
}

TEST(GlmOnCluster, LogisticRunsThroughMapReduceAdapter) {
  auto split = data::train_test_split(data::make_cancer_like(1), 0.5, 42);
  data::StandardScaler scaler;
  scaler.fit_transform(split);
  const auto partition = data::partition_horizontally(split.train, 3, 7);

  std::vector<mapreduce::Bytes> shards;
  for (const auto& shard : partition.shards)
    shards.push_back(core::serialize_horizontal_shard(shard));

  core::GlmParams glm;
  glm.admm.max_iterations = 40;
  core::AveragingCoordinator coordinator(split.train.features() + 1);
  const core::GlmParams captured = glm;
  const core::LearnerFactory factory = [captured](
                                           mapreduce::BytesView payload,
                                           std::size_t) {
    return std::make_shared<core::LogisticHorizontalLearner>(
        core::deserialize_horizontal_shard(payload), 3, captured);
  };

  mapreduce::ClusterConfig config;
  config.num_nodes = 4;
  mapreduce::Cluster cluster(config);
  core::ConsensusEngine engine(3, coordinator, glm.admm);
  core::FabricTransport transport(cluster, std::move(shards), factory,
                                  /*reducer_node=*/3);
  engine.run(transport);
  EXPECT_EQ(transport.job_stats().rounds, 40u);

  const svm::LinearModel model{coordinator.z(), coordinator.s()};
  EXPECT_GE(svm::accuracy(model.predict_all(split.test.x), split.test.y),
            0.9);
}

TEST(GlmOnCluster, MatchesInMemoryLogistic) {
  auto split = data::train_test_split(data::make_cancer_like(1), 0.5, 42);
  data::StandardScaler scaler;
  scaler.fit_transform(split);
  const auto partition = data::partition_horizontally(split.train, 3, 7);
  core::GlmParams glm;
  glm.admm.max_iterations = 15;
  const auto reference = core::train_logistic_horizontal(partition, glm);

  std::vector<mapreduce::Bytes> shards;
  for (const auto& shard : partition.shards)
    shards.push_back(core::serialize_horizontal_shard(shard));
  core::AveragingCoordinator coordinator(split.train.features() + 1);
  const core::GlmParams captured = glm;
  const core::LearnerFactory factory = [captured](
                                           mapreduce::BytesView payload,
                                           std::size_t) {
    return std::make_shared<core::LogisticHorizontalLearner>(
        core::deserialize_horizontal_shard(payload), 3, captured);
  };
  mapreduce::ClusterConfig config;
  config.num_nodes = 4;
  mapreduce::Cluster cluster(config);
  core::ConsensusEngine engine(3, coordinator, glm.admm);
  core::FabricTransport transport(cluster, std::move(shards), factory,
                                  /*reducer_node=*/3);
  engine.run(transport);
  const svm::LinearModel on_cluster{coordinator.z(), coordinator.s()};
  for (std::size_t j = 0; j < reference.model.w.size(); ++j)
    EXPECT_NEAR(on_cluster.w[j], reference.model.w[j], 1e-9);
}

TEST(Plumbing, AveragingCoordinatorMinimumDim) {
  EXPECT_THROW(core::AveragingCoordinator(1), InvalidArgument);
  EXPECT_NO_THROW(core::AveragingCoordinator(2));
}

TEST(Plumbing, StandardGroupIsStableAcrossCalls) {
  const auto a = crypto::DhGroup::standard_group();
  const auto b = crypto::DhGroup::standard_group();
  EXPECT_EQ(a.p, b.p);
  EXPECT_EQ(a.g, b.g);
}

TEST(Plumbing, TrainerRejectsEmptyDataset) {
  data::Dataset empty;
  EXPECT_THROW(svm::train_linear_svm(empty, svm::TrainOptions{}),
               InvalidArgument);
}

TEST(Plumbing, KernelModelPredictAllShapes) {
  svm::KernelModel model;
  model.kernel = svm::Kernel::linear();
  model.points = linalg::Matrix{{1.0, 0.0}};
  model.coeffs = {1.0};
  model.b = -0.5;
  const linalg::Matrix queries{{2.0, 0.0}, {0.0, 0.0}};
  const linalg::Vector out = model.predict_all(queries);
  EXPECT_EQ(out[0], 1.0);   // 2 - 0.5 > 0
  EXPECT_EQ(out[1], -1.0);  // 0 - 0.5 < 0
}


// --- feature rows narrower than a vertical partition -------------------------
// Every consumer of a full feature row must refuse one that is narrower
// than the largest feature index it reads, before reading it.

struct NarrowFixture {
  data::SplitDataset split;
  data::VerticalPartition partition;
  data::Dataset narrow;  // the test set cut to its first two columns
};

NarrowFixture narrow_fixture() {
  NarrowFixture f;
  f.split = data::train_test_split(data::make_cancer_like(1), 0.5, 42);
  data::StandardScaler scaler;
  scaler.fit_transform(f.split);
  f.partition = data::partition_vertically(f.split.train, 2, 3);
  f.narrow = f.split.test.feature_subset({0, 1});
  return f;
}

TEST(NarrowInput, RequiredWidthIsLargestIndexPlusOne) {
  EXPECT_EQ(core::required_width({}), 0u);
  EXPECT_EQ(core::required_width({{2, 0}, {}, {5, 1}}), 6u);
  const auto f = narrow_fixture();
  EXPECT_EQ(core::required_width(f.partition.feature_indices),
            f.split.train.features());
}

TEST(NarrowInput, VerticalTrainersRejectNarrowTestSet) {
  const auto f = narrow_fixture();
  core::AdmmParams params;
  params.max_iterations = 3;
  EXPECT_THROW(core::train_kernel_vertical(f.partition, svm::Kernel::rbf(0.3),
                                           params, &f.narrow),
               InvalidArgument);
  EXPECT_THROW(core::train_linear_vertical(f.partition, params, &f.narrow),
               InvalidArgument);
  core::GlmParams glm;
  glm.admm.max_iterations = 3;
  EXPECT_THROW(core::train_ridge_vertical(f.partition, glm, &f.narrow),
               InvalidArgument);
  EXPECT_THROW(core::train_logistic_vertical(f.partition, glm, &f.narrow),
               InvalidArgument);
  // The full-width test set still trains and traces.
  const auto ok = core::train_kernel_vertical(
      f.partition, svm::Kernel::rbf(0.3), params, &f.split.test);
  EXPECT_EQ(ok.trace.records.size(), 3u);
}

TEST(NarrowInput, VerticalViewsAndSecurePredictionRejectNarrowRows) {
  const auto f = narrow_fixture();
  core::AdmmParams params;
  params.max_iterations = 3;
  const auto linear = core::train_linear_vertical(f.partition, params);
  const auto kernel = core::train_kernel_vertical(
      f.partition, svm::Kernel::rbf(0.3), params);

  EXPECT_THROW(linear.model.decision_value(f.narrow.x.row(0)),
               InvalidArgument);
  EXPECT_THROW(linear.model.predict_all(f.narrow.x), InvalidArgument);
  EXPECT_THROW(kernel.model.decision_value(f.narrow.x.row(0)),
               InvalidArgument);
  EXPECT_THROW(kernel.model.predict_all(f.narrow.x), InvalidArgument);
  EXPECT_THROW(
      core::secure_vertical_decision_values(linear.model, f.narrow.x, params),
      InvalidArgument);
  EXPECT_THROW(
      core::secure_vertical_decision_values(kernel.model, f.narrow.x, params),
      InvalidArgument);

  // Full-width rows are still scored.
  EXPECT_NO_THROW(linear.model.predict_all(f.split.test.x));
  EXPECT_NO_THROW(kernel.model.predict_all(f.split.test.x));
}

}  // namespace
}  // namespace ppml
