#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <random>
#include <set>
#include <sstream>

#include "data/dataset.h"
#include "data/generators.h"
#include "data/io.h"
#include "data/partition.h"
#include "data/standardize.h"
#include "trace_digest.h"

namespace ppml::data {
namespace {

Dataset tiny_dataset() {
  Dataset d;
  d.name = "tiny";
  d.x = Matrix{{1, 2}, {3, 4}, {5, 6}, {7, 8}};
  d.y = {1.0, -1.0, 1.0, -1.0};
  return d;
}

TEST(Dataset, ValidateAcceptsWellFormed) {
  EXPECT_NO_THROW(tiny_dataset().validate());
}

TEST(Dataset, ValidateRejectsBadLabels) {
  Dataset d = tiny_dataset();
  d.y[1] = 0.5;
  EXPECT_THROW(d.validate(), InvalidArgument);
}

TEST(Dataset, ValidateRejectsSizeMismatch) {
  Dataset d = tiny_dataset();
  d.y.pop_back();
  EXPECT_THROW(d.validate(), InvalidArgument);
}

TEST(Dataset, SubsetSelectsRows) {
  const Dataset d = tiny_dataset();
  const Dataset s = d.subset({2, 0});
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.x(0, 0), 5.0);
  EXPECT_EQ(s.y[1], 1.0);
  EXPECT_THROW(d.subset({9}), InvalidArgument);
}

TEST(Dataset, FeatureSubsetSelectsColumns) {
  const Dataset d = tiny_dataset();
  const Dataset s = d.feature_subset({1});
  EXPECT_EQ(s.features(), 1u);
  EXPECT_EQ(s.x(2, 0), 6.0);
  EXPECT_EQ(s.y, d.y);
}

TEST(Dataset, ClassCounts) {
  const auto [pos, neg] = tiny_dataset().class_counts();
  EXPECT_EQ(pos, 2u);
  EXPECT_EQ(neg, 2u);
}

TEST(Split, DeterministicAndDisjoint) {
  const Dataset d = make_cancer_like(3);
  const SplitDataset a = train_test_split(d, 0.5, 99);
  const SplitDataset b = train_test_split(d, 0.5, 99);
  EXPECT_EQ(a.train.x, b.train.x);
  EXPECT_EQ(a.test.y, b.test.y);
  EXPECT_EQ(a.train.size() + a.test.size(), d.size());
}

TEST(Split, FractionBoundsEnforced) {
  const Dataset d = tiny_dataset();
  EXPECT_THROW(train_test_split(d, 0.0, 1), InvalidArgument);
  EXPECT_THROW(train_test_split(d, 1.0, 1), InvalidArgument);
}

TEST(Split, DifferentSeedsDiffer) {
  const Dataset d = make_cancer_like(3);
  const SplitDataset a = train_test_split(d, 0.5, 1);
  const SplitDataset b = train_test_split(d, 0.5, 2);
  EXPECT_NE(a.train.x, b.train.x);
}

// --- bit pins -------------------------------------------------------------
//
// One FNV-1a digest per dataset over its shape, rows, labels and name. The
// goldens were recorded when shuffle_rows still built a permuted copy and
// train_test_split still shuffled a copy of its input; the in-place cycle
// walk and the copy-free split must reproduce them bit for bit.

std::uint64_t dataset_digest(const Dataset& d) {
  const double shape[] = {static_cast<double>(d.x.rows()),
                          static_cast<double>(d.x.cols())};
  std::uint64_t h = testing::fnv1a_bits(testing::kFnvOffset, shape);
  h = testing::fnv1a_bits(h, d.x.data());
  h = testing::fnv1a_bits(h, d.y);
  for (const char c : d.name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// n x 3 rows, every value distinct and row i tagged by x(i, 0) == i.
Dataset numbered_dataset(std::size_t n) {
  Dataset d;
  d.name = "numbered";
  d.x.resize(n, 3);
  d.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    d.x(i, 0) = static_cast<double>(i);
    d.x(i, 1) = 0.5 * static_cast<double>(i) + 0.25;
    d.x(i, 2) = -static_cast<double>(i * i) / 7.0;
    d.y[i] = (i * 2654435761u) % 3 == 0 ? 1.0 : -1.0;
  }
  return d;
}

TEST(ShuffleRows, DigestPinned) {
  const std::pair<std::size_t, std::uint64_t> pins[] = {
      {0, 0x57922f71c9754479ULL},
      {1, 0x339ac05e592962b8ULL},
      {2, 0xbb04b322cb18827dULL},
      {1001, 0xaa49a21ed11cbc3cULL}};
  for (const auto& [n, golden] : pins) {
    Dataset d = numbered_dataset(n);
    shuffle_rows(d, 77);
    EXPECT_EQ(dataset_digest(d), golden) << "n = " << n << " digest 0x"
                                         << std::hex << dataset_digest(d);
  }
}

TEST(ShuffleRows, RowIHoldsOldRowOrderI) {
  // The documented order: iota, mt19937_64(seed), std::shuffle.
  const std::size_t n = 1001;
  const Dataset before = numbered_dataset(n);
  Dataset after = before;
  shuffle_rows(after, 5);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::mt19937_64 rng(5);
  std::shuffle(order.begin(), order.end(), rng);
  EXPECT_EQ(after.x, before.subset(order).x);
  EXPECT_EQ(after.y, before.subset(order).y);
  EXPECT_EQ(after.name, before.name);
}

TEST(ShuffleRows, PermutesInPlace) {
  Dataset d = numbered_dataset(1001);
  const double* rows = d.x.data().data();
  const double* labels = d.y.data();
  shuffle_rows(d, 3);
  EXPECT_EQ(d.x.data().data(), rows);
  EXPECT_EQ(d.y.data(), labels);
}

TEST(Split, DigestPinnedAtOddSizes) {
  const struct {
    double fraction;
    std::uint64_t train, test;
  } pins[] = {{0.5, 0x78dcff0481cf2b14ULL, 0xfd84ae98f84f4ef8ULL},
               {0.6, 0x2eb2472337d5637fULL, 0xb9749431be614178ULL}};
  const Dataset d = numbered_dataset(1001);
  for (const auto& pin : pins) {
    const SplitDataset s = train_test_split(d, pin.fraction, 42);
    EXPECT_EQ(dataset_digest(s.train), pin.train)
        << pin.fraction << " train 0x" << std::hex << dataset_digest(s.train);
    EXPECT_EQ(dataset_digest(s.test), pin.test)
        << pin.fraction << " test 0x" << std::hex << dataset_digest(s.test);
  }
}

TEST(Generators, DigestPinned) {
  GaussianTaskConfig task;
  task.samples = 301;
  task.features = 5;
  task.latent_dim = 2;
  task.label_noise = 0.05;
  task.seed = 9;
  const std::pair<const char*, Dataset> cases[] = {
      {"higgs", make_higgs_like(3, 1201)},
      {"cancer", make_cancer_like(3)},
      {"ocr", make_ocr_like(1, 701)},
      {"xor", make_xor_blobs(401, 0.25, 2)},
      {"gaussian", make_gaussian_task(task)}};
  const std::uint64_t goldens[] = {0x971ab31aa09fc421ULL, 0x447e4b7c8c9a9704ULL,
                                   0x12baaea0de3c1a9cULL, 0xab4a33f82e81d7f9ULL,
                                   0x56a0e6b08227b459ULL};
  for (std::size_t i = 0; i < std::size(cases); ++i)
    EXPECT_EQ(dataset_digest(cases[i].second), goldens[i])
        << cases[i].first << " digest 0x" << std::hex
        << dataset_digest(cases[i].second);
}

TEST(Generators, CancerLikeShapeMatchesPaperDataset) {
  const Dataset d = make_cancer_like(1);
  EXPECT_EQ(d.size(), 569u);       // UCI breast-cancer rows
  EXPECT_EQ(d.features(), 9u);     // feature attributes
  const auto [pos, neg] = d.class_counts();
  EXPECT_EQ(pos, 357u);            // benign majority preserved
  EXPECT_EQ(neg, 212u);
}

TEST(Generators, HiggsLikeShapeMatchesPaperSubset) {
  const Dataset d = make_higgs_like(1, 2000);
  EXPECT_EQ(d.size(), 2000u);
  EXPECT_EQ(d.features(), 28u);
  const Dataset full = make_higgs_like(1);
  EXPECT_EQ(full.size(), 11000u);  // the paper's subset size
}

TEST(Generators, OcrLikeShapeAndPixelRange) {
  const Dataset d = make_ocr_like(1, 500);
  EXPECT_EQ(d.features(), 64u);
  for (double v : d.x.data()) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 16.0);  // optdigits pixel-count range
  }
}

TEST(Generators, OcrLikeFeaturesAreCorrelated) {
  // Low-rank latent structure => strong pairwise correlations must exist.
  const Dataset d = make_ocr_like(2, 800);
  const std::size_t n = d.size();
  // Compute correlation of a few feature pairs; count strong ones.
  std::size_t strong = 0;
  for (std::size_t a = 0; a < 8; ++a) {
    for (std::size_t b = a + 1; b < 8; ++b) {
      double ma = 0.0;
      double mb = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        ma += d.x(i, a);
        mb += d.x(i, b);
      }
      ma /= static_cast<double>(n);
      mb /= static_cast<double>(n);
      double saa = 0.0;
      double sbb = 0.0;
      double sab = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        saa += (d.x(i, a) - ma) * (d.x(i, a) - ma);
        sbb += (d.x(i, b) - mb) * (d.x(i, b) - mb);
        sab += (d.x(i, a) - ma) * (d.x(i, b) - mb);
      }
      if (std::abs(sab / std::sqrt(saa * sbb)) > 0.5) ++strong;
    }
  }
  EXPECT_GE(strong, 3u);
}

TEST(Generators, DeterministicInSeed) {
  EXPECT_EQ(make_cancer_like(5).x, make_cancer_like(5).x);
  EXPECT_NE(make_cancer_like(5).x, make_cancer_like(6).x);
}

TEST(Generators, GaussianTaskRespectsPositiveFraction) {
  GaussianTaskConfig config;
  config.samples = 1000;
  config.positive_fraction = 0.25;
  const auto [pos, neg] = make_gaussian_task(config).class_counts();
  EXPECT_EQ(pos, 250u);
  EXPECT_EQ(neg, 750u);
}

TEST(Generators, LabelNoiseFlipsSomeLabels) {
  GaussianTaskConfig config;
  config.samples = 2000;
  config.separation = 10.0;  // almost surely separable without noise
  config.label_noise = 0.2;
  config.seed = 3;
  const Dataset noisy = make_gaussian_task(config);
  config.label_noise = 0.0;
  const Dataset clean = make_gaussian_task(config);
  std::size_t flips = 0;
  // Same seed => same order after shuffle; compare labels.
  for (std::size_t i = 0; i < noisy.size(); ++i)
    if (noisy.y[i] != clean.y[i]) ++flips;
  EXPECT_GT(flips, 250u);
  EXPECT_LT(flips, 550u);
}

TEST(Generators, TwoRingsRadiiSeparateClasses) {
  const Dataset d = make_two_rings(400, 1.0, 3.0, 0.05, 1);
  for (std::size_t i = 0; i < d.size(); ++i) {
    const double r = std::hypot(d.x(i, 0), d.x(i, 1));
    if (d.y[i] > 0.0) {
      EXPECT_LT(r, 2.0);
    } else {
      EXPECT_GT(r, 2.0);
    }
  }
}

TEST(Generators, XorBlobsNotLinearlySeparable) {
  const Dataset d = make_xor_blobs(400, 0.2, 1);
  // Quadrant parity defines the class: both features jointly matter.
  std::size_t agree_x = 0;
  for (std::size_t i = 0; i < d.size(); ++i)
    if ((d.x(i, 0) > 0.0) == (d.y[i] > 0.0)) ++agree_x;
  // A single-feature rule should hover near chance.
  EXPECT_NEAR(static_cast<double>(agree_x) / static_cast<double>(d.size()),
              0.5, 0.1);
}

TEST(Partition, HorizontalCoversAllRowsOnce) {
  const Dataset d = make_cancer_like(2);
  const HorizontalPartition partition = partition_horizontally(d, 4, 7);
  EXPECT_EQ(partition.learners(), 4u);
  EXPECT_EQ(partition.total_rows(), d.size());
  // Shard sizes balanced within 1.
  for (const Dataset& shard : partition.shards) {
    EXPECT_GE(shard.size(), d.size() / 4);
    EXPECT_LE(shard.size(), d.size() / 4 + 1);
    const auto [pos, neg] = shard.class_counts();
    EXPECT_GT(pos, 0u);
    EXPECT_GT(neg, 0u);
  }
}

TEST(Partition, HorizontalRejectsTooManyLearners) {
  const Dataset d = tiny_dataset();
  EXPECT_THROW(partition_horizontally(d, 5, 1), InvalidArgument);
}

TEST(Partition, VerticalCoversAllFeaturesOnce) {
  const Dataset d = make_ocr_like(1, 300);
  const VerticalPartition partition = partition_vertically(d, 4, 9);
  EXPECT_EQ(partition.total_features(), d.features());
  std::set<std::size_t> seen;
  for (const auto& idx : partition.feature_indices)
    for (std::size_t j : idx) EXPECT_TRUE(seen.insert(j).second);
  EXPECT_EQ(seen.size(), d.features());
  EXPECT_EQ(partition.rows(), d.size());
}

TEST(Partition, VerticalBlocksMatchOriginalColumns) {
  const Dataset d = tiny_dataset();
  const VerticalPartition partition = partition_vertically(d, 2, 5);
  for (std::size_t m = 0; m < 2; ++m) {
    for (std::size_t i = 0; i < d.size(); ++i)
      for (std::size_t j = 0; j < partition.feature_indices[m].size(); ++j)
        EXPECT_EQ(partition.blocks[m](i, j),
                  d.x(i, partition.feature_indices[m][j]));
  }
}

TEST(Partition, VerticalProjectExtractsTestColumns) {
  const Dataset d = tiny_dataset();
  const VerticalPartition partition = partition_vertically(d, 2, 5);
  const Matrix projected = partition.project(0, d.x);
  EXPECT_EQ(projected.cols(), partition.feature_indices[0].size());
  EXPECT_EQ(projected.rows(), d.size());
  EXPECT_THROW(partition.project(9, d.x), InvalidArgument);
}

TEST(Scaler, ZeroMeanUnitVarianceAfterFit) {
  Dataset d = make_higgs_like(4, 500);
  StandardScaler scaler;
  scaler.fit(d.x);
  scaler.transform(d.x);
  for (std::size_t j = 0; j < d.features(); ++j) {
    double mean = 0.0;
    for (std::size_t i = 0; i < d.size(); ++i) mean += d.x(i, j);
    mean /= static_cast<double>(d.size());
    EXPECT_NEAR(mean, 0.0, 1e-9);
    double var = 0.0;
    for (std::size_t i = 0; i < d.size(); ++i) var += d.x(i, j) * d.x(i, j);
    var /= static_cast<double>(d.size());
    EXPECT_NEAR(var, 1.0, 1e-9);
  }
}

TEST(Scaler, ConstantFeatureHandled) {
  Matrix x{{3.0, 1.0}, {3.0, 2.0}, {3.0, 3.0}};
  StandardScaler scaler;
  scaler.fit(x);
  scaler.transform(x);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(x(i, 0), 0.0);  // centered
}

TEST(Scaler, TransformBeforeFitThrows) {
  Matrix x(2, 2);
  StandardScaler scaler;
  EXPECT_THROW(scaler.transform(x), InvalidArgument);
}

TEST(Scaler, FitTransformUsesTrainStatisticsOnly) {
  SplitDataset split;
  split.train = tiny_dataset();
  split.test = tiny_dataset();
  StandardScaler scaler;
  scaler.fit_transform(split);
  // Test was transformed with train stats: identical data => identical out.
  EXPECT_EQ(split.train.x, split.test.x);
}

TEST(Io, CsvRoundTrip) {
  const Dataset d = tiny_dataset();
  std::stringstream buffer;
  save_csv(d, buffer);
  const Dataset loaded = load_csv(buffer, "roundtrip");
  EXPECT_EQ(loaded.size(), d.size());
  EXPECT_EQ(loaded.y, d.y);
  for (std::size_t i = 0; i < d.size(); ++i)
    for (std::size_t j = 0; j < d.features(); ++j)
      EXPECT_DOUBLE_EQ(loaded.x(i, j), d.x(i, j));
}

TEST(Io, CsvSkipsCommentsAndBlankLines) {
  std::stringstream in("# header\n\n1,2.0,3.0\n-1,4.0,5.0\n");
  const Dataset d = load_csv(in);
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.features(), 2u);
}

TEST(Io, CsvMapsZeroOneLabels) {
  std::stringstream in("0,1.0\n1,2.0\n");
  const Dataset d = load_csv(in);
  EXPECT_EQ(d.y[0], -1.0);
  EXPECT_EQ(d.y[1], 1.0);
}

TEST(Io, CsvRejectsRaggedRows) {
  std::stringstream in("1,2.0,3.0\n-1,4.0\n");
  EXPECT_THROW(load_csv(in), InvalidArgument);
}

TEST(Io, CsvRejectsGarbageValues) {
  std::stringstream in("1,abc\n");
  EXPECT_THROW(load_csv(in), Error);
}

TEST(Io, CsvRejectsEmpty) {
  std::stringstream in("# nothing\n");
  EXPECT_THROW(load_csv(in), InvalidArgument);
}

TEST(Io, LibsvmParsesSparseRows) {
  std::stringstream in("+1 1:0.5 3:1.5\n-1 2:2.0\n");
  const Dataset d = load_libsvm(in);
  EXPECT_EQ(d.features(), 3u);
  EXPECT_DOUBLE_EQ(d.x(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(d.x(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(d.x(0, 2), 1.5);
  EXPECT_DOUBLE_EQ(d.x(1, 1), 2.0);
  EXPECT_EQ(d.y[1], -1.0);
}

TEST(Io, LibsvmRespectsExplicitWidth) {
  std::stringstream in("+1 1:1.0\n");
  const Dataset d = load_libsvm(in, 5);
  EXPECT_EQ(d.features(), 5u);
}

TEST(Io, LibsvmRejectsZeroIndex) {
  std::stringstream in("+1 0:1.0\n");
  EXPECT_THROW(load_libsvm(in), InvalidArgument);
}

TEST(Io, LibsvmRejectsInferredWidthBomb) {
  // One stray index used to size a 1 x 4e9 dense row (std::bad_alloc).
  std::stringstream bomb("+1 1:0.5 4000000000:1\n");
  EXPECT_THROW(load_libsvm(bomb), Error);
  const std::string limit = std::to_string(kMaxInferredLibsvmFeatures);
  const std::string over = std::to_string(kMaxInferredLibsvmFeatures + 1);
  std::stringstream at_limit("+1 1:0.5 " + limit + ":1\n");
  EXPECT_EQ(load_libsvm(at_limit).features(), kMaxInferredLibsvmFeatures);
  std::stringstream past_limit("-1 " + over + ":1\n");
  EXPECT_THROW(load_libsvm(past_limit), Error);
  // An explicit width is the caller's decision and is honoured.
  std::stringstream explicit_width("-1 " + over + ":1\n");
  EXPECT_EQ(load_libsvm(explicit_width, kMaxInferredLibsvmFeatures + 1)
                .features(),
            kMaxInferredLibsvmFeatures + 1);
}

TEST(Io, LibsvmRejectsMissingColon) {
  std::stringstream in("+1 1-0.5\n");
  EXPECT_THROW(load_libsvm(in), InvalidArgument);
}

}  // namespace
}  // namespace ppml::data
