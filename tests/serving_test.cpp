// core::PredictionServer: micro-batched secure serving must be a pure
// re-batching of the per-query secure prediction path — bit-identical
// decision values — with deterministic admission and flush behavior on the
// virtual clock, and real partial-score reuse across batches.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "core/prediction_server.h"
#include "core/vertical.h"
#include "data/generators.h"
#include "data/standardize.h"

namespace ppml::core {
namespace {

data::SplitDataset cancer_split(unsigned seed) {
  auto split = data::train_test_split(data::make_cancer_like(seed), 0.5, 42);
  data::StandardScaler scaler;
  scaler.fit_transform(split);
  return split;
}

AdmmParams fast_params(std::size_t iterations = 20) {
  AdmmParams params;
  params.max_iterations = iterations;
  return params;
}

linalg::Matrix one_row(std::span<const double> x) {
  linalg::Matrix m(1, x.size());
  for (std::size_t j = 0; j < x.size(); ++j) m(0, j) = x[j];
  return m;
}

// Drive `queries` rows through the server on a fixed virtual arrival
// schedule and return the results ordered by query id.
std::vector<ServeResult> serve_all(PredictionServer& server,
                                   const linalg::Matrix& x,
                                   std::size_t queries, double dt) {
  std::vector<ServeResult> all;
  for (std::size_t i = 0; i < queries; ++i) {
    const double now = static_cast<double>(i) * dt;
    server.advance(now);
    const auto outcome =
        server.submit(/*client_id=*/i % 4, x.row(i % x.rows()), now);
    EXPECT_EQ(outcome, AdmissionOutcome::kQueued);
  }
  server.drain(static_cast<double>(queries) * dt);
  auto batch = server.take_results();
  all.insert(all.end(), batch.begin(), batch.end());
  std::sort(all.begin(), all.end(),
            [](const ServeResult& a, const ServeResult& b) {
              return a.query_id < b.query_id;
            });
  return all;
}

TEST(PredictionServing, LinearBatchedBitIdenticalToPerQuery) {
  for (unsigned seed : {1u, 2u, 3u}) {
    const auto split = cancer_split(seed);
    const auto partition = data::partition_vertically(split.train, 3, 7);
    const auto params = fast_params();
    const auto trained = train_linear_vertical(partition, params, nullptr);

    ServingConfig config;
    config.max_batch = 16;
    config.max_linger = 0.004;
    PredictionServer server(trained.model, params, config);

    const std::size_t queries = 50;
    const auto results = serve_all(server, split.test.x, queries, 0.001);
    ASSERT_EQ(results.size(), queries);
    EXPECT_GT(server.stats().batches, 1u);  // actually micro-batched

    for (std::size_t i = 0; i < queries; ++i) {
      // Per-query reference: fresh one-shot session, round 0. Masks cancel
      // exactly in the ring and the codec is per-element, so batching and
      // round number must not change a single bit.
      const Vector reference = secure_vertical_decision_values(
          trained.model, one_row(split.test.x.row(i % split.test.x.rows())),
          params);
      EXPECT_EQ(results[i].decision_value, reference[0])
          << "seed " << seed << " query " << i;
    }
  }
}

TEST(PredictionServing, KernelBatchedBitIdenticalToPerQuery) {
  for (unsigned seed : {1u, 5u}) {
    const auto split = cancer_split(seed);
    const auto partition = data::partition_vertically(split.train, 3, 7);
    const auto params = fast_params(15);
    const auto trained = train_kernel_vertical(partition, svm::Kernel::rbf(0.3),
                                               params, nullptr);

    ServingConfig config;
    config.max_batch = 8;
    config.max_linger = 0.004;
    config.cache_slots = 16;
    PredictionServer server(trained.model, params, config);

    const std::size_t queries = 40;
    const auto results = serve_all(server, split.test.x, queries, 0.001);
    ASSERT_EQ(results.size(), queries);

    for (std::size_t i = 0; i < queries; ++i) {
      const Vector reference = secure_vertical_decision_values(
          trained.model, one_row(split.test.x.row(i % split.test.x.rows())),
          params);
      EXPECT_EQ(results[i].decision_value, reference[0])
          << "seed " << seed << " query " << i;
    }
  }
}

TEST(PredictionServing, KernelScoreCacheReusedAcrossBatches) {
  const auto split = cancer_split(3);
  const auto partition = data::partition_vertically(split.train, 3, 7);
  const auto params = fast_params(10);
  const auto trained = train_kernel_vertical(partition, svm::Kernel::rbf(0.3),
                                             params, nullptr);

  ServingConfig config;
  config.max_batch = 8;  // 10 batches of 8: every slot spans many batches
  config.max_linger = 1.0;
  config.cache_slots = 16;
  PredictionServer server(trained.model, params, config);

  // 8 distinct query points, each submitted 10 times: per learner the
  // first touch of each point computes its score (a miss), the other 9 read
  // it back. Slots are never evicted: hit rate is exactly 72/80 per learner.
  const std::size_t distinct = 8, repeats = 10;
  for (std::size_t i = 0; i < distinct * repeats; ++i) {
    const double now = static_cast<double>(i) * 0.001;
    server.advance(now);
    ASSERT_EQ(server.submit(0, split.test.x.row(i % distinct), now),
              AdmissionOutcome::kQueued);
  }
  server.drain(1.0);

  EXPECT_EQ(server.stats().served, distinct * repeats);
  EXPECT_EQ(server.stats().cache_bypass, 0u);  // pool never overflowed
  EXPECT_EQ(server.cache_misses(),
            static_cast<std::int64_t>(distinct * server.num_learners()));
  EXPECT_DOUBLE_EQ(server.cache_hit_rate(), 0.9);
  EXPECT_GE(server.cache_hit_rate(), 0.85);  // the pinned floor
}

TEST(PredictionServing, CachedScoreIndependentOfBatchPositionAndSize) {
  const auto split = cancer_split(4);
  const auto partition = data::partition_vertically(split.train, 3, 7);
  const auto params = fast_params(10);
  const auto trained = train_kernel_vertical(partition, svm::Kernel::rbf(0.3),
                                             params, nullptr);

  ServingConfig config;
  config.max_batch = 16;
  config.max_linger = 1.0;
  config.cache_slots = 4;  // pool fills at the fourth distinct row
  PredictionServer server(trained.model, params, config);

  // Row 0 is the pooled query under test. It shows up at position 0 of a
  // batch of 1, at the last position of a batch of 5, twice in one batch
  // of 7 (positions 2 and 6, the second a same-batch hit) and in the
  // middle of a full batch of 16 next to bypass rows. Every flush is
  // forced by drain(), so the batch sizes are exactly these.
  const std::vector<std::vector<std::size_t>> batches = {
      {0},
      {1, 2, 3, 4, 0},
      {5, 6, 0, 1, 7, 8, 0},
      {9, 10, 11, 12, 13, 14, 15, 0, 16, 17, 18, 19, 20, 21, 22, 23},
  };
  double now = 0.0;
  std::vector<std::size_t> rows;
  for (const auto& batch : batches) {
    for (std::size_t row : batch) {
      ASSERT_EQ(server.submit(0, split.test.x.row(row), now),
                AdmissionOutcome::kQueued);
      rows.push_back(row);
    }
    server.drain(now);
    now += 0.001;
  }
  auto results = server.take_results();
  ASSERT_EQ(results.size(), rows.size());
  std::sort(results.begin(), results.end(),
            [](const ServeResult& a, const ServeResult& b) {
              return a.query_id < b.query_id;
            });

  std::size_t at = 0;
  for (std::size_t b = 0; b < batches.size(); ++b)
    for (std::size_t pos = 0; pos < batches[b].size(); ++pos, ++at) {
      EXPECT_EQ(results[at].batch_id, b);
      EXPECT_EQ(results[at].batch_occupancy, batches[b].size());
    }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Vector reference = secure_vertical_decision_values(
        trained.model, one_row(split.test.x.row(rows[i])), params);
    EXPECT_EQ(results[i].decision_value, reference[0])
        << "query " << i << " (test row " << rows[i] << ")";
  }

  // Pooled: rows 0..3 (slots in first-seen order). Row 0 comes 5 times,
  // row 1 twice, rows 2 and 3 once: 9 pooled queries, 4 first touches.
  const auto learners = static_cast<std::int64_t>(server.num_learners());
  EXPECT_EQ(server.cache_misses(), 4 * learners);
  EXPECT_EQ(server.cache_hits(), 5 * learners);
  EXPECT_EQ(server.stats().cache_bypass, rows.size() - 9);
}

TEST(PredictionServing, NonFiniteQueryRejectedAndOthersStillServed) {
  const auto split = cancer_split(2);
  const auto partition = data::partition_vertically(split.train, 3, 7);
  const auto params = fast_params(10);
  const auto trained_linear = train_linear_vertical(partition, params, nullptr);
  const auto trained_kernel = train_kernel_vertical(
      partition, svm::Kernel::rbf(0.3), params, nullptr);

  ServingConfig config;
  config.max_batch = 4;
  config.max_linger = 0.005;
  config.cache_slots = 8;  // ignored by the linear server
  PredictionServer linear(trained_linear.model, params, config);
  PredictionServer kernel(trained_kernel.model, params, config);

  for (PredictionServer* server : {&linear, &kernel}) {
    double now = 0.0;
    std::size_t row = 0;
    std::vector<std::size_t> served_rows;
    for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity()}) {
      // good, bad, good from three clients; the bad feature sits in the
      // middle of an otherwise valid query.
      ASSERT_EQ(server->submit(1, split.test.x.row(row), now),
                AdmissionOutcome::kQueued);
      served_rows.push_back(row);
      Vector x(split.test.x.row(row + 1).begin(),
               split.test.x.row(row + 1).end());
      x[x.size() / 2] = bad;
      EXPECT_THROW(server->submit(2, x, now), InvalidArgument);
      ASSERT_EQ(server->submit(3, split.test.x.row(row + 2), now),
                AdmissionOutcome::kQueued);
      served_rows.push_back(row + 2);
      row += 3;
      now += 0.001;
      server->advance(now);
    }
    EXPECT_EQ(server->stats().submitted, served_rows.size());
    server->drain(now + 0.01);
    EXPECT_EQ(server->pending(), 0u);

    auto results = server->take_results();
    ASSERT_EQ(results.size(), served_rows.size());
    std::sort(results.begin(), results.end(),
              [](const ServeResult& a, const ServeResult& b) {
                return a.query_id < b.query_id;
              });
    for (std::size_t i = 0; i < served_rows.size(); ++i) {
      const auto row = one_row(split.test.x.row(served_rows[i]));
      const Vector reference =
          server->is_kernel()
              ? secure_vertical_decision_values(trained_kernel.model, row,
                                                params)
              : secure_vertical_decision_values(trained_linear.model, row,
                                                params);
      EXPECT_EQ(results[i].decision_value, reference[0])
          << (server->is_kernel() ? "kernel" : "linear") << " query " << i;
    }
  }
}

TEST(PredictionServing, TokenBucketShedsUnderOverload) {
  const auto split = cancer_split(2);
  const auto partition = data::partition_vertically(split.train, 3, 7);
  const auto params = fast_params(10);
  const auto trained = train_linear_vertical(partition, params, nullptr);

  ServingConfig config;
  config.max_batch = 32;
  config.max_linger = 0.01;
  config.client_rate = 100.0;  // admitted capacity: 100 qps + burst 5
  config.client_burst = 5.0;
  PredictionServer server(trained.model, params, config);

  // One client offering 1000 qps of virtual time for 1 s: an order of
  // magnitude over capacity. The server must shed, not crash or queue
  // unboundedly — and the split is a pure function of the schedule.
  std::size_t queued = 0, shed = 0;
  for (std::size_t i = 0; i < 1000; ++i) {
    const double now = static_cast<double>(i) * 0.001;
    server.advance(now);
    const auto outcome = server.submit(7, split.test.x.row(i % 10), now);
    (outcome == AdmissionOutcome::kQueued ? queued : shed)++;
    if (i < 5) {
      EXPECT_EQ(outcome, AdmissionOutcome::kQueued);  // burst
    }
  }
  server.drain(1.0);

  EXPECT_EQ(queued + shed, 1000u);
  EXPECT_EQ(server.stats().shed_rate, shed);
  EXPECT_GE(queued, 100u);  // at least the sustained refill
  EXPECT_LE(queued, 110u);  // burst + refill + rounding, nothing more
  EXPECT_EQ(server.stats().served, queued);  // everything admitted is served
  EXPECT_EQ(server.take_results().size(), queued);
}

TEST(PredictionServing, QueueDepthBoundSheds) {
  const auto split = cancer_split(2);
  const auto partition = data::partition_vertically(split.train, 3, 7);
  const auto params = fast_params(10);
  const auto trained = train_linear_vertical(partition, params, nullptr);

  ServingConfig config;
  config.max_batch = 64;
  config.max_linger = 10.0;
  config.max_queue_depth = 10;
  PredictionServer server(trained.model, params, config);

  // No advance() between submits: the drive loop has stalled. The bound
  // caps the pending queue and the overflow is shed with kShedQueue.
  std::size_t shed_queue = 0;
  for (std::size_t i = 0; i < 25; ++i) {
    const auto outcome =
        server.submit(0, split.test.x.row(i % 10), 0.001 * double(i));
    if (outcome == AdmissionOutcome::kShedQueue) ++shed_queue;
  }
  EXPECT_EQ(server.pending(), 10u);
  EXPECT_EQ(shed_queue, 15u);
  EXPECT_EQ(server.stats().shed_queue, 15u);
  server.drain(1.0);
  EXPECT_EQ(server.stats().served, 10u);
}

TEST(PredictionServing, FullAndLingerFlushReasons) {
  const auto split = cancer_split(2);
  const auto partition = data::partition_vertically(split.train, 3, 7);
  const auto params = fast_params(10);
  const auto trained = train_linear_vertical(partition, params, nullptr);

  ServingConfig config;
  config.max_batch = 4;
  config.max_linger = 0.005;
  PredictionServer server(trained.model, params, config);

  for (std::size_t i = 0; i < 4; ++i)
    server.submit(0, split.test.x.row(i), 0.0001 * double(i));
  server.advance(0.001);  // 4 pending = max_batch: full flush
  EXPECT_EQ(server.stats().full_flushes, 1u);

  server.submit(0, split.test.x.row(4), 0.002);
  server.submit(0, split.test.x.row(5), 0.003);
  server.advance(0.004);  // oldest waited 2 ms < linger: no flush yet
  EXPECT_EQ(server.stats().batches, 1u);
  server.advance(0.008);  // oldest waited 6 ms >= 5 ms: linger flush
  EXPECT_EQ(server.stats().linger_flushes, 1u);

  const auto results = server.take_results();
  ASSERT_EQ(results.size(), 6u);
  EXPECT_EQ(results[0].batch_occupancy, 4u);
  EXPECT_EQ(results[4].batch_occupancy, 2u);
  EXPECT_EQ(results[0].batch_id, 0u);  // batch id == secure-sum round
  EXPECT_EQ(results[4].batch_id, 1u);
}

TEST(PredictionServing, VirtualClockMustBeMonotone) {
  const auto split = cancer_split(2);
  const auto partition = data::partition_vertically(split.train, 3, 7);
  const auto params = fast_params(10);
  const auto trained = train_linear_vertical(partition, params, nullptr);

  PredictionServer server(trained.model, params, ServingConfig{});
  server.submit(0, split.test.x.row(0), 1.0);
  EXPECT_THROW(server.submit(0, split.test.x.row(1), 0.5), InvalidArgument);
  EXPECT_THROW(server.advance(0.5), InvalidArgument);
  server.advance(1.0);  // equal time is fine
}


TEST(PredictionServing, NarrowFirstQueryRejectedWithoutLatchingDimension) {
  // The first query latches the server's query dimension. One narrower than
  // the model's feature indices is refused before it latches anything, and
  // correctly sized queries after it are served as if it never came.
  const auto split = cancer_split(2);
  const auto partition = data::partition_vertically(split.train, 3, 7);
  const auto params = fast_params(10);
  const auto linear = train_linear_vertical(partition, params, nullptr);
  const auto kernel = train_kernel_vertical(partition, svm::Kernel::rbf(0.3),
                                            params, nullptr);
  ServingConfig config;
  config.max_batch = 8;
  config.max_linger = 0.004;
  config.cache_slots = 16;
  const std::vector<double> narrow = {0.5, -0.5};
  for (const bool use_kernel : {false, true}) {
    PredictionServer server =
        use_kernel ? PredictionServer(kernel.model, params, config)
                   : PredictionServer(linear.model, params, config);
    EXPECT_THROW(server.submit(0, narrow, 0.0), InvalidArgument);
    EXPECT_EQ(server.stats().submitted, 0u);

    const std::size_t queries = 24;
    const auto results = serve_all(server, split.test.x, queries, 0.001);
    ASSERT_EQ(results.size(), queries);
    for (std::size_t i = 0; i < queries; ++i) {
      const auto row = one_row(split.test.x.row(i % split.test.x.rows()));
      const Vector reference =
          use_kernel
              ? secure_vertical_decision_values(kernel.model, row, params)
              : secure_vertical_decision_values(linear.model, row, params);
      EXPECT_EQ(results[i].decision_value, reference[0])
          << (use_kernel ? "kernel" : "linear") << " query " << i;
    }
  }
}

}  // namespace
}  // namespace ppml::core
