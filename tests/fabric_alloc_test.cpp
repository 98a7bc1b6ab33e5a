// Round-sized heap allocations of a linear-vertical fabric job, counted by a
// replaced global operator new. A steady round moves one N-wide masked
// vector per party and one broadcast; every buffer that carries them
// (decoded broadcast, contribution frame, wire frames, reducer decode,
// secure-sum accumulator, dual QP) is kept and refilled round after round.
// What is left per round is each learner's returned contribution and the
// coordinator's returned broadcast: at most M + 2 allocations of 64 KiB or
// more. The count over R rounds is subtracted from the count over 2R, so
// set-up (shards, block store, learner factors) cancels out.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/cluster_trainers.h"
#include "data/generators.h"
#include "data/partition.h"

namespace {

constexpr std::size_t kLargeAllocation = 64 * 1024;

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_large{0};

}  // namespace

// GCC pairs the replaced operator new with the free() below once it inlines
// both into one caller and warns; they are a matched malloc/free pair.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  if (size >= kLargeAllocation && g_counting.load(std::memory_order_relaxed))
    g_large.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace ppml::core {
namespace {

constexpr std::size_t kParties = 8;
constexpr std::size_t kRows = 20000;
constexpr std::size_t kRounds = 8;  ///< R; the second job runs 2R

/// Allocations of at least 64 KiB made by `fn`, on any thread.
template <typename Fn>
std::size_t large_allocations_by(Fn&& fn) {
  g_large = 0;
  g_counting = true;
  fn();
  g_counting = false;
  return g_large;
}

std::size_t lv_job_allocations(const data::VerticalPartition& partition,
                               std::size_t rounds) {
  AdmmParams params;
  params.max_iterations = rounds;
  mapreduce::ClusterConfig config;
  config.num_nodes = kParties + 1;
  return large_allocations_by([&] {
    mapreduce::Cluster cluster(config);
    const auto result =
        train_linear_vertical_on_cluster(cluster, partition, params);
    EXPECT_EQ(result.cluster.job.rounds, rounds);
  });
}

TEST(FabricAlloc, CounterSeesLargeAllocationsOnly) {
  const std::size_t count = large_allocations_by([] {
    std::vector<double> small(kLargeAllocation / sizeof(double) - 1);
    std::vector<double> large(kLargeAllocation / sizeof(double));
  });
  EXPECT_EQ(count, 1u);
}

TEST(FabricAlloc, LinearVerticalSteadyRoundAllocatesAtMostMPlusTwo) {
  const data::Dataset data = data::make_higgs_like(3, kRows);
  const data::VerticalPartition partition =
      data::partition_vertically(data, kParties, 7);
  ASSERT_EQ(partition.rows(), kRows);
  const std::size_t once = lv_job_allocations(partition, kRounds);
  const std::size_t twice = lv_job_allocations(partition, 2 * kRounds);
  ASSERT_GE(twice, once);
  const double per_round =
      static_cast<double>(twice - once) / static_cast<double>(kRounds);
  RecordProperty("large_allocations_per_round", std::to_string(per_round));
  EXPECT_LE(per_round, static_cast<double>(kParties + 2))
      << "R rounds: " << once << ", 2R rounds: " << twice;
}

}  // namespace
}  // namespace ppml::core
