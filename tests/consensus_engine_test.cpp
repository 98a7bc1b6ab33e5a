// Bit-identity suite for core::ConsensusEngine.
//
// The engine replaced three hand-rolled in-memory drivers (full, partial
// and dropout rounds) and the MapReduce adapter's loop. The contract is
// EXACT reproduction: for every policy, mask variant and seed, the engine
// must emit the same per-round consensus deltas and the same final model,
// bit for bit. Golden digests recorded from those drivers pin the in-memory
// runs; the fabric, asynchronous and grouped-ring runs are compared with
// EXPECT_EQ against the in-memory engine — no tolerance anywhere.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "core/consensus_engine.h"
#include "core/linear_horizontal.h"
#include "core/mapreduce_adapter.h"
#include "data/generators.h"
#include "data/standardize.h"
#include "obs/obs.h"

namespace ppml::core {

namespace {

data::HorizontalPartition make_partition(std::size_t m) {
  data::GaussianTaskConfig task;
  task.samples = 160;
  task.features = 6;
  task.separation = 1.6;
  task.seed = 11;
  task.name = "engine-bit-identity";
  data::Dataset train = data::make_gaussian_task(task);
  data::StandardScaler scaler;
  scaler.fit(train.x);
  scaler.transform(train.x);
  return data::partition_horizontally(train, m, 5);
}

std::vector<std::shared_ptr<ConsensusLearner>> make_learners(
    const data::HorizontalPartition& partition, const AdmmParams& params) {
  std::vector<std::shared_ptr<ConsensusLearner>> learners;
  for (const data::Dataset& shard : partition.shards)
    learners.push_back(std::make_shared<LinearHorizontalLearner>(
        shard, partition.learners(), params));
  return learners;
}

/// Everything one run produces that must match bit for bit.
struct RunRecord {
  ConsensusRunResult run;
  std::vector<double> deltas;  ///< per-round ||dz||^2 from the observer
  Vector z;
  double s = 0.0;
};

using Driver = std::function<ConsensusRunResult(
    std::vector<std::shared_ptr<ConsensusLearner>>&, ConsensusCoordinator&,
    const RoundObserver&)>;

RunRecord run_driver(const data::HorizontalPartition& partition,
                     const AdmmParams& params, const Driver& driver) {
  auto learners = make_learners(partition, params);
  AveragingCoordinator coordinator(partition.shards.front().features() + 1);
  RunRecord record;
  const RoundObserver observer = [&](std::size_t) {
    record.deltas.push_back(coordinator.last_delta_sq());
  };
  record.run = driver(learners, coordinator, observer);
  record.z = coordinator.z();
  record.s = coordinator.s();
  return record;
}

void expect_identical(const RunRecord& a, const RunRecord& b) {
  EXPECT_EQ(a.run.iterations, b.run.iterations);
  EXPECT_EQ(a.run.converged, b.run.converged);
  EXPECT_EQ(a.deltas, b.deltas);  // exact double equality, element-wise
  EXPECT_EQ(a.z, b.z);
  EXPECT_EQ(a.s, b.s);
}

/// FNV-1a over a run's bits, each word little-endian: iterations,
/// converged, every per-round delta, z, then s.
std::uint64_t run_digest(const RunRecord& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t w) {
    for (int b = 0; b < 8; ++b) {
      h ^= (w >> (8 * b)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  mix(r.run.iterations);
  mix(r.run.converged ? 1 : 0);
  for (double d : r.deltas) mix(std::bit_cast<std::uint64_t>(d));
  for (double v : r.z) mix(std::bit_cast<std::uint64_t>(v));
  mix(std::bit_cast<std::uint64_t>(r.s));
  return h;
}

AdmmParams base_params(std::uint64_t protocol_seed) {
  AdmmParams params;
  params.max_iterations = 8;
  params.convergence_tolerance = 0.0;  // fixed-length runs compare all rounds
  params.protocol_seed = protocol_seed;
  return params;
}

constexpr std::uint64_t kProtocolSeeds[] = {1, 0x5eedULL, 0xDEADBEEFULL};

// ---------------------------------------------------------------------------
// Engine + InMemoryTransport against golden digests. Each digest was
// recorded from the pre-engine drivers (the hand-rolled in-memory, partial
// and dropout loops the engine replaced) and hashes every bit those drivers
// produced: iterations, the convergence flag, every per-round delta, z and
// s. Decoded sums do not depend on mask seeds, so every protocol seed of
// one configuration shares its digest.
// ---------------------------------------------------------------------------

/// One run of the engine under `policy` on the in-memory transport.
RunRecord run_policy(const data::HorizontalPartition& partition,
                     const AdmmParams& params, RoundPolicy& policy) {
  return run_driver(
      partition, params,
      [&](auto& learners, auto& coordinator, const RoundObserver& observer) {
        ConsensusEngine engine(learners, coordinator, params, policy);
        InMemoryTransport transport;
        return engine.run(transport, observer);
      });
}

constexpr std::uint64_t kFullDigest = 0x9DDE7585844820D3ULL;

TEST(ConsensusEngineBitIdentity, FullParticipationSeededMasksMultiSeed) {
  const auto partition = make_partition(4);
  for (const std::uint64_t seed : kProtocolSeeds) {
    FullParticipation policy;
    EXPECT_EQ(run_digest(run_policy(partition, base_params(seed), policy)),
              kFullDigest)
        << "seed=" << seed;
  }
}

TEST(ConsensusEngineBitIdentity, FullParticipationExchangedMasksMultiSeed) {
  const auto partition = make_partition(4);
  for (const std::uint64_t seed : kProtocolSeeds) {
    AdmmParams params = base_params(seed);
    params.mask_variant = crypto::MaskVariant::kExchangedMasks;
    FullParticipation policy;
    EXPECT_EQ(run_digest(run_policy(partition, params, policy)), kFullDigest)
        << "seed=" << seed;
  }
}

TEST(ConsensusEngineBitIdentity, PartialParticipationMultiSeed) {
  const auto partition = make_partition(5);
  struct Case {
    std::size_t per_round;
    std::uint64_t sampling_seed;
    std::uint64_t digest;
  };
  const Case cases[] = {{2, 9, 0xAC837BFFDA646DC7ULL},
                        {2, 77, 0x5A258231D0ABC807ULL},
                        {3, 9, 0xB83887084F7201E3ULL},
                        {3, 77, 0x67DAECBC08F64BF2ULL}};
  for (const std::uint64_t seed : kProtocolSeeds) {
    for (const Case& c : cases) {
      PartialParticipation policy(c.per_round, c.sampling_seed);
      EXPECT_EQ(run_digest(run_policy(partition, base_params(seed), policy)),
                c.digest)
          << "seed=" << seed << " per_round=" << c.per_round
          << " sampling_seed=" << c.sampling_seed;
    }
  }
}

TEST(ConsensusEngineBitIdentity, ScheduledDropoutMultiSeed) {
  const auto partition = make_partition(5);
  DropoutSchedule schedule;
  schedule.drops[2] = {1};
  schedule.drops[5] = {3};
  for (const std::uint64_t seed : kProtocolSeeds) {
    ScheduledDropout policy(schedule);
    EXPECT_EQ(run_digest(run_policy(partition, base_params(seed), policy)),
              0x2F2B08FC0EBBB427ULL)
        << "seed=" << seed;
  }
}

TEST(ConsensusEngineBitIdentity, DropoutWithExplicitThresholdAndSharingSeed) {
  const auto partition = make_partition(5);
  DropoutSchedule schedule;
  schedule.drops[1] = {0, 4};
  schedule.threshold = 2;
  schedule.sharing_seed = 0xFEEDULL;
  ScheduledDropout policy(schedule);
  EXPECT_EQ(run_digest(run_policy(partition, base_params(0x5eedULL), policy)),
            0x5242AF178EB66A4DULL);
}

// Early convergence must trip on exactly the same round.
TEST(ConsensusEngineBitIdentity, ConvergenceStopsOnTheSameRound) {
  const auto partition = make_partition(4);
  AdmmParams params = base_params(7);
  params.max_iterations = 200;
  params.convergence_tolerance = 1e-3;
  FullParticipation policy;
  const RunRecord run = run_policy(partition, params, policy);
  EXPECT_TRUE(run.run.converged);
  EXPECT_LT(run.run.iterations, params.max_iterations);
  EXPECT_EQ(run_digest(run), 0x8C5160AA56D7A982ULL);
}

// ---------------------------------------------------------------------------
// FabricTransport vs InMemoryTransport under a zero-fault plan.
// ---------------------------------------------------------------------------

RunRecord run_on_cluster(const data::HorizontalPartition& partition,
                         const AdmmParams& params) {
  const std::size_t m = partition.learners();
  mapreduce::ClusterConfig config;
  config.num_nodes = m + 1;
  config.fault_plan = mapreduce::FaultPlan{};  // explicitly fault-free
  mapreduce::Cluster cluster(config);

  std::vector<mapreduce::Bytes> shards;
  shards.reserve(m);
  for (const data::Dataset& shard : partition.shards)
    shards.push_back(serialize_horizontal_shard(shard));
  const LearnerFactory factory = [&](mapreduce::BytesView payload,
                                     std::size_t) {
    return std::make_shared<LinearHorizontalLearner>(
        deserialize_horizontal_shard(payload), m, params);
  };

  AveragingCoordinator coordinator(partition.shards.front().features() + 1);
  ConsensusEngine engine(m, coordinator, params);
  FabricTransport transport(cluster, std::move(shards), factory,
                            /*reducer_node=*/m);

  RunRecord record;
  record.run = engine.run(transport);
  record.deltas = transport.delta_trace();
  record.z = coordinator.z();
  record.s = coordinator.s();
  return record;
}

TEST(ConsensusEngineBitIdentity, FabricMatchesInMemoryZeroFaultSeeded) {
  const auto partition = make_partition(4);
  for (const std::uint64_t seed : kProtocolSeeds) {
    const AdmmParams params = base_params(seed);
    const RunRecord in_memory = run_driver(
        partition, params,
        [&](auto& learners, auto& coordinator, const RoundObserver& observer) {
          FullParticipation policy;
          ConsensusEngine engine(learners, coordinator, params, policy);
          InMemoryTransport transport;
          return engine.run(transport, observer);
        });
    const RunRecord fabric = run_on_cluster(partition, params);
    expect_identical(in_memory, fabric);
  }
}

TEST(ConsensusEngineBitIdentity, FabricMatchesInMemoryZeroFaultExchanged) {
  const auto partition = make_partition(4);
  AdmmParams params = base_params(0x5eedULL);
  params.mask_variant = crypto::MaskVariant::kExchangedMasks;
  const RunRecord in_memory = run_driver(
      partition, params,
      [&](auto& learners, auto& coordinator, const RoundObserver& observer) {
        FullParticipation policy;
        ConsensusEngine engine(learners, coordinator, params, policy);
        InMemoryTransport transport;
        return engine.run(transport, observer);
      });
  const RunRecord fabric = run_on_cluster(partition, params);
  expect_identical(in_memory, fabric);
}

// ---------------------------------------------------------------------------
// Async bounded staleness: Q = M with no deadline degenerates to sync.
// ---------------------------------------------------------------------------

AdmmParams async_degenerate_params(std::uint64_t seed) {
  AdmmParams params = base_params(seed);
  params.async_quorum_fraction = 1.0;  // quorum = M: every round closes full
  params.async_round_deadline = 0.0;   // and no deadline ever fires
  return params;
}

TEST(AsyncConsensusBitIdentity, QuorumMNoDeadlineEqualsSyncInMemory) {
  const auto partition = make_partition(4);
  for (const std::uint64_t seed : kProtocolSeeds) {
    const AdmmParams sync_params = base_params(seed);
    const AdmmParams async_params = async_degenerate_params(seed);
    const RunRecord sync_run = run_driver(
        partition, sync_params,
        [&](auto& learners, auto& coordinator, const RoundObserver& observer) {
          FullParticipation policy;
          ConsensusEngine engine(learners, coordinator, sync_params, policy);
          InMemoryTransport transport;
          return engine.run(transport, observer);
        });
    const RunRecord async_run = run_driver(
        partition, async_params,
        [&](auto& learners, auto& coordinator, const RoundObserver& observer) {
          BoundedStalenessPolicy policy;
          ConsensusEngine engine(learners, coordinator, async_params, policy);
          InMemoryTransport transport;
          return engine.run(transport, observer);
        });
    expect_identical(sync_run, async_run);
    // Delay-free async ticks exactly one nominal second per round and never
    // expires a deadline or drops a party.
    EXPECT_EQ(async_run.run.async_seconds,
              static_cast<double>(async_run.run.iterations));
    EXPECT_EQ(async_run.run.deadline_expirations, 0u);
    EXPECT_EQ(async_run.run.staleness_drops, 0u);
  }
}

TEST(AsyncConsensusBitIdentity, QuorumMNoDeadlineEqualsSyncOnFabric) {
  const auto partition = make_partition(4);
  for (const std::uint64_t seed : kProtocolSeeds) {
    const RunRecord sync_run = run_on_cluster(partition, base_params(seed));
    const RunRecord async_run =
        run_on_cluster(partition, async_degenerate_params(seed));
    expect_identical(sync_run, async_run);
  }
}

// ---------------------------------------------------------------------------
// Wire bytes of an exchanged-variant engine run.
// ---------------------------------------------------------------------------

/// In-process transport that masks through the engine's session, hashes
/// every party's wire vector, and reduces through the engine.
class WireDigestTransport final : public Transport {
 public:
  explicit WireDigestTransport(
      std::vector<std::shared_ptr<ConsensusLearner>>& learners)
      : learners_(learners) {}

  ConsensusRunResult run(ConsensusEngine& engine,
                         const RoundObserver& observer) override {
    const std::size_t m = learners_.size();
    std::vector<std::size_t> all(m);
    for (std::size_t i = 0; i < m; ++i) all[i] = i;
    ConsensusRunResult result;
    Vector broadcast;
    for (std::size_t round = 0; round < engine.params().max_iterations;
         ++round) {
      std::vector<Vector> values(m);
      for (std::size_t i = 0; i < m; ++i)
        values[i] = learners_[i]->local_step(broadcast);
      std::vector<std::vector<std::uint64_t>> wire(m);
      for (std::size_t i = 0; i < m; ++i) {
        const crypto::SecureSumSession::Tensor tensor = values[i];
        wire[i] = engine.session().contribute(i, {&tensor, 1}, round, all);
        for (std::uint64_t w : wire[i])
          for (int b = 0; b < 8; ++b) {
            digest_ ^= (w >> (8 * b)) & 0xFF;
            digest_ *= 0x100000001b3ULL;
          }
      }
      broadcast = engine.reduce_round(round, all, all, wire).broadcast;
      ++result.iterations;
      if (observer) observer(round);
    }
    engine.finalize_result(result);
    return result;
  }

  std::uint64_t digest() const noexcept { return digest_; }

 private:
  std::vector<std::shared_ptr<ConsensusLearner>>& learners_;
  std::uint64_t digest_ = 0xcbf29ce484222325ULL;
};

TEST(ConsensusEngineWire, ExchangedVariantWireDigestPinned) {
  const auto partition = make_partition(4);
  AdmmParams params = base_params(0x5eedULL);
  params.mask_variant = crypto::MaskVariant::kExchangedMasks;
  std::uint64_t digest = 0;
  const RunRecord tapped = run_driver(
      partition, params,
      [&](auto& learners, auto& coordinator, const RoundObserver& observer) {
        FullParticipation policy;
        ConsensusEngine engine(learners, coordinator, params, policy);
        WireDigestTransport transport(learners);
        const ConsensusRunResult result = engine.run(transport, observer);
        digest = transport.digest();
        return result;
      });
  EXPECT_EQ(digest, 0x017C8A68234255D2ULL);
  EXPECT_EQ(tapped.run.iterations, params.max_iterations);
}

// ---------------------------------------------------------------------------
// Batched-session counters: the refactor's measurable win.
// ---------------------------------------------------------------------------

TEST(ConsensusEngineCounters, ExchangedVariantDerivesEachMaskStreamOnce) {
  const auto partition = make_partition(4);
  AdmmParams params = base_params(3);
  params.mask_variant = crypto::MaskVariant::kExchangedMasks;
  const std::size_t m = partition.learners();
  const std::size_t rounds = params.max_iterations;

  obs::MetricsRegistry metrics;
  {
    obs::Session session(nullptr, &metrics);
    (void)run_driver(
        partition, params,
        [&](auto& learners, auto& coordinator, const RoundObserver& observer) {
          FullParticipation policy;
          ConsensusEngine engine(learners, coordinator, params, policy);
          InMemoryTransport transport;
          return engine.run(transport, observer);
        });
  }
  // One ChaCha stream per ordered pair per round — the legacy driver
  // derived each twice (once for the exchange, once inside the masking
  // call), i.e. 2 * rounds * m * (m-1).
  EXPECT_EQ(metrics.counter("crypto.masks_generated"),
            static_cast<std::int64_t>(rounds * m * (m - 1)));
  EXPECT_EQ(metrics.counter("crypto.sum.contributions"),
            static_cast<std::int64_t>(rounds * m));
  EXPECT_EQ(metrics.counter("crypto.masked_contributions"),
            static_cast<std::int64_t>(rounds * m));
}

TEST(ConsensusEngineCounters, BatchedElemsCountWireVolume) {
  const auto partition = make_partition(4);
  const AdmmParams params = base_params(3);
  const std::size_t m = partition.learners();
  const std::size_t rounds = params.max_iterations;
  const std::size_t dim = partition.shards.front().features() + 1;

  obs::MetricsRegistry metrics;
  {
    obs::Session session(nullptr, &metrics);
    (void)run_driver(
        partition, params,
        [&](auto& learners, auto& coordinator, const RoundObserver& observer) {
          FullParticipation policy;
          ConsensusEngine engine(learners, coordinator, params, policy);
          InMemoryTransport transport;
          return engine.run(transport, observer);
        });
  }
  EXPECT_EQ(metrics.counter("crypto.sum.batched_elems"),
            static_cast<std::int64_t>(rounds * m * dim));
  EXPECT_EQ(metrics.counter("crypto.sum.batched_tensors"),
            static_cast<std::int64_t>(rounds * m));
  // One codec pass per contribution: dim encodes per learner per round.
  EXPECT_EQ(metrics.counter("crypto.fp_encode"),
            static_cast<std::int64_t>(rounds * m * dim));
}

// Instrumented runs must still be bit-identical to bare runs.
TEST(ConsensusEngineCounters, MetricsDoNotPerturbTraining) {
  const auto partition = make_partition(4);
  const AdmmParams params = base_params(17);
  const auto engine_driver = [&](auto& learners, auto& coordinator,
                                 const RoundObserver& observer) {
    FullParticipation policy;
    ConsensusEngine engine(learners, coordinator, params, policy);
    InMemoryTransport transport;
    return engine.run(transport, observer);
  };
  const RunRecord bare = run_driver(partition, params, engine_driver);
  obs::MetricsRegistry metrics;
  RunRecord instrumented;
  {
    obs::Session session(nullptr, &metrics);
    instrumented = run_driver(partition, params, engine_driver);
  }
  expect_identical(bare, instrumented);
  EXPECT_FALSE(metrics.series("admm.z_delta_sq").empty());
}

// ---------------------------------------------------------------------------
// Divergence watchdog.
// ---------------------------------------------------------------------------

TEST(DivergenceWatchdog, TripsOnMonotonePrimalGrowth) {
  DivergenceWatchdog dog(DivergenceWatchdog::Config{4, 1e-3, 1e-8});
  EXPECT_FALSE(dog.feed(1.0, 1.0));
  EXPECT_FALSE(dog.feed(2.0, 0.5));
  EXPECT_FALSE(dog.feed(3.0, 1.5));  // window not yet full
  EXPECT_TRUE(dog.feed(4.0, 0.7));   // 4 strictly growing primals
  EXPECT_TRUE(dog.tripped());
  EXPECT_EQ(dog.reason(), "divergence:primal");
  EXPECT_FALSE(dog.feed(5.0, 0.8));  // latched: reports once
}

TEST(DivergenceWatchdog, TripsOnMonotoneDualGrowth) {
  DivergenceWatchdog dog(DivergenceWatchdog::Config{3, 1e-3, 1e-8});
  EXPECT_FALSE(dog.feed(5.0, 1.0));
  EXPECT_FALSE(dog.feed(1.0, 2.0));  // primal non-monotone
  EXPECT_TRUE(dog.feed(6.0, 3.0));
  EXPECT_EQ(dog.reason(), "divergence:dual");
}

TEST(DivergenceWatchdog, TripsOnStallAboveFloor) {
  DivergenceWatchdog dog(DivergenceWatchdog::Config{4, 1e-3, 1e-8});
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(dog.feed(5.0, 1.0));
  EXPECT_TRUE(dog.feed(5.0, 1.0));  // flat for a full window, above floor
  EXPECT_EQ(dog.reason(), "stall");
}

TEST(DivergenceWatchdog, SilentOnConvergenceAndBelowTheFloor) {
  // A geometrically decaying residual series — the healthy Fig. 4 shape —
  // must never trip, including its flat tail once it sinks under the floor.
  DivergenceWatchdog dog(DivergenceWatchdog::Config{4, 1e-3, 1e-8});
  double primal = 1.0;
  for (int i = 0; i < 40; ++i) {
    EXPECT_FALSE(dog.feed(primal, primal * 0.5)) << "round " << i;
    primal = std::max(primal * 0.5, 1e-12);  // plateaus below stall_floor
  }
  EXPECT_FALSE(dog.tripped());
}

TEST(DivergenceWatchdog, TripsOnSustainedStaleness) {
  DivergenceWatchdog::Config config{3, 1e-3, 1e-8};
  config.staleness_limit = 2.0;
  DivergenceWatchdog dog(config);
  // Healthy residual decay — only the staleness channel is unhealthy.
  EXPECT_FALSE(dog.feed(1.0, 0.9, 5.0));
  EXPECT_FALSE(dog.feed(0.5, 0.4, 5.0));  // window not yet full
  EXPECT_TRUE(dog.feed(0.25, 0.2, 5.0));  // window mean 5 > limit 2
  EXPECT_EQ(dog.reason(), "staleness");
}

TEST(DivergenceWatchdog, StalenessDisabledByDefault) {
  DivergenceWatchdog dog(DivergenceWatchdog::Config{3, 1e-3, 1e-8});
  EXPECT_FALSE(dog.feed(1.0, 0.9, 100.0));
  EXPECT_FALSE(dog.feed(0.5, 0.4, 100.0));
  EXPECT_FALSE(dog.feed(0.25, 0.2, 100.0));
  EXPECT_FALSE(dog.tripped());
}

// Satellite bugfix: a tripped watchdog's reason must surface in the
// ConsensusRunResult, not only on the engine accessor.
TEST(DivergenceWatchdog, TripReasonSurfacesInRunResult) {
  const auto partition = make_partition(4);
  AdmmParams params = base_params(17);
  params.max_iterations = 8;
  params.watchdog_window = 3;
  params.watchdog_stall_epsilon = 1e9;  // accept-anything: trip on window 1
  params.watchdog_stall_floor = 0.0;
  auto learners = make_learners(partition, params);
  AveragingCoordinator coordinator(partition.shards.front().features() + 1);
  FullParticipation policy;
  ConsensusEngine engine(learners, coordinator, params, policy);
  obs::MetricsRegistry metrics;
  ConsensusRunResult result;
  {
    obs::Session session(nullptr, &metrics);  // watchdog is observational
    InMemoryTransport transport;
    result = engine.run(transport);
  }
  EXPECT_TRUE(result.watchdog_tripped);
  EXPECT_EQ(result.watchdog_reason, "stall");
}

TEST(DivergenceWatchdog, RejectsDegenerateConfig) {
  EXPECT_THROW(DivergenceWatchdog(DivergenceWatchdog::Config{2, 1e-3, 0.0}),
               Error);
  EXPECT_THROW(DivergenceWatchdog(DivergenceWatchdog::Config{4, 0.0, 0.0}),
               Error);
}

TEST(DivergenceWatchdog, EngineStaysSilentOnAConvergentRun) {
  const auto partition = make_partition(4);
  AdmmParams params = base_params(17);
  params.max_iterations = 12;
  params.watchdog_window = 5;
  auto learners = make_learners(partition, params);
  AveragingCoordinator coordinator(partition.shards.front().features() + 1);
  FullParticipation policy;
  ConsensusEngine engine(learners, coordinator, params, policy);
  obs::MetricsRegistry metrics;
  {
    obs::Session session(nullptr, &metrics);
    InMemoryTransport transport;
    engine.run(transport);
  }
  ASSERT_NE(engine.watchdog(), nullptr);
  EXPECT_FALSE(engine.watchdog()->tripped());
  EXPECT_EQ(metrics.counter("admm.watchdog.trips"), 0);
}

TEST(DivergenceWatchdog, EngineTripReportsOnceAndDumpsTheRing) {
  const auto partition = make_partition(4);
  AdmmParams params = base_params(17);
  params.max_iterations = 8;
  params.watchdog_window = 3;
  // Accept-anything stall threshold: the watchdog must trip on the first
  // full window, deterministically — this pins the engine-side reporting
  // (counter, flight event, automatic dump), not the detector thresholds.
  params.watchdog_stall_epsilon = 1e9;
  params.watchdog_stall_floor = 0.0;
  auto learners = make_learners(partition, params);
  AveragingCoordinator coordinator(partition.shards.front().features() + 1);
  FullParticipation policy;
  ConsensusEngine engine(learners, coordinator, params, policy);
  obs::MetricsRegistry metrics;
  obs::FlightRecorder recorder(256);
  const std::string dump_path = "engine_watchdog_dump.json";
  std::remove(dump_path.c_str());
  recorder.arm_auto_dump(dump_path);
  {
    obs::Session session(nullptr, &metrics, &recorder);
    InMemoryTransport transport;
    engine.run(transport);
  }
  ASSERT_NE(engine.watchdog(), nullptr);
  EXPECT_TRUE(engine.watchdog()->tripped());
  EXPECT_EQ(metrics.counter("admm.watchdog.trips"), 1);  // latched
  bool saw_watchdog_event = false;
  for (const auto& event : recorder.snapshot())
    saw_watchdog_event |= event.kind == obs::FlightEventKind::kWatchdog;
  EXPECT_TRUE(saw_watchdog_event);
  std::ifstream dump(dump_path);
  ASSERT_TRUE(dump.good()) << "watchdog trip did not dump the ring";
  std::stringstream buffer;
  buffer << dump.rdbuf();
  EXPECT_NE(buffer.str().find("\"reason\": \"watchdog:stall\""),
            std::string::npos);
  std::remove(dump_path.c_str());
}

TEST(DivergenceWatchdog, DisabledByDefault) {
  const auto partition = make_partition(4);
  const AdmmParams params = base_params(17);
  auto learners = make_learners(partition, params);
  AveragingCoordinator coordinator(partition.shards.front().features() + 1);
  FullParticipation policy;
  ConsensusEngine engine(learners, coordinator, params, policy);
  EXPECT_EQ(engine.watchdog(), nullptr);
}

// ---------------------------------------------------------------------------
// Grouped-ring aggregation topology vs pairwise: every mask edge cancels in
// the reducer's ring sum either way, so full training runs must be
// bit-identical — per-round deltas, final z, final s, all EXPECT_EQ.
// ---------------------------------------------------------------------------

RunRecord run_full_participation(const data::HorizontalPartition& partition,
                                 const AdmmParams& params) {
  return run_driver(
      partition, params,
      [&](auto& learners, auto& coordinator, const RoundObserver& observer) {
        FullParticipation policy;
        ConsensusEngine engine(learners, coordinator, params, policy);
        InMemoryTransport transport;
        return engine.run(transport, observer);
      });
}

TEST(GroupedRingTopology, MatchesPairwiseM4MultiSeed) {
  const auto partition = make_partition(4);
  for (const std::uint64_t seed : kProtocolSeeds) {
    const AdmmParams pairwise = base_params(seed);
    AdmmParams grouped = pairwise;
    grouped.agg_topology = crypto::AggregationTopology::kGroupedRing;
    expect_identical(run_full_participation(partition, pairwise),
                     run_full_participation(partition, grouped));
  }
}

TEST(GroupedRingTopology, MatchesPairwiseM8MultiSeedAndGroupSizes) {
  const auto partition = make_partition(8);
  for (const std::uint64_t seed : kProtocolSeeds) {
    const AdmmParams pairwise = base_params(seed);
    const RunRecord reference = run_full_participation(partition, pairwise);
    // 0 = auto ceil(sqrt(8)) = 3 (ragged groups 3/3/2); 2 and 5 exercise
    // the even cut and an oversized last group.
    for (const std::size_t group_size : {0u, 2u, 5u}) {
      AdmmParams grouped = pairwise;
      grouped.agg_topology = crypto::AggregationTopology::kGroupedRing;
      grouped.agg_group_size = group_size;
      expect_identical(reference, run_full_participation(partition, grouped));
    }
  }
}

TEST(GroupedRingTopology, PartialParticipationMatchesPairwise) {
  // Per-round participant subsets re-derive the group layout every round;
  // the sampler sequence is topology-independent, so the runs must agree.
  const auto partition = make_partition(6);
  for (const std::uint64_t seed : kProtocolSeeds) {
    const AdmmParams pairwise = base_params(seed);
    AdmmParams grouped = pairwise;
    grouped.agg_topology = crypto::AggregationTopology::kGroupedRing;
    grouped.agg_group_size = 2;
    const auto partial_driver = [&](const AdmmParams& params) {
      return run_driver(
          partition, params,
          [&](auto& learners, auto& coordinator,
              const RoundObserver& observer) {
            PartialParticipation policy(/*participants_per_round=*/4,
                                        /*sampling_seed=*/99);
            ConsensusEngine engine(learners, coordinator, params, policy);
            InMemoryTransport transport;
            return engine.run(transport, observer);
          });
    };
    expect_identical(partial_driver(pairwise), partial_driver(grouped));
  }
}

TEST(GroupedRingTopology, ScheduledDropoutMatchesPairwise) {
  // A post-mask drop under the grouped topology takes the sparse recovery
  // path (only the victim's edge neighbors' seeds are reconstructed); the
  // corrected rounds must still match pairwise recovery bit for bit.
  const auto partition = make_partition(6);
  DropoutSchedule schedule;
  schedule.drops[2] = {1};
  schedule.drops[4] = {5};
  for (const std::uint64_t seed : kProtocolSeeds) {
    const AdmmParams pairwise = base_params(seed);
    AdmmParams grouped = pairwise;
    grouped.agg_topology = crypto::AggregationTopology::kGroupedRing;
    grouped.agg_group_size = 3;
    const auto dropout_driver = [&](const AdmmParams& params) {
      return run_driver(
          partition, params,
          [&](auto& learners, auto& coordinator,
              const RoundObserver& observer) {
            ScheduledDropout policy(schedule);
            ConsensusEngine engine(learners, coordinator, params, policy);
            InMemoryTransport transport;
            return engine.run(transport, observer);
          });
    };
    expect_identical(dropout_driver(pairwise), dropout_driver(grouped));
  }
}

TEST(GroupedRingTopology, FabricMatchesInMemoryZeroFault) {
  // Zero call-site changes: the fabric mappers derive the grouped edge set
  // from the engine's session config and must reproduce the in-memory
  // grouped run exactly.
  const auto partition = make_partition(8);
  for (const std::uint64_t seed : kProtocolSeeds) {
    AdmmParams params = base_params(seed);
    params.agg_topology = crypto::AggregationTopology::kGroupedRing;
    const RunRecord in_memory = run_full_participation(partition, params);
    const RunRecord fabric = run_on_cluster(partition, params);
    expect_identical(in_memory, fabric);
  }
}

TEST(GroupedRingTopology, EngineRekeyPreservesTopology) {
  // The rekey path rebuilds the session from its own config: the topology
  // (and group size) must survive the epoch change, and the fresh epoch is
  // unpinned again.
  AveragingCoordinator coordinator(3);
  AdmmParams params = base_params(0x5eed);
  params.agg_topology = crypto::AggregationTopology::kGroupedRing;
  params.agg_group_size = 3;
  FullParticipation policy;
  ConsensusEngine engine(/*num_learners=*/9, coordinator, params, policy);
  engine.rekey(/*epoch=*/1);
  EXPECT_EQ(engine.session().topology(),
            crypto::AggregationTopology::kGroupedRing);
  EXPECT_EQ(engine.session().config().group_size, 3u);
  EXPECT_EQ(engine.session().epoch(), 1u);
  EXPECT_FALSE(engine.session().epoch_active());
}

// ---------------------------------------------------------------------------
// Local steps run on one bounded pool: no more steps are in flight at once
// than the host has hardware threads, every learner steps once per round,
// and a throwing step reaches the caller without wedging the pool.
// ---------------------------------------------------------------------------

/// Counts the local steps in flight across every probe sharing `gauge`.
/// Each step sleeps briefly so that steps able to overlap do overlap.
class OverlapProbeLearner final : public ConsensusLearner {
 public:
  struct Gauge {
    std::atomic<std::size_t> in_flight{0};
    std::atomic<std::size_t> peak{0};
  };

  /// Throws ppml::Error from step number `throw_on_step` (1-based; 0 never).
  explicit OverlapProbeLearner(Gauge& gauge, std::size_t throw_on_step = 0)
      : gauge_(gauge), throw_on_step_(throw_on_step) {}

  std::size_t contribution_dim() const override { return 2; }

  Vector local_step(const Vector&) override {
    const std::size_t now = gauge_.in_flight.fetch_add(1) + 1;
    std::size_t peak = gauge_.peak.load();
    while (now > peak && !gauge_.peak.compare_exchange_weak(peak, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    gauge_.in_flight.fetch_sub(1);
    if (++steps_ == throw_on_step_)
      throw Error("probe local step failed in round " +
                  std::to_string(steps_));
    return Vector{0.5, static_cast<double>(steps_)};
  }

  std::size_t steps() const { return steps_; }

 private:
  Gauge& gauge_;
  std::size_t throw_on_step_;
  std::size_t steps_ = 0;
};

TEST(ConsensusEnginePool, BoundsConcurrentLocalStepsSyncAndAsync) {
  constexpr std::size_t kLearners = 64;
  constexpr std::size_t kRounds = 3;
  const std::size_t bound =
      std::max(1u, std::thread::hardware_concurrency());
  for (const bool async : {false, true}) {
    AdmmParams params = async ? async_degenerate_params(1) : base_params(1);
    params.max_iterations = kRounds;
    OverlapProbeLearner::Gauge gauge;
    std::vector<std::shared_ptr<OverlapProbeLearner>> probes;
    std::vector<std::shared_ptr<ConsensusLearner>> learners;
    for (std::size_t i = 0; i < kLearners; ++i) {
      probes.push_back(std::make_shared<OverlapProbeLearner>(gauge));
      learners.push_back(probes.back());
    }
    AveragingCoordinator coordinator(2);
    FullParticipation sync_policy;
    BoundedStalenessPolicy async_policy;
    RoundPolicy& policy = async ? static_cast<RoundPolicy&>(async_policy)
                                : static_cast<RoundPolicy&>(sync_policy);
    ConsensusEngine engine(learners, coordinator, params, policy);
    InMemoryTransport transport;
    EXPECT_EQ(engine.run(transport).iterations, kRounds);

    const char* mode = async ? "async" : "sync";
    EXPECT_GE(gauge.peak.load(), 1u) << mode;
    EXPECT_LE(gauge.peak.load(), bound) << mode;
    for (const auto& probe : probes) EXPECT_EQ(probe->steps(), kRounds) << mode;
  }
}

TEST(ConsensusEnginePool, ThrowingLocalStepPropagatesAndPoolStaysUsable) {
  OverlapProbeLearner::Gauge gauge;
  std::vector<std::shared_ptr<ConsensusLearner>> learners;
  for (std::size_t i = 0; i < 8; ++i)
    learners.push_back(
        std::make_shared<OverlapProbeLearner>(gauge, i == 3 ? 2 : 0));
  AveragingCoordinator coordinator(2);
  FullParticipation policy;
  const AdmmParams params = base_params(1);
  ConsensusEngine engine(learners, coordinator, params, policy);
  InMemoryTransport transport;
  try {
    engine.run(transport);
    ADD_FAILURE() << "the throwing local step did not reach the caller";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "probe local step failed in round 2");
  }
  // Every step the round started had finished before the error surfaced.
  EXPECT_EQ(gauge.in_flight.load(), 0u);

  // A later run in the same process still trains to its golden digest.
  FullParticipation full;
  EXPECT_EQ(run_digest(run_policy(make_partition(4), base_params(1), full)),
            kFullDigest);
}

}  // namespace
}  // namespace ppml::core
