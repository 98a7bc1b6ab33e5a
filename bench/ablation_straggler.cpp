// Ablation X8: stragglers under the synchronous consensus barrier.
//
// The paper's scheme is bulk-synchronous: every ADMM round waits for the
// slowest Mapper. This bench quantifies that sensitivity on the simulated
// cluster by slowing one node down and reading the simulated compute
// clock, then runs the asynchronous bounded-staleness engine under the
// same delay storm and writes the sync-vs-async comparison to
// BENCH_async.json (gated against bench/baselines/ by scripts/verify.sh).
#include <fstream>

#include "bench/bench_common.h"
#include "core/cluster_trainers.h"
#include "core/consensus_engine.h"
#include "core/linear_horizontal.h"
#include "data/partition.h"
#include "mapreduce/network.h"
#include "obs/json.h"
#include "obs/report.h"

using namespace ppml;

namespace {

/// Global linear-SVM objective 0.5||w||^2 + C sum hinge at the consensus
/// iterate — the quantity both the sync and async runs should agree on at
/// their common ADMM fixed point.
double hinge_objective(const svm::LinearModel& model,
                       const data::Dataset& train, double c) {
  double objective = 0.0;
  for (double w : model.w) objective += 0.5 * w * w;
  for (std::size_t i = 0; i < train.size(); ++i) {
    double f = model.b;
    for (std::size_t j = 0; j < train.features(); ++j)
      f += model.w[j] * train.x(i, j);
    objective += c * std::max(0.0, 1.0 - train.y[i] * f);
  }
  return objective;
}

struct EngineRun {
  svm::LinearModel model;
  core::ConsensusRunResult run;
};

/// One in-memory engine run over the 8-way partition: synchronous
/// (FullParticipation, no plan) or bounded-staleness async under `plan`.
EngineRun run_engine(const data::HorizontalPartition& partition,
                     const core::AdmmParams& params,
                     const mapreduce::FaultPlan* plan) {
  const std::size_t m = partition.learners();
  const std::size_t k = partition.shards.front().features();
  std::vector<std::shared_ptr<core::ConsensusLearner>> learners;
  for (const data::Dataset& shard : partition.shards)
    learners.push_back(
        std::make_shared<core::LinearHorizontalLearner>(shard, m, params));
  core::AveragingCoordinator coordinator(k + 1);
  EngineRun out;
  core::ConsensusEngine engine(learners, coordinator, params);
  core::InMemoryTransport transport(plan);  // synchronous runs ignore the plan
  out.run = engine.run(transport);
  out.model = svm::LinearModel{coordinator.z(), coordinator.s()};
  return out;
}

}  // namespace

int main() {
  const auto dataset = bench::make_bench_dataset("cancer");
  const auto partition =
      data::partition_horizontally(dataset.split.train, 4, 7);
  core::AdmmParams params = bench::paper_params(30);

  std::printf("# Straggler sensitivity: one slow node out of 4 (linear "
              "horizontal, 30 rounds)\n");
  std::printf("%14s %18s %10s\n", "slowdown", "sim_compute_s", "accuracy");
  for (double slowdown : {1.0, 2.0, 5.0, 10.0, 50.0}) {
    mapreduce::ClusterConfig config;
    config.num_nodes = 5;
    config.node_speed_factors = {slowdown, 1.0, 1.0, 1.0, 1.0};
    mapreduce::Cluster cluster(config);
    const auto result =
        core::train_linear_horizontal_on_cluster(cluster, partition, params);
    const double accuracy = svm::accuracy(
        result.model.predict_all(dataset.split.test.x), dataset.split.test.y);
    std::printf("%13.0fx %18.4f %9.1f%%\n", slowdown,
                result.cluster.job.simulated_compute_seconds,
                accuracy * 100.0);
  }
  std::printf("# simulated compute time scales with the straggler — every "
              "round barriers on it;\n# accuracy is unaffected (the "
              "protocol is synchronous and exact).\n");

  std::printf("\n# Speculative re-execution: deadline-factor sweep (10x "
              "straggler, replication 2).\n# A map attempt slower than "
              "factor x the median gets a backup on another replica;\n# 0 "
              "disables speculation. Lower factors fire earlier and cap the "
              "barrier harder.\n");
  std::printf("%14s %18s %12s %10s\n", "spec_factor", "sim_compute_s",
              "spec_runs", "accuracy");
  for (double factor : {0.0, 1.5, 2.0, 3.0, 5.0}) {
    mapreduce::ClusterConfig config;
    config.num_nodes = 5;
    config.replication = 2;
    config.node_speed_factors = {10.0, 1.0, 1.0, 1.0, 1.0};
    mapreduce::Cluster cluster(config);
    mapreduce::JobConfig job_config;
    job_config.speculation_factor = factor;
    const auto result = core::train_linear_horizontal_on_cluster(
        cluster, partition, params, job_config);
    const double accuracy = svm::accuracy(
        result.model.predict_all(dataset.split.test.x), dataset.split.test.y);
    std::printf("%14.1f %18.4f %12zu %9.1f%%\n", factor,
                result.cluster.job.simulated_compute_seconds,
                result.cluster.job.speculative_attempts, accuracy * 100.0);
  }
  std::printf("# speculation trades duplicate work (spec_runs) for a "
              "bounded barrier; the model\n# is bit-identical across the "
              "sweep — backups re-run the same deterministic task.\n");

  // --- Async bounded-staleness vs the sync barrier under a delay storm. ---
  // 8 learners; party 0 computes 10x slower every round. The sync engine
  // barriers on the straggler (wall = rounds x 10); the async engine closes
  // each round at a 7-of-8 quorum and carries the straggler's stale value
  // forward, reaching the same fixed point in a fraction of the wall-clock.
  std::printf("\n# Async bounded-staleness vs sync barrier: 8 learners, "
              "party 0 delayed 10x every round.\n");
  constexpr std::size_t kStormLearners = 8;
  constexpr double kStormFactor = 10.0;
  const auto storm_partition =
      data::partition_horizontally(dataset.split.train, kStormLearners, 7);
  const core::AdmmParams sync_params = bench::paper_params(400);
  core::AdmmParams async_params = sync_params;
  async_params.async_quorum_fraction = 0.875;  // quorum 7 of 8
  async_params.max_staleness = 64;             // carry forward, never drop
  // Uniform stale weights keep the async fixed point identical to the sync
  // one (at convergence a carried value equals a fresh one); the async run
  // spends its wall-clock budget on more, cheaper rounds instead.
  async_params.stale_weight_mode = core::StaleWeight::kUniform;
  async_params.max_iterations = 400;

  mapreduce::FaultPlan plan;
  plan.seed = 7;
  plan.compute_delays.push_back(
      {0, sync_params.max_iterations, 0, kStormFactor});

  const EngineRun sync_run = run_engine(storm_partition, sync_params, nullptr);
  const EngineRun async_run =
      run_engine(storm_partition, async_params, &plan);

  // Sync wall-clock under the same storm is analytic: every round barriers
  // on the slowest party's nominal 1.0 s step times its delay factor.
  double sync_wall = 0.0;
  for (std::size_t r = 0; r < sync_params.max_iterations; ++r) {
    double slowest = 1.0;
    for (std::size_t i = 0; i < kStormLearners; ++i)
      slowest = std::max(slowest, plan.compute_delay_factor(r, i));
    sync_wall += slowest;
  }
  const double async_wall = async_run.run.async_seconds;

  const double c = sync_params.c;
  const double sync_objective =
      hinge_objective(sync_run.model, dataset.split.train, c);
  const double async_objective =
      hinge_objective(async_run.model, dataset.split.train, c);
  const double objective_gap =
      std::abs(async_objective - sync_objective) /
      std::max(1.0, std::abs(sync_objective));
  const double sync_accuracy = svm::accuracy(
      sync_run.model.predict_all(dataset.split.test.x), dataset.split.test.y);
  const double async_accuracy = svm::accuracy(
      async_run.model.predict_all(dataset.split.test.x), dataset.split.test.y);

  std::printf("%10s %14s %12s %10s %12s\n", "mode", "sim_wall_s", "objective",
              "accuracy", "watchdog");
  std::printf("%10s %14.3f %12.4f %9.1f%% %12s\n", "sync", sync_wall,
              sync_objective, sync_accuracy * 100.0,
              sync_run.run.watchdog_tripped ? "TRIPPED" : "ok");
  std::printf("%10s %14.3f %12.4f %9.1f%% %12s\n", "async", async_wall,
              async_objective, async_accuracy * 100.0,
              async_run.run.watchdog_tripped ? "TRIPPED" : "ok");
  std::printf("# objective gap %.2e (relative), async wall %.2fx of sync\n",
              objective_gap, async_wall / sync_wall);

  obs::JsonValue report = obs::JsonValue::object();
  report.set("bench", "async_consensus");
  obs::JsonValue config = obs::JsonValue::object();
  config.set("learners", kStormLearners);
  config.set("rounds", sync_params.max_iterations);
  config.set("straggler_party", std::size_t{0});
  config.set("straggler_factor", kStormFactor);
  config.set("quorum_fraction", async_params.async_quorum_fraction);
  config.set("max_staleness", async_params.max_staleness);
  config.set("stale_decay", async_params.stale_decay);
  report.set("config", std::move(config));
  obs::JsonValue sync_row = obs::JsonValue::object();
  sync_row.set("wall_s", sync_wall);
  sync_row.set("objective", sync_objective);
  sync_row.set("test_accuracy", sync_accuracy);
  sync_row.set("watchdog_tripped", sync_run.run.watchdog_tripped);
  report.set("sync", std::move(sync_row));
  obs::JsonValue async_row = obs::JsonValue::object();
  async_row.set("wall_s", async_wall);
  async_row.set("objective", async_objective);
  async_row.set("test_accuracy", async_accuracy);
  async_row.set("watchdog_tripped", async_run.run.watchdog_tripped);
  async_row.set("deadline_expirations", async_run.run.deadline_expirations);
  async_row.set("staleness_drops", async_run.run.staleness_drops);
  report.set("async", std::move(async_row));
  report.set("objective_gap_rel", objective_gap);
  report.set("speedup", sync_wall / async_wall);
  obs::write_json_file("BENCH_async.json", report);
  std::printf("# report written to BENCH_async.json\n");

  // Acceptance (ISSUE 6): async matches the sync objective to 1e-3 and
  // finishes in at most half the sync wall-clock. Fail loudly so the
  // verify.sh bench gate catches a regression before bench_check diffs.
  if (objective_gap > 1e-3) {
    std::fprintf(stderr, "FAIL: async objective gap %.3e > 1e-3\n",
                 objective_gap);
    return 1;
  }
  if (async_wall > 0.5 * sync_wall) {
    std::fprintf(stderr, "FAIL: async wall %.3f > 0.5 x sync wall %.3f\n",
                 async_wall, sync_wall);
    return 1;
  }
  return 0;
}
