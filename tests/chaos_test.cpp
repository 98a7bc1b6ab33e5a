// Chaos tests: the full training stack under a hostile fault plan.
//
// These are the acceptance tests for graceful degradation: a lossy fabric
// (drops + corruption), a scheduled node crash that permanently removes a
// learner mid-job, partitions that heal, and rejoins under fresh key
// epochs. The key protocol claim — that the reducer's dropout correction
// recovers the BIT-EXACT sum of the survivors' plaintext contributions —
// is asserted against a recording of what each learner actually produced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string_view>

#include "core/cluster_trainers.h"
#include "core/consensus.h"
#include "core/consensus_engine.h"
#include "crypto/fixed_point.h"
#include "crypto/secure_sum.h"
#include "data/generators.h"
#include "data/standardize.h"
#include "obs/flight_recorder.h"
#include "obs/obs.h"
#include "svm/metrics.h"

namespace ppml::core {
namespace {

using mapreduce::Bytes;
using mapreduce::MapperState;

data::SplitDataset cancer_split() {
  auto split = data::train_test_split(data::make_cancer_like(1), 0.5, 42);
  data::StandardScaler scaler;
  scaler.fit_transform(split);
  return split;
}

/// A bigger task for the M = 5 acceptance scenario: with 240 training rows
/// per shard, losing one learner's 20% of the data moves the achievable
/// accuracy by well under the 2-point budget (the cancer-like set is small
/// enough that the survivor optimum itself sits ~2.5 points away).
data::SplitDataset acceptance_split() {
  data::GaussianTaskConfig task;
  task.samples = 2000;
  task.features = 10;
  task.separation = 2.0;
  task.seed = 3;
  task.name = "chaos-task";
  auto split = data::train_test_split(data::make_gaussian_task(task), 0.6, 42);
  data::StandardScaler scaler;
  scaler.fit_transform(split);
  return split;
}

mapreduce::ClusterConfig cluster_config(std::size_t nodes,
                                        std::size_t replication = 1) {
  mapreduce::ClusterConfig config;
  config.num_nodes = nodes;
  config.replication = replication;
  return config;
}

double test_accuracy(const svm::LinearModel& model,
                     const data::SplitDataset& split) {
  return svm::accuracy(model.predict_all(split.test.x), split.test.y);
}

/// The acceptance scenario: M = 5 learners, 5% message drop and 2%
/// corruption on every channel, and learner 2's node crashes (post-map) at
/// round 10.
mapreduce::FaultPlan acceptance_plan() {
  mapreduce::FaultPlan plan;
  plan.seed = 2015;
  plan.all_channels.drop = 0.05;
  plan.all_channels.corrupt = 0.02;
  plan.crashes.push_back(mapreduce::NodeEvent{10, 2});
  return plan;
}

LinearHorizontalClusterResult run_acceptance_chaos(
    const data::SplitDataset& split) {
  AdmmParams params;
  params.max_iterations = 40;
  const auto partition = data::partition_horizontally(split.train, 5, 7);
  mapreduce::ClusterConfig config = cluster_config(6);
  config.fault_plan = acceptance_plan();
  mapreduce::Cluster cluster(config);
  mapreduce::JobConfig job_config;
  job_config.tolerate_mapper_loss = true;
  return train_linear_horizontal_on_cluster(cluster, partition, params,
                                            job_config);
}

TEST(Chaos, SurvivesLossyFabricAndPermanentLearnerLoss) {
  const auto split = acceptance_split();
  AdmmParams params;
  params.max_iterations = 40;
  const auto partition = data::partition_horizontally(split.train, 5, 7);

  // Fault-free baseline on a clean cluster.
  mapreduce::Cluster clean(cluster_config(6));
  const auto baseline =
      train_linear_horizontal_on_cluster(clean, partition, params);
  const double baseline_acc = test_accuracy(baseline.model, split);

  // Chaos run: completes without JobError despite the mid-job learner loss.
  const auto chaos = run_acceptance_chaos(split);
  const mapreduce::JobStats& job = chaos.cluster.job;
  EXPECT_EQ(job.rounds, 40u);
  EXPECT_EQ(job.mappers_lost, 1u);
  ASSERT_EQ(job.mapper_states.size(), 5u);
  EXPECT_EQ(job.mapper_states[2], MapperState::kDropped);
  EXPECT_GT(job.network_faults.messages_dropped, 0u);
  EXPECT_GT(job.network_faults.messages_corrupted, 0u);
  EXPECT_GT(job.message_retries, 0u);
  EXPECT_GT(job.frames_rejected, 0u);  // corrupted frames caught by CRC

  // The reducer saw (and corrected) the loss.
  ASSERT_GE(chaos.cluster.dropout_events.size(), 1u);
  const DropoutEvent& event = chaos.cluster.dropout_events.front();
  EXPECT_EQ(event.mapper, 2u);
  EXPECT_EQ(event.round, 10u);
  EXPECT_TRUE(event.corrected);
  EXPECT_EQ(event.survivors, (std::vector<std::size_t>{0, 1, 3, 4}));

  // Degraded, not destroyed: within 2 accuracy points of the clean run.
  const double chaos_acc = test_accuracy(chaos.model, split);
  EXPECT_GE(chaos_acc, baseline_acc - 0.02);
}

TEST(Chaos, ChaosRunsAreDeterministic) {
  const auto split = acceptance_split();
  const auto first = run_acceptance_chaos(split);
  const auto second = run_acceptance_chaos(split);

  // Same seed, same faults: the fabric's ground truth matches exactly...
  EXPECT_EQ(first.cluster.job.network_faults.messages_dropped,
            second.cluster.job.network_faults.messages_dropped);
  EXPECT_EQ(first.cluster.job.network_faults.messages_corrupted,
            second.cluster.job.network_faults.messages_corrupted);
  EXPECT_EQ(first.cluster.job.message_retries,
            second.cluster.job.message_retries);
  EXPECT_EQ(first.cluster.job.frames_rejected,
            second.cluster.job.frames_rejected);
  // ...and so does the model, bit for bit.
  ASSERT_EQ(first.model.w.size(), second.model.w.size());
  for (std::size_t j = 0; j < first.model.w.size(); ++j)
    EXPECT_EQ(first.model.w[j], second.model.w[j]) << j;
  EXPECT_EQ(first.model.b, second.model.b);
}

/// Wraps a learner to record every plaintext contribution it hands to the
/// masking layer — the ground truth the dropout correction must recover.
class RecordingLearner final : public ConsensusLearner {
 public:
  using Log = std::map<std::size_t, std::map<std::size_t, Vector>>;

  RecordingLearner(std::shared_ptr<ConsensusLearner> inner, std::size_t index,
                   Log& log, std::mutex& mutex)
      : inner_(std::move(inner)), index_(index), log_(log), mutex_(mutex) {}

  std::size_t contribution_dim() const override {
    return inner_->contribution_dim();
  }

  Vector local_step(const Vector& broadcast) override {
    Vector contribution = inner_->local_step(broadcast);
    const std::lock_guard<std::mutex> lock(mutex_);
    log_[index_][step_++] = contribution;
    return contribution;
  }

  void on_cohort_resize(std::size_t live_learners) override {
    inner_->on_cohort_resize(live_learners);
  }

 private:
  std::shared_ptr<ConsensusLearner> inner_;
  std::size_t index_;
  Log& log_;
  std::mutex& mutex_;
  std::size_t step_ = 0;  ///< == round, while this learner is alive
};

TEST(Chaos, SurvivorSumCorrectionIsBitExact) {
  const auto split = cancer_split();
  AdmmParams params;
  params.max_iterations = 8;
  const std::size_t m = 4;
  const std::size_t drop_round = 3;
  const auto partition = data::partition_horizontally(split.train, m, 7);
  std::vector<Bytes> shards;
  for (const auto& shard : partition.shards)
    shards.push_back(serialize_horizontal_shard(shard));
  const std::size_t k = split.train.features();

  std::mutex log_mutex;
  RecordingLearner::Log log;
  AveragingCoordinator coordinator(k + 1);
  const AdmmParams captured = params;
  const LearnerFactory factory =
      [&log, &log_mutex, captured](mapreduce::BytesView payload, std::size_t index)
      -> std::shared_ptr<ConsensusLearner> {
    auto inner = std::make_shared<LinearHorizontalLearner>(
        deserialize_horizontal_shard(payload), 4, captured);
    return std::make_shared<RecordingLearner>(std::move(inner), index, log,
                                              log_mutex);
  };

  mapreduce::ClusterConfig config = cluster_config(m + 1);
  config.fault_plan.crashes.push_back(mapreduce::NodeEvent{drop_round, 1});
  mapreduce::Cluster cluster(config);
  mapreduce::JobConfig job_config;
  job_config.tolerate_mapper_loss = true;
  ConsensusEngine engine(m, coordinator, params);
  FabricTransport transport(cluster, std::move(shards), factory,
                            /*reducer_node=*/m, job_config);
  engine.run(transport);

  EXPECT_EQ(transport.job_stats().rounds, 8u);
  ASSERT_EQ(transport.dropout_events().size(), 1u);
  const DropoutEvent& event = transport.dropout_events().front();
  ASSERT_TRUE(event.corrected);
  EXPECT_EQ(event.round, drop_round);
  EXPECT_EQ(event.mapper, 1u);
  ASSERT_EQ(event.survivors, (std::vector<std::size_t>{0, 2, 3}));

  // Reference: ring-sum the survivors' RECORDED plaintext contributions
  // through the same fixed-point codec. The corrected sum must match bit
  // for bit — the mask algebra is exact, not approximate.
  const crypto::FixedPointCodec codec(params.fixed_point_bits, m);
  std::vector<std::uint64_t> acc;
  for (const std::size_t i : event.survivors) {
    const auto encoded = codec.encode_vector(log.at(i).at(drop_round));
    if (acc.empty()) acc.assign(encoded.size(), 0);
    crypto::ring_add_inplace(acc, encoded);
  }
  EXPECT_EQ(event.corrected_sum, codec.decode_vector(acc));
}

/// ISSUE acceptance: a chaos run with an injected mid-job drop produces a
/// flight-recorder dump whose events include the crash fault followed by
/// the dropout-recovery span that corrected it.
TEST(Chaos, FlightRecorderCapturesTheFaultThenTheRecovery) {
  const auto split = cancer_split();
  AdmmParams params;
  params.max_iterations = 8;
  const std::size_t drop_round = 3;
  const auto partition = data::partition_horizontally(split.train, 4, 7);

  mapreduce::ClusterConfig config = cluster_config(5);
  config.fault_plan.crashes.push_back(mapreduce::NodeEvent{drop_round, 1});
  mapreduce::Cluster cluster(config);
  mapreduce::JobConfig job_config;
  job_config.tolerate_mapper_loss = true;

  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  obs::FlightRecorder recorder;
  const char* dump_path = "chaos_flight_dump.json";
  std::remove(dump_path);
  recorder.arm_auto_dump(dump_path);
  {
    obs::Session session(&tracer, &metrics, &recorder);
    train_linear_horizontal_on_cluster(cluster, partition, params, job_config);
    ASSERT_TRUE(recorder.dump_now("chaos_run_complete"));
  }

  // The ring holds the crash fault and, later, the recovery span close.
  const auto events = recorder.snapshot();
  std::size_t fault_at = events.size();
  std::size_t recovery_at = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::string_view label(events[i].label);
    if (events[i].kind == obs::FlightEventKind::kFault &&
        label == "crash:node1" && fault_at == events.size()) {
      fault_at = i;
      EXPECT_EQ(events[i].value, static_cast<double>(drop_round));
    }
    if (events[i].kind == obs::FlightEventKind::kSpanClose &&
        label == "dropout_recovery") {
      recovery_at = i;
    }
  }
  ASSERT_LT(fault_at, events.size()) << "crash fault never hit the ring";
  ASSERT_GT(recovery_at, 0u) << "dropout_recovery span never hit the ring";
  EXPECT_LT(fault_at, recovery_at);

  // The driver also marked the mapper as dropped.
  const bool marked = std::any_of(
      events.begin(), events.end(), [](const obs::FlightEvent& e) {
        return e.kind == obs::FlightEventKind::kMark &&
               std::string_view(e.label) == "mapper.dropped:1";
      });
  EXPECT_TRUE(marked);

  // ...and the on-disk dump carries the same story.
  std::ifstream in(dump_path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string dump = buffer.str();
  EXPECT_NE(dump.find("\"reason\": \"chaos_run_complete\""), std::string::npos);
  EXPECT_NE(dump.find("crash:node1"), std::string::npos);
  EXPECT_NE(dump.find("dropout_recovery"), std::string::npos);
  std::remove(dump_path);
}

TEST(Chaos, DroppedLearnerRejoinsOnReplicaUnderFreshEpoch) {
  const auto split = cancer_split();
  AdmmParams params;
  params.max_iterations = 12;
  const auto partition = data::partition_horizontally(split.train, 3, 7);

  // Replication 2: learner 0's shard also lives on node 1, so after node
  // 0's crash (post-map, round 2) it is dropped for one round and rejoins
  // on the replica — forcing a fresh key-agreement epoch for everyone.
  mapreduce::ClusterConfig config = cluster_config(4, /*replication=*/2);
  config.fault_plan.crashes.push_back(mapreduce::NodeEvent{2, 0});
  mapreduce::Cluster cluster(config);
  mapreduce::JobConfig job_config;
  job_config.tolerate_mapper_loss = true;
  const auto result = train_linear_horizontal_on_cluster(cluster, partition,
                                                         params, job_config);
  const mapreduce::JobStats& job = result.cluster.job;
  EXPECT_EQ(job.rounds, 12u);
  EXPECT_EQ(job.mappers_lost, 1u);
  EXPECT_EQ(job.mappers_rejoined, 1u);
  EXPECT_EQ(job.mapper_states[0], MapperState::kRejoined);
  ASSERT_GE(result.cluster.dropout_events.size(), 1u);
  EXPECT_TRUE(result.cluster.dropout_events.front().corrected);
  // The rejoined cohort still trains a usable model.
  EXPECT_GE(test_accuracy(result.model, split), 0.85);
}

TEST(Chaos, PartitionedLearnerDropsAndHealsWithThePartition) {
  const auto split = cancer_split();
  AdmmParams params;
  params.max_iterations = 15;
  const auto partition = data::partition_horizontally(split.train, 3, 7);

  // Rounds [2, 4): node 0 is cut off from the cluster. Partitions are
  // round-granular, so the cut always hits the BROADCAST first — learner 0
  // is lost pre-mask each partitioned round (no correction needed; the
  // survivors just mask over the smaller set). Its node stays alive, so
  // each following round it rejoins under a fresh epoch; once the
  // partition heals the rejoin sticks.
  mapreduce::ClusterConfig config = cluster_config(4);
  config.fault_plan.partitions.push_back(
      mapreduce::NetworkPartition{2, 4, {0}});
  mapreduce::Cluster cluster(config);
  mapreduce::JobConfig job_config;
  job_config.tolerate_mapper_loss = true;
  const auto result = train_linear_horizontal_on_cluster(cluster, partition,
                                                         params, job_config);
  const mapreduce::JobStats& job = result.cluster.job;
  EXPECT_EQ(job.rounds, 15u);
  EXPECT_EQ(job.mappers_lost, 2u);      // dropped in rounds 2 and 3
  EXPECT_EQ(job.mappers_rejoined, 2u);  // rejoined in rounds 3 and 4
  EXPECT_EQ(job.mapper_states[0], MapperState::kRejoined);
  EXPECT_GT(job.network_faults.messages_partitioned, 0u);

  ASSERT_EQ(result.cluster.dropout_events.size(), 2u);
  for (const DropoutEvent& event : result.cluster.dropout_events) {
    EXPECT_EQ(event.mapper, 0u);
    EXPECT_FALSE(event.corrected);  // pre-mask: subset masking, no fix-up
  }
  EXPECT_GE(test_accuracy(result.model, split), 0.85);
}

std::vector<std::shared_ptr<ConsensusLearner>> make_learners(
    const data::HorizontalPartition& partition, const AdmmParams& params) {
  std::vector<std::shared_ptr<ConsensusLearner>> learners;
  for (const auto& shard : partition.shards)
    learners.push_back(std::make_shared<LinearHorizontalLearner>(
        shard, partition.learners(), params));
  return learners;
}

TEST(Chaos, InMemoryDropoutDriverMatchesPlainDriverWithoutDrops) {
  const auto split = cancer_split();
  AdmmParams params;
  params.max_iterations = 15;
  const auto partition = data::partition_horizontally(split.train, 4, 7);
  const std::size_t k = split.train.features();

  InMemoryTransport transport;
  AveragingCoordinator reference(k + 1);
  auto plain = make_learners(partition, params);
  ConsensusEngine(plain, reference, params).run(transport);

  AveragingCoordinator dropout_coordinator(k + 1);
  auto tolerant = make_learners(partition, params);
  ScheduledDropout policy(DropoutSchedule{});
  ConsensusEngine(tolerant, dropout_coordinator, params, policy)
      .run(transport);

  const Vector a = reference.z();
  const Vector b = dropout_coordinator.z();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t j = 0; j < a.size(); ++j) EXPECT_DOUBLE_EQ(a[j], b[j]) << j;
  EXPECT_DOUBLE_EQ(reference.s(), dropout_coordinator.s());
}

TEST(Chaos, InMemoryDropoutDriverDegradesGracefully) {
  const auto split = cancer_split();
  AdmmParams params;
  params.max_iterations = 30;
  const auto partition = data::partition_horizontally(split.train, 4, 7);
  const std::size_t k = split.train.features();

  InMemoryTransport transport;
  AveragingCoordinator clean(k + 1);
  auto plain = make_learners(partition, params);
  ConsensusEngine(plain, clean, params).run(transport);
  const double clean_acc =
      test_accuracy(svm::LinearModel{clean.z(), clean.s()}, split);

  DropoutSchedule schedule;
  schedule.drops[4] = {3};  // party 3 dies at round 4, post-mask
  AveragingCoordinator degraded(k + 1);
  auto tolerant = make_learners(partition, params);
  ScheduledDropout policy(schedule);
  const ConsensusRunResult result =
      ConsensusEngine(tolerant, degraded, params, policy).run(transport);
  EXPECT_EQ(result.iterations, 30u);
  const double degraded_acc =
      test_accuracy(svm::LinearModel{degraded.z(), degraded.s()}, split);
  EXPECT_GE(degraded_acc, clean_acc - 0.02);
}

// --- Async bounded-staleness consensus under chaos ----------------------

TEST(Chaos, AsyncQuorumConvergesWhereTheSyncBarrierBlowsTheClock) {
  const auto split = acceptance_split();
  AdmmParams params;
  params.max_iterations = 30;
  const auto partition = data::partition_horizontally(split.train, 5, 7);
  const std::size_t k = split.train.features();

  // Clean synchronous baseline, no storm.
  AveragingCoordinator clean(k + 1);
  auto plain = make_learners(partition, params);
  InMemoryTransport clean_transport;
  ConsensusEngine(plain, clean, params).run(clean_transport);
  const double clean_acc =
      test_accuracy(svm::LinearModel{clean.z(), clean.s()}, split);

  // Delay storm: party 0 computes 50x slower every round. The synchronous
  // barrier waits on it, so the sync wall-clock is analytic — 50 s per
  // round, 1500 s for the job — blowing a 2-minute deadline by 12x. The
  // async engine closes every round at a 4-of-5 quorum on the nominal
  // clock instead.
  mapreduce::FaultPlan plan;
  plan.seed = 2015;
  mapreduce::ComputeDelay storm;
  storm.party = 0;
  storm.factor = 50.0;
  plan.compute_delays.push_back(storm);

  AdmmParams async = params;
  async.async_quorum_fraction = 0.8;
  async.max_staleness = 3;  // the 50x straggler exceeds this -> dropped
  async.watchdog_window = 4;

  auto learners = make_learners(partition, async);
  AveragingCoordinator coordinator(k + 1);
  BoundedStalenessPolicy policy;
  ConsensusEngine engine(learners, coordinator, async, policy);
  InMemoryTransport transport(&plan);
  std::vector<std::size_t> recovery_rounds;
  const RoundObserver observer = [&](std::size_t round) {
    if (!engine.last_async_outcome().audit.dropped.empty())
      recovery_rounds.push_back(round);
  };
  obs::MetricsRegistry metrics;  // the watchdog feed is observational
  ConsensusRunResult result;
  {
    obs::Session session(nullptr, &metrics);
    result = engine.run(transport, observer);
  }

  const double budget_s = 120.0;
  const double sync_wall =
      storm.factor * static_cast<double>(params.max_iterations);
  EXPECT_GT(sync_wall, budget_s);  // the sync barrier blows the deadline...
  EXPECT_LT(result.async_seconds, budget_s);  // ...the quorum does not
  EXPECT_DOUBLE_EQ(result.async_seconds,
                   static_cast<double>(params.max_iterations));
  EXPECT_EQ(result.iterations, 30u);
  EXPECT_FALSE(result.watchdog_tripped);
  EXPECT_EQ(result.watchdog_reason, "");

  // The chronic straggler never produces a value, so its staleness tracks
  // the round number: with max_staleness = 3 it is presumed dead at round
  // 4, exactly once, and the Shamir recovery corrects that round's sum.
  EXPECT_EQ(result.staleness_drops, 1u);
  EXPECT_EQ(recovery_rounds, (std::vector<std::size_t>{4}));

  // The survivors still train a usable model.
  const double async_acc =
      test_accuracy(svm::LinearModel{coordinator.z(), coordinator.s()}, split);
  EXPECT_GE(async_acc, clean_acc - 0.02);
}

TEST(Chaos, FabricDeadlineDropsTheChronicStragglerAndStillTrains) {
  const auto split = acceptance_split();
  AdmmParams params;
  params.max_iterations = 20;
  const auto partition = data::partition_horizontally(split.train, 5, 7);

  // Clean synchronous fabric baseline.
  mapreduce::Cluster clean(cluster_config(6));
  const auto baseline =
      train_linear_horizontal_on_cluster(clean, partition, params);
  const double baseline_acc = test_accuracy(baseline.model, split);

  // Mapper 0's node runs 10x slower than the cohort. On the fabric the
  // async round deadline becomes IterativeJob's deadline-bounded
  // contribution wait: 2x the median map time, one 1.5x retry extension,
  // and 10x is still outside — so every round the job drops mapper 0
  // post-map (the dropout correction fixes the masked sum) and the rejoin
  // machinery readmits it next round under a fresh key epoch.
  AdmmParams async = params;
  async.async_quorum_fraction = 0.8;
  async.async_round_deadline = 2.0;

  mapreduce::ClusterConfig config = cluster_config(6, /*replication=*/2);
  config.node_speed_factors = {10.0, 1.0, 1.0, 1.0, 1.0, 1.0};
  mapreduce::Cluster cluster(config);
  const auto result =
      train_linear_horizontal_on_cluster(cluster, partition, async);
  const mapreduce::JobStats& job = result.cluster.job;

  EXPECT_EQ(job.rounds, 20u);
  EXPECT_GE(job.deadline_misses, 1u);
  EXPECT_GE(job.deadline_retry_waits, 1u);
  EXPECT_GE(job.mappers_rejoined, 1u);
  // The adapter surfaces the fabric's deadline verdicts on the run result.
  EXPECT_EQ(result.cluster.run.deadline_expirations, job.deadline_misses);

  // Every drop is post-map: the straggler had already woven its masks in,
  // so the reducer must (and does) correct each affected sum.
  ASSERT_GE(result.cluster.dropout_events.size(), 1u);
  for (const DropoutEvent& event : result.cluster.dropout_events) {
    EXPECT_EQ(event.mapper, 0u);
    EXPECT_TRUE(event.corrected);
  }

  // Degraded, not destroyed: within 2 points of the clean run even though
  // the straggler's shard never lands a contribution.
  EXPECT_GE(test_accuracy(result.model, split), baseline_acc - 0.02);
}

}  // namespace
}  // namespace ppml::core
