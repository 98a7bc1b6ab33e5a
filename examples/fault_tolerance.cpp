// Fault tolerance, end to end:
//   (a) node failure with replication — the job driver reschedules map
//       tasks onto surviving replicas (Hadoop-style), and
//   (b) a learner dropping out of the secure-summation round — the paper's
//       protocol alone would produce garbage (masks never cancel); the
//       Shamir-based recovery extension reconstructs the dropped party's
//       pairwise seeds and salvages the survivors' exact sum.
#include <cstdio>

#include "core/cluster_trainers.h"
#include "crypto/secure_sum_session.h"
#include "data/generators.h"
#include "data/partition.h"
#include "data/standardize.h"
#include "svm/metrics.h"

using namespace ppml;

int main() {
  std::printf("=== (a) Node failure under replication ===\n");
  auto split = data::train_test_split(data::make_cancer_like(3), 0.5, 8);
  data::StandardScaler scaler;
  scaler.fit_transform(split);
  const auto partition = data::partition_horizontally(split.train, 4, 5);

  mapreduce::ClusterConfig config;
  config.num_nodes = 5;
  config.replication = 2;  // every shard lives on two nodes
  mapreduce::Cluster cluster(config);
  cluster.kill_node(1);  // learner 1's primary node dies before the job
  std::printf("node 1 killed; learner 1's shard still has a replica\n");

  core::AdmmParams params;
  params.max_iterations = 40;
  const auto result =
      core::train_linear_horizontal_on_cluster(cluster, partition, params);
  std::printf("job finished: %zu rounds, accuracy %.1f%%\n",
              result.cluster.job.rounds,
              svm::accuracy(result.model.predict_all(split.test.x),
                            split.test.y) *
                  100.0);
  std::printf("job stats: rounds=%zu attempts=%zu retries=%zu\n",
              result.cluster.job.rounds, result.cluster.job.map_task_attempts,
              result.cluster.job.task_retries);

  std::printf("\n=== (b) Mid-round dropout in the secure sum ===\n");
  constexpr std::size_t kParties = 5;
  crypto::SecureSumConfig sum_config;
  sum_config.num_parties = kParties;
  sum_config.protocol_seed = 99;
  crypto::SecureSumSession session(sum_config);
  // Setup: every pairwise seed Shamir-shared with threshold 3.
  session.arm_recovery(/*threshold=*/3, /*sharing_seed=*/17);

  std::vector<std::vector<double>> values(kParties, std::vector<double>(3));
  crypto::Xoshiro256 rng(4);
  for (auto& v : values)
    for (double& x : v) x = rng.next_double() * 10.0 - 5.0;

  constexpr std::size_t kDropped = 2;
  std::vector<std::size_t> everyone(kParties);
  for (std::size_t i = 0; i < kParties; ++i) everyone[i] = i;
  std::vector<std::size_t> survivors;
  std::vector<std::vector<std::uint64_t>> contributions(kParties);
  std::vector<std::uint64_t> naive_total(3, 0);
  for (std::size_t i = 0; i < kParties; ++i) {
    if (i == kDropped) continue;
    survivors.push_back(i);
    const crypto::SecureSumSession::Tensor tensor(values[i]);
    contributions[i] = session.contribute(i, {&tensor, 1}, 0, everyone);
    crypto::ring_add_inplace(naive_total, contributions[i]);
  }
  std::printf("party %zu dropped after mask setup\n", kDropped);
  const auto garbage = session.codec().decode_vector(naive_total);
  std::printf("naive sum without recovery: (%.2f, %.2f, %.2f)  <- garbage\n",
              garbage[0], garbage[1], garbage[2]);

  crypto::SecureSumSession::ReduceAudit audit;
  session.reduce_average(0, everyone, survivors, contributions, &audit);
  const std::vector<double>& recovered = audit.decoded_sum;
  double e0 = 0.0;
  double e1 = 0.0;
  double e2 = 0.0;
  for (std::size_t i : survivors) {
    e0 += values[i][0];
    e1 += values[i][1];
    e2 += values[i][2];
  }
  std::printf("recovered survivor sum:     (%.2f, %.2f, %.2f)\n",
              recovered[0], recovered[1], recovered[2]);
  std::printf("true survivor sum:          (%.2f, %.2f, %.2f)\n", e0, e1, e2);

  std::printf("\n=== (c) Chaos run: lossy fabric + mid-job learner loss ===\n");
  // The full stack under a hostile FaultPlan: 5%% of messages dropped, 2%%
  // corrupted (both caught by the CRC layer and re-sent), a 8x straggler
  // that speculation works around, and learner 1's node crashing after the
  // map phase of round 10. With tolerate_mapper_loss the reducer corrects
  // the broken round via seed reconstruction and — because the shard has a
  // replica — learner 1 rejoins under a fresh key epoch.
  mapreduce::ClusterConfig chaos_config;
  chaos_config.num_nodes = 5;
  chaos_config.replication = 2;
  chaos_config.node_speed_factors = {8.0, 1.0, 1.0, 1.0, 1.0};
  chaos_config.fault_plan.seed = 2015;
  chaos_config.fault_plan.all_channels.drop = 0.05;
  chaos_config.fault_plan.all_channels.corrupt = 0.02;
  chaos_config.fault_plan.crashes.push_back(mapreduce::NodeEvent{10, 1});
  mapreduce::Cluster chaos_cluster(chaos_config);

  mapreduce::JobConfig job_config;
  job_config.tolerate_mapper_loss = true;
  job_config.speculation_factor = 2.0;
  const auto chaos = core::train_linear_horizontal_on_cluster(
      chaos_cluster, partition, params, job_config);
  std::printf("job finished: %zu rounds, accuracy %.1f%%\n",
              chaos.cluster.job.rounds,
              svm::accuracy(chaos.model.predict_all(split.test.x),
                            split.test.y) *
                  100.0);
  for (const auto& event : chaos.cluster.dropout_events) {
    std::printf("round %zu: learner %zu lost %s\n", event.round, event.mapper,
                event.corrected
                    ? "post-mask (sum corrected via seed reconstruction)"
                    : "pre-mask (survivors masked over the smaller set)");
  }
  const mapreduce::JobStats& job = chaos.cluster.job;
  std::printf("fault counters:\n");
  std::printf("  messages_dropped     = %zu\n",
              job.network_faults.messages_dropped);
  std::printf("  messages_corrupted   = %zu\n",
              job.network_faults.messages_corrupted);
  std::printf("  frames_rejected      = %zu (CRC catches)\n",
              job.frames_rejected);
  std::printf("  message_retries      = %zu\n", job.message_retries);
  std::printf("  mappers_lost         = %zu\n", job.mappers_lost);
  std::printf("  mappers_rejoined     = %zu\n", job.mappers_rejoined);
  std::printf("  speculative_attempts = %zu\n", job.speculative_attempts);
  std::printf("  round_timeouts       = %zu\n", job.round_timeouts);
  return 0;
}
