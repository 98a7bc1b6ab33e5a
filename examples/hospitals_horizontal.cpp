// Scenario from the paper's introduction: "several medical institutions
// trying to discover certain correlations between symptoms and diagnoses
// from patients' records" — horizontally partitioned data (same features,
// different patients), trained on the full simulated MapReduce cluster
// with the secure summation protocol on the wire.
#include <cstdio>

#include "core/linear_horizontal.h"
#include "core/mapreduce_adapter.h"
#include "data/generators.h"
#include "data/partition.h"
#include "data/standardize.h"
#include "svm/metrics.h"

using namespace ppml;

int main() {
  constexpr std::size_t kHospitals = 4;

  // Patient records: 9 clinical features, ~600 patients across hospitals.
  auto split = data::train_test_split(data::make_cancer_like(21), 0.5, 9);
  data::StandardScaler scaler;
  scaler.fit_transform(split);
  const auto partition =
      data::partition_horizontally(split.train, kHospitals, 3);

  std::printf("=== Collaborative diagnosis model across %zu hospitals ===\n",
              kHospitals);
  for (std::size_t m = 0; m < kHospitals; ++m) {
    const auto [pos, neg] = partition.shards[m].class_counts();
    std::printf("hospital %zu: %zu patients (%zu benign / %zu malignant) — "
                "records stay on its own node\n",
                m, partition.shards[m].size(), pos, neg);
  }

  // A cluster with one node per hospital plus a reducer node; each
  // hospital's shard is stored data-local on its node.
  mapreduce::ClusterConfig cluster_config;
  cluster_config.num_nodes = kHospitals + 1;
  mapreduce::Cluster cluster(cluster_config);

  std::vector<mapreduce::Bytes> shards;
  for (const auto& shard : partition.shards)
    shards.push_back(core::serialize_horizontal_shard(shard));

  core::AdmmParams params;
  params.max_iterations = 60;
  params.convergence_tolerance = 1e-6;

  const std::size_t k = split.train.features();
  core::AveragingCoordinator coordinator(k + 1);
  const core::AdmmParams captured = params;
  const core::LearnerFactory factory =
      [captured, hospitals = kHospitals](mapreduce::BytesView payload,
                                         std::size_t) {
        return std::make_shared<core::LinearHorizontalLearner>(
            core::deserialize_horizontal_shard(payload), hospitals, captured);
      };

  core::ConsensusEngine engine(kHospitals, coordinator, params);
  core::FabricTransport transport(cluster, std::move(shards), factory,
                                  /*reducer_node=*/kHospitals);
  engine.run(transport);
  const mapreduce::JobStats& job = transport.job_stats();

  const svm::LinearModel model{coordinator.z(), coordinator.s()};
  const auto predictions = model.predict_all(split.test.x);
  const auto confusion = svm::confusion(predictions, split.test.y);

  std::printf("\ntraining: %zu rounds (%s)\n", job.rounds,
              job.converged ? "converged" : "iteration budget");
  std::printf("held-out accuracy %.1f%%  precision %.1f%%  recall %.1f%%\n",
              confusion.accuracy() * 100.0, confusion.precision() * 100.0,
              confusion.recall() * 100.0);

  std::printf("\nwhat crossed the network:\n");
  for (const auto& [channel, stats] : cluster.network().channel_stats()) {
    std::printf("  %-14s %6zu messages, %9zu bytes\n", channel.c_str(),
                stats.messages, stats.bytes);
  }
  std::printf("  (raw patient records: 0 bytes — data locality + masking)\n");
  std::printf("simulated network time: %.3f s\n",
              job.simulated_network_seconds);
  return 0;
}
