#include "core/cluster_trainers.h"

namespace ppml::core {

namespace {

void check_cluster(const mapreduce::Cluster& cluster, std::size_t learners) {
  PPML_CHECK(learners >= 2, "cluster trainers: need >= 2 learners");
  PPML_CHECK(cluster.num_nodes() >= learners + 1,
             "cluster trainers: need one node per learner plus a reducer "
             "node");
}

/// The consensus loop as an iterative MapReduce job: an engine on the
/// policy `params` selects, driven by a FabricTransport that moves learner
/// i's shard into the block store on node i and runs the reducer on node M.
ClusterTrainResult run_on_fabric(mapreduce::Cluster& cluster,
                                 std::vector<mapreduce::Bytes> shards,
                                 const LearnerFactory& factory,
                                 ConsensusCoordinator& coordinator,
                                 const AdmmParams& params,
                                 mapreduce::JobConfig job_config) {
  const std::size_t m = shards.size();
  ConsensusEngine engine(m, coordinator, params);
  FabricTransport transport(cluster, std::move(shards), factory,
                            /*reducer_node=*/m, job_config);
  ClusterTrainResult result;
  result.run = engine.run(transport);
  result.job = transport.job_stats();
  result.delta_trace = transport.delta_trace();
  result.dropout_events = transport.dropout_events();
  return result;
}

}  // namespace

LinearHorizontalClusterResult train_linear_horizontal_on_cluster(
    mapreduce::Cluster& cluster, const data::HorizontalPartition& partition,
    const AdmmParams& params, mapreduce::JobConfig job_config) {
  const std::size_t m = partition.learners();
  check_cluster(cluster, m);
  const std::size_t k = partition.shards.front().features();

  std::vector<mapreduce::Bytes> shards;
  shards.reserve(m);
  for (const auto& shard : partition.shards)
    shards.push_back(serialize_horizontal_shard(shard));

  AveragingCoordinator coordinator(k + 1);
  const AdmmParams captured = params;
  const LearnerFactory factory = [captured, m](
                                     mapreduce::BytesView payload,
                                     std::size_t) {
    return std::make_shared<LinearHorizontalLearner>(
        deserialize_horizontal_shard(payload), m, captured);
  };

  LinearHorizontalClusterResult result;
  result.cluster =
      run_on_fabric(cluster, std::move(shards), factory, coordinator,
                    params, job_config);
  result.model = svm::LinearModel{coordinator.z(), coordinator.s()};
  return result;
}

KernelHorizontalClusterResult train_kernel_horizontal_on_cluster(
    mapreduce::Cluster& cluster, const data::HorizontalPartition& partition,
    const svm::Kernel& kernel, const AdmmParams& params,
    mapreduce::JobConfig job_config) {
  const std::size_t m = partition.learners();
  check_cluster(cluster, m);

  // Landmarks are public — generated once and baked into every factory
  // call (on a real deployment they would ride in the job configuration).
  const linalg::Matrix landmarks = sample_landmarks(
      partition.shards.front().x, params.landmarks, params.seed);

  std::vector<mapreduce::Bytes> shards;
  shards.reserve(m);
  for (const auto& shard : partition.shards)
    shards.push_back(serialize_horizontal_shard(shard));

  AveragingCoordinator coordinator(params.landmarks + 1);
  // The facade needs learner 0's state to assemble the model afterwards.
  std::vector<std::shared_ptr<KernelHorizontalLearner>> typed(m);
  const AdmmParams captured = params;
  const LearnerFactory factory =
      [captured, m, kernel, landmarks, &typed](
          mapreduce::BytesView payload, std::size_t index) {
        auto learner = std::make_shared<KernelHorizontalLearner>(
            deserialize_horizontal_shard(payload), landmarks, kernel, m,
            captured);
        typed[index] = learner;
        return learner;
      };

  KernelHorizontalClusterResult result;
  result.cluster =
      run_on_fabric(cluster, std::move(shards), factory, coordinator,
                    params, job_config);
  PPML_CHECK(typed.front() != nullptr,
             "train_kernel_horizontal_on_cluster: learner 0 never ran");
  result.model = typed.front()->build_model();
  return result;
}

LinearVerticalClusterResult train_linear_vertical_on_cluster(
    mapreduce::Cluster& cluster, const data::VerticalPartition& partition,
    const AdmmParams& params, mapreduce::JobConfig job_config) {
  const std::size_t m = partition.learners();
  check_cluster(cluster, m);

  std::vector<mapreduce::Bytes> shards;
  shards.reserve(m);
  for (const auto& block : partition.blocks)
    shards.push_back(serialize_vertical_block(block));

  VerticalCoordinator coordinator(partition.y, m, params);
  std::vector<std::shared_ptr<LinearVerticalLearner>> typed(m);
  const AdmmParams captured = params;
  const LearnerFactory factory = [captured, &typed](
                                     mapreduce::BytesView payload,
                                     std::size_t index) {
    auto learner = std::make_shared<LinearVerticalLearner>(
        deserialize_vertical_block(payload), captured);
    typed[index] = learner;
    return learner;
  };

  LinearVerticalClusterResult result;
  result.cluster =
      run_on_fabric(cluster, std::move(shards), factory, coordinator,
                    params, job_config);
  result.model.feature_indices = partition.feature_indices;
  result.model.b = coordinator.bias();
  for (const auto& learner : typed) {
    PPML_CHECK(learner != nullptr,
               "train_linear_vertical_on_cluster: a learner never ran");
    result.model.w_blocks.push_back(learner->w());
  }
  return result;
}

KernelVerticalClusterResult train_kernel_vertical_on_cluster(
    mapreduce::Cluster& cluster, const data::VerticalPartition& partition,
    const svm::Kernel& kernel, const AdmmParams& params,
    mapreduce::JobConfig job_config) {
  const std::size_t m = partition.learners();
  check_cluster(cluster, m);

  std::vector<mapreduce::Bytes> shards;
  shards.reserve(m);
  for (const auto& block : partition.blocks)
    shards.push_back(serialize_vertical_block(block));

  VerticalCoordinator coordinator(partition.y, m, params);
  std::vector<std::shared_ptr<KernelVerticalLearner>> typed(m);
  const AdmmParams captured = params;
  const LearnerFactory factory = [captured, kernel, &typed](
                                     mapreduce::BytesView payload,
                                     std::size_t index) {
    auto learner = std::make_shared<KernelVerticalLearner>(
        deserialize_vertical_block(payload), kernel, captured);
    typed[index] = learner;
    return learner;
  };

  KernelVerticalClusterResult result;
  result.cluster =
      run_on_fabric(cluster, std::move(shards), factory, coordinator,
                    params, job_config);
  result.model.kernel = kernel;
  result.model.feature_indices = partition.feature_indices;
  result.model.b = coordinator.bias();
  for (std::size_t i = 0; i < m; ++i) {
    PPML_CHECK(typed[i] != nullptr,
               "train_kernel_vertical_on_cluster: a learner never ran");
    result.model.train_blocks.push_back(typed[i]->block());
    result.model.alphas.push_back(typed[i]->alpha());
  }
  return result;
}

}  // namespace ppml::core
