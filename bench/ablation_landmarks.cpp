// Ablation X2: landmark count l vs kernel-horizontal quality.
//
// Paper §IV-B: "because we cannot afford p vectors, we only use l vectors
// to approximate w~" and claims "reasonably good performance". This sweep
// quantifies the approximation: accuracy and consensus residual vs l.
#include <cmath>

#include "bench/bench_common.h"
#include "core/kernel_horizontal.h"
#include "data/partition.h"

using namespace ppml;

int main() {
  std::printf("# Ablation: landmarks l vs accuracy (kernel horizontal)\n");
  std::printf("%-8s %5s %10s %12s\n", "dataset", "l", "accuracy",
              "final_dz2");

  for (const std::string name : {"cancer", "ocr"}) {
    const std::size_t cap = name == "ocr" ? 2400 : 0;
    const auto dataset = bench::make_bench_dataset(name, cap);
    const auto partition =
        data::partition_horizontally(dataset.split.train, 4, 7);
    const double k = static_cast<double>(dataset.split.train.features());
    for (std::size_t l : {5, 10, 20, 40, 80, 160}) {
      core::AdmmParams params = bench::paper_params(60);
      params.landmarks = l;
      const auto result = core::train_kernel_horizontal(
          partition, svm::Kernel::rbf(1.0 / k), params, &dataset.split.test);
      std::printf("%-8s %5zu %9.1f%% %12.3e\n", name.c_str(), l,
                  result.trace.final_accuracy() * 100.0,
                  result.trace.final_delta_sq());
    }
  }
  // Where the approximation really bites: NON-IID shards. Give each
  // learner one angular sector of the rings — no learner can solve the
  // task locally, so the quality of the landmark consensus decides how
  // much of the other sectors' structure reaches learner 0's classifier.
  std::printf("\n# two_rings, non-IID sector shards (RBF gamma=0.5, rho=1, "
              "C=10)\n");
  std::printf("%-8s %5s %10s\n", "dataset", "l", "accuracy");
  auto rings = data::train_test_split(
      data::make_two_rings(800, 1.0, 3.0, 0.1, 3), 0.5, 9);
  // Sector partition: learner m gets the points with angle in its quadrant.
  data::HorizontalPartition sectors;
  sectors.shards.assign(4, {});
  for (auto& shard : sectors.shards) {
    shard.x.resize(0, 2);
    shard.name = "sector";
  }
  std::vector<std::vector<std::size_t>> sector_rows(4);
  for (std::size_t i = 0; i < rings.train.size(); ++i) {
    const double angle =
        std::atan2(rings.train.x(i, 1), rings.train.x(i, 0));
    const auto sector = static_cast<std::size_t>(
        std::min(3.0, std::floor((angle + 3.14159265) / 1.5708)));
    sector_rows[sector].push_back(i);
  }
  for (std::size_t m = 0; m < 4; ++m)
    sectors.shards[m] = rings.train.subset(sector_rows[m]);

  for (std::size_t l : {2, 3, 5, 10, 25, 50}) {
    core::AdmmParams params = bench::paper_params(60);
    params.landmarks = l;
    params.c = 10.0;
    params.rho = 1.0;
    const auto result = core::train_kernel_horizontal(
        sectors, svm::Kernel::rbf(0.5), params, &rings.test);
    std::printf("%-8s %5zu %9.1f%%\n", "rings", l,
                result.trace.final_accuracy() * 100.0);
  }
  return 0;
}
