// Reproduces paper Fig. 4(d) + 4(h): NONLINEAR (RBF) SVM on VERTICALLY
// partitioned data — per-learner feature-subset kernels (additive model).
//
// Each learner factors an (N x N) kernel matrix over its feature subset,
// so the paper-size higgs/ocr rows exceed a laptop memory budget; the caps
// below keep K_m around 1k x 1k per learner (recorded in EXPERIMENTS.md;
// the convergence ordering between datasets is what the figure shows and
// is preserved).
#include "bench/bench_common.h"
#include "core/vertical.h"
#include "data/partition.h"

using namespace ppml;

namespace {
svm::Kernel kernel_for(const std::string& name) {
  // Feature-subset kernels see k/4 dims; scale gamma accordingly.
  if (name == "cancer") return svm::Kernel::rbf(4.0 / 9.0);
  if (name == "higgs") return svm::Kernel::rbf(4.0 / 28.0);
  return svm::Kernel::rbf(4.0 / 64.0);
}

std::size_t cap_for(const std::string& name) {
  if (name == "higgs") return 2200;  // 1100 train rows per learner kernel
  if (name == "ocr") return 2000;
  return 0;  // cancer: paper size
}
}  // namespace

int main() {
  const core::AdmmParams params = bench::paper_params();
  bench::print_header("Fig. 4(d)/(h)",
                      "nonlinear (RBF) SVM, vertical partition", params);

  for (const char* name : {"cancer", "higgs", "ocr"}) {
    const auto dataset = bench::make_bench_dataset(name, cap_for(name));
    const auto partition =
        data::partition_vertically(dataset.split.train, 4, 7);
    const auto result = core::train_kernel_vertical(
        partition, kernel_for(name), params, &dataset.split.test);
    bench::print_trace(dataset.name, result.trace);
    std::printf("# %s final: dz2=%.3e accuracy=%.4f\n", dataset.name.c_str(),
                result.trace.final_delta_sq(),
                result.trace.final_accuracy());
  }
  return 0;
}
