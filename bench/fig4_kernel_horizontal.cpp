// Reproduces paper Fig. 4(b) + 4(f): NONLINEAR (RBF) SVM on HORIZONTALLY
// partitioned data — reduced-consensus ADMM with public landmarks.
#include "bench/bench_common.h"
#include "core/kernel_horizontal.h"
#include "data/partition.h"

using namespace ppml;

namespace {
// Per-dataset RBF width: gamma ~ 1/k on standardized features.
svm::Kernel kernel_for(const std::string& name) {
  if (name == "cancer") return svm::Kernel::rbf(1.0 / 9.0);
  if (name == "higgs") return svm::Kernel::rbf(1.0 / 28.0);
  return svm::Kernel::rbf(1.0 / 64.0);
}
}  // namespace

int main() {
  core::AdmmParams params = bench::paper_params();
  params.landmarks = 60;
  // The paper's eq. (19) scales the augmented penalty as rho/M where our
  // consistent derivation (DESIGN.md §2.2) yields rho*M; to run at the
  // paper's EFFECTIVE penalty we set rho_ours = rho_paper / M^2. This is
  // what reproduces Fig. 4(b)'s steep ||dz||^2 decay (EXPERIMENTS.md F4b).
  params.rho = 100.0 / 16.0;
  params.qp_tolerance = 1e-5;
  bench::print_header("Fig. 4(b)/(f)",
                      "nonlinear (RBF) SVM, horizontal partition", params);
  std::printf("# landmarks l=%zu (reduced consensus space, paper §IV-B)\n",
              params.landmarks);

  for (const std::string name : {"cancer", "higgs", "ocr"}) {
    // Per-mapper dual Grams are (N/8)^2 and dominate the cost; higgs/ocr
    // are capped (documented in EXPERIMENTS.md; shapes unchanged).
    const std::size_t cap =
        name == "higgs" ? 4000 : (name == "ocr" ? 2400 : 0);
    const auto dataset = bench::make_bench_dataset(name, cap);
    const auto partition =
        data::partition_horizontally(dataset.split.train, 4, 7);
    const auto result = core::train_kernel_horizontal(
        partition, kernel_for(name), params, &dataset.split.test);
    bench::print_trace(dataset.name, result.trace);
    std::printf("# %s final: dz2=%.3e accuracy=%.4f\n", dataset.name.c_str(),
                result.trace.final_delta_sq(),
                result.trace.final_accuracy());
  }
  return 0;
}
