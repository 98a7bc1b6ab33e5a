// Reproduces paper Fig. 4(c) + 4(g): LINEAR SVM on VERTICALLY partitioned
// data — sharing-form ADMM, features randomly assigned to 4 learners.
#include "bench/bench_common.h"
#include "core/vertical.h"
#include "data/partition.h"

using namespace ppml;

int main() {
  const core::AdmmParams params = bench::paper_params();
  bench::print_header("Fig. 4(c)/(g)", "linear SVM, vertical partition",
                      params);

  for (const char* name : {"cancer", "higgs", "ocr"}) {
    const auto dataset = bench::make_bench_dataset(name);
    const auto partition =
        data::partition_vertically(dataset.split.train, 4, 7);
    const auto result =
        core::train_linear_vertical(partition, params, &dataset.split.test);
    bench::print_trace(dataset.name, result.trace);
    std::printf("# %s final: dz2=%.3e accuracy=%.4f\n", dataset.name.c_str(),
                result.trace.final_delta_sq(),
                result.trace.final_accuracy());
  }
  return 0;
}
