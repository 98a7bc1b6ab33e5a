// Extension experiment: the framework beyond SVMs.
//
// The paper's framework (decompose into Map, secure-average in Reduce) is
// model-agnostic; this bench trains three privacy-preserving learners —
// hinge SVM, logistic regression, ridge (least-squares) — over the same
// horizontal partitions and compares accuracy and convergence profile.
#include "bench/bench_common.h"
#include "core/glm_horizontal.h"
#include "core/glm_vertical.h"
#include "core/linear_horizontal.h"
#include "data/partition.h"

using namespace ppml;

int main() {
  std::printf("# Privacy-preserving linear learners, horizontal M=4, "
              "60 rounds\n");
  std::printf("%-8s %10s %12s %10s\n", "dataset", "svm", "logistic", "ridge");

  for (const std::string name : {"cancer", "higgs", "ocr"}) {
    const std::size_t cap = name == "higgs" ? 6000 : 0;
    const auto dataset = bench::make_bench_dataset(name, cap);
    const auto partition =
        data::partition_horizontally(dataset.split.train, 4, 7);

    const auto svm_result = core::train_linear_horizontal(
        partition, bench::paper_params(60), &dataset.split.test);

    core::GlmParams glm;
    glm.admm.max_iterations = 60;
    const auto logistic =
        core::train_logistic_horizontal(partition, glm, &dataset.split.test);
    const auto ridge =
        core::train_ridge_horizontal(partition, glm, &dataset.split.test);

    std::printf("%-8s %9.1f%% %11.1f%% %9.1f%%\n", name.c_str(),
                svm_result.trace.final_accuracy() * 100.0,
                logistic.trace.final_accuracy() * 100.0,
                ridge.trace.final_accuracy() * 100.0);
  }

  std::printf("\n# Vertical variants (cancer_like, M=4, rho=10, 60 rounds)\n");
  {
    const auto cancer = bench::make_bench_dataset("cancer");
    const auto vp = data::partition_vertically(cancer.split.train, 4, 7);
    core::GlmParams vparams;
    vparams.admm.max_iterations = 60;
    vparams.admm.rho = 10.0;
    const auto vridge =
        core::train_ridge_vertical(vp, vparams, &cancer.split.test);
    const auto vlogistic =
        core::train_logistic_vertical(vp, vparams, &cancer.split.test);
    std::printf("ridge-vertical     %5.1f%%\n",
                vridge.trace.final_accuracy() * 100.0);
    std::printf("logistic-vertical  %5.1f%%\n",
                vlogistic.trace.final_accuracy() * 100.0);
  }

  std::printf("\n# Convergence profile (cancer_like): ||dz||^2 by round\n");
  std::printf("%6s %12s %12s %12s\n", "round", "svm", "logistic", "ridge");
  const auto dataset = bench::make_bench_dataset("cancer");
  const auto partition =
      data::partition_horizontally(dataset.split.train, 4, 7);
  const auto svm_result = core::train_linear_horizontal(
      partition, bench::paper_params(60), nullptr);
  core::GlmParams glm;
  glm.admm.max_iterations = 60;
  const auto logistic = core::train_logistic_horizontal(partition, glm);
  const auto ridge = core::train_ridge_horizontal(partition, glm);
  for (std::size_t r : {0ul, 4ul, 9ul, 19ul, 39ul, 59ul}) {
    std::printf("%6zu %12.3e %12.3e %12.3e\n", r + 1,
                svm_result.trace.records[r].z_delta_sq,
                logistic.trace.records[r].z_delta_sq,
                ridge.trace.records[r].z_delta_sq);
  }
  return 0;
}
