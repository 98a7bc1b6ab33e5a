// Centralized SVM trainers — the paper's benchmark (§VI uses "the
// centralized SVM as the benchmark").
//
// Both trainers solve the Wolfe dual (paper problem (2)) with the
// generalized SMO solver from src/qp and recover the bias from the free
// support vectors, averaging over all of them (Burges' suggestion, which
// the paper cites approvingly).
#pragma once

#include "data/dataset.h"
#include "svm/model.h"

namespace ppml::svm {

struct TrainOptions {
  double c = 1.0;              ///< slack penalty (paper uses C = 50)
  double tolerance = 1e-5;     ///< SMO KKT tolerance
  std::size_t max_iterations = 200'000;  ///< SMO pair-step budget
  /// Byte budget for the kernel-row cache used by train_kernel_svm (the
  /// dense n x n Gram is never materialized; rows are evaluated on demand).
  /// 0 = unlimited (all n rows may stay resident). The answer is identical
  /// for any budget — only row re-evaluation cost changes; see
  /// docs/performance.md.
  std::size_t kernel_cache_bytes = 64ull << 20;
};

struct TrainDiagnostics {
  std::size_t iterations = 0;
  bool converged = false;
  double dual_objective = 0.0;
  std::size_t support_vectors = 0;
};

/// Train a linear SVM on the full dataset.
LinearModel train_linear_svm(const data::Dataset& dataset,
                             const TrainOptions& options,
                             TrainDiagnostics* diagnostics = nullptr);

/// Train a kernel SVM on the full dataset. The returned model keeps only
/// rows with non-zero dual weight (the support vectors).
KernelModel train_kernel_svm(const data::Dataset& dataset,
                             const Kernel& kernel,
                             const TrainOptions& options,
                             TrainDiagnostics* diagnostics = nullptr);

/// Recover the bias b from dual variables lambda given decision values
/// without bias (f0_i = sum_j lambda_j y_j K_ij): averages y_i - f0_i over
/// free SVs; falls back to the midpoint of the KKT-feasible interval when
/// no free SV exists.
double recover_bias(std::span<const double> lambda, std::span<const double> y,
                    std::span<const double> f0, double c);

}  // namespace ppml::svm
