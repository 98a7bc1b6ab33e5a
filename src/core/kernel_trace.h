// Deferred test-accuracy trace for the kernel trainers (paper Fig. 4 e-h).
//
// A kernel discriminant here is a bias plus a sum of terms, each term a
// coefficient vector over a fixed set of expansion points:
//   f_t(x) = b_t + K(x_0, P_0) . coef_0^t + K(x_1, P_1) . coef_1^t + ...
// where x_m is the test row, or its projection onto term m's features.
// During the run the trainer records only each round's bias and
// coefficient vectors. The accuracies come after the run, one streamed
// kernel row per (test row, term), so no test-by-train matrix is kept.
//
// Bit-identity with per-round evaluation over cached cross grams:
//   - svm::kernel_row yields exactly the row svm::cross_gram stores;
//   - one rank_update from 0.0 over the N x T coefficient history adds
//     K(r,k) * coef_t[k] in ascending k for every round t, which is gemv's
//     dot_rows order, at every ISA level;
//   - each decision is folded as ((b + p_0) + p_1) + ..., in term order;
//   - a round's accuracy is correct / n, as svm::accuracy computes it.
#pragma once

#include <span>
#include <vector>

#include "core/params.h"
#include "data/dataset.h"
#include "svm/kernel.h"

namespace ppml::core {

using linalg::Vector;

/// One additive term of the discriminant.
struct KernelTraceTerm {
  const linalg::Matrix* points = nullptr;  ///< expansion points (rows)
  /// Test columns the term reads, in order; empty reads the whole row.
  std::vector<std::size_t> features;
};

class KernelTestTrace {
 public:
  /// `test` and every term's points must outlive the trace. The
  /// history holds min(max_rounds, test rows) rounds; a full history is
  /// evaluated and cleared, so it never outgrows the cross grams it
  /// replaces.
  KernelTestTrace(const svm::Kernel& kernel, const data::Dataset& test,
                  std::vector<KernelTraceTerm> terms, std::size_t max_rounds);

  /// Record one round: its bias and one coefficient vector per term, in
  /// term order.
  void record(double bias,
              std::span<const std::span<const double>> coefficients);

  /// Evaluate the rounds still pending and write every recorded round's
  /// accuracy into `records`, one record per round in order.
  void finish(std::vector<IterationRecord>& records);

 private:
  void evaluate();

  svm::Kernel kernel_;
  const data::Dataset& test_;
  std::vector<KernelTraceTerm> terms_;
  std::size_t capacity_;                   // T: rounds the history holds
  std::vector<linalg::Matrix> history_;    // per term: N_m x T
  Vector bias_;                            // T
  std::size_t pending_ = 0;                // rounds recorded, not evaluated
  std::vector<double> accuracy_;           // one per evaluated round
};

}  // namespace ppml::core
