// SVM over vertically partitioned data (paper §IV-C).
//
// Sharing-form ADMM (Boyd §7.3; the paper's eqs. (26)-(29) are this
// structure with totals instead of averages): learner m owns the feature
// block X_m and weight block w_m, the coupling variable is c_m = X_m w_m,
// and the reducer owns the hinge-loss proximal step over the aggregated
// prediction vector. Per round:
//
//   mapper  m : w_m <- argmin 1/2||w||^2 + rho/2 ||X_m w - d_m||^2,
//               d_m = X_m w_m^t + (zbar - cbar - u)   [closed form, cached
//               factor]; contributes c_m = X_m w_m.
//   reducer   : cbar = secure average of c_m; solves the hinge prox via its
//               exact diagonal-QP dual (DESIGN.md §2.3), updates zbar, u,
//               recovers the bias b from free support vectors, broadcasts
//               (zbar - cbar - u).
//
// The kernel variant (paper §IV-C last paragraph) replaces the learner's
// ridge step with its kernelized form via the push-through identity:
// alpha_m = rho (I + rho K_m)^{-1} d_m, c_m = K_m alpha_m, where K_m is the
// kernel over learner m's FEATURE SUBSET — an additive-kernel classifier.
#pragma once

#include "core/consensus.h"
#include "data/partition.h"
#include "linalg/cholesky.h"
#include "qp/diagonal_qp.h"
#include "svm/model.h"

namespace ppml::core {

/// Map() side, linear: holds X_m and the cached ridge factor.
class LinearVerticalLearner final : public ConsensusLearner {
 public:
  LinearVerticalLearner(linalg::Matrix block, const AdmmParams& params);

  std::size_t contribution_dim() const override { return rows_; }
  Vector local_step(const Vector& broadcast) override;

  const Vector& w() const noexcept { return w_; }

 private:
  linalg::Matrix block_;  // N x k_m
  std::size_t rows_;
  double rho_;
  std::unique_ptr<linalg::Cholesky> factor_;  // of I + rho X^T X  (k_m x k_m)
  Vector w_;   // k_m
  Vector c_;   // N — X_m w_m from the previous step
};

/// Map() side, kernel: same sharing step in the RKHS of the learner's
/// feature subset.
class KernelVerticalLearner final : public ConsensusLearner {
 public:
  KernelVerticalLearner(linalg::Matrix block, svm::Kernel kernel,
                        const AdmmParams& params);

  std::size_t contribution_dim() const override { return rows_; }
  Vector local_step(const Vector& broadcast) override;

  const Vector& alpha() const noexcept { return alpha_; }
  const linalg::Matrix& block() const noexcept { return block_; }
  const svm::Kernel& kernel() const noexcept { return kernel_; }

 private:
  linalg::Matrix block_;  // N x k_m
  std::size_t rows_;
  double rho_;
  svm::Kernel kernel_;
  // One N x N buffer: U = L^T of I + rho K_m on and above the diagonal, and
  // K_m (the kernel gram over the feature subset) strictly below it.
  std::unique_ptr<linalg::Cholesky> factor_;
  Vector k_diag_;  // N — K_m's diagonal, which U's displaces
  Vector alpha_;  // N
  Vector c_;      // N — K_m alpha from the previous step
};

/// Reduce() side, shared by both vertical variants. Holds the (agreed,
/// shared) labels and solves the hinge proximal step exactly. Every N-wide
/// buffer of the step is kept across rounds: the dual's constant d and y
/// are set once, its p, the prox point q and the QP workspace are refilled
/// in place.
class VerticalCoordinator final : public ConsensusCoordinator {
 public:
  VerticalCoordinator(Vector labels, std::size_t num_learners,
                      const AdmmParams& params);

  Vector combine(const Vector& average) override;
  double last_delta_sq() const override { return delta_sq_; }

  double bias() const noexcept { return b_; }
  /// The aggregated prediction vector zeta ~ sum_m X_m w_m after the hinge
  /// prox (the paper's z); used by tests.
  const Vector& zeta() const noexcept { return zeta_; }

 private:
  std::size_t m_;
  double rho_;
  double c_;
  qp::DiagonalQpProblem dual_;  // d = M/rho and y = labels, set once
  qp::DiagonalQpWorkspace qp_workspace_;
  Vector q_;     // M (cbar + u): the prox point
  Vector u_;     // scaled dual (average form)
  Vector zeta_;  // M * zbar
  double b_ = 0.0;
  double delta_sq_ = 0.0;
};

/// Columns a full feature row needs for these per-learner feature indices:
/// the largest index + 1 (0 when there are none). Every consumer of a full
/// row (trainers' test sets, the model views, secure prediction, the
/// prediction server) checks its input against it and throws
/// InvalidArgument on a narrower one.
std::size_t required_width(
    const std::vector<std::vector<std::size_t>>& feature_indices);

/// Evaluation-side model for the vertical schemes. In deployment every
/// learner keeps its own piece and test-time evaluation itself runs the
/// secure sum; this struct assembles the pieces for the benchmarking
/// harness (utility measurement only — see DESIGN.md §6).
struct VerticalLinearModelView {
  std::vector<Vector> w_blocks;  ///< per-learner weight blocks
  std::vector<std::vector<std::size_t>> feature_indices;
  double b = 0.0;

  double decision_value(std::span<const double> x_full) const;
  Vector predict_all(const linalg::Matrix& x_full) const;
};

struct VerticalKernelModelView {
  svm::Kernel kernel;
  std::vector<linalg::Matrix> train_blocks;  ///< learner feature views
  std::vector<Vector> alphas;
  std::vector<std::vector<std::size_t>> feature_indices;
  double b = 0.0;

  double decision_value(std::span<const double> x_full) const;
  Vector predict_all(const linalg::Matrix& x_full) const;
};

struct LinearVerticalResult {
  VerticalLinearModelView model;
  ConvergenceTrace trace;
  ConsensusRunResult run;
};

struct KernelVerticalResult {
  VerticalKernelModelView model;
  ConvergenceTrace trace;
  ConsensusRunResult run;
};

LinearVerticalResult train_linear_vertical(
    const data::VerticalPartition& partition, const AdmmParams& params,
    const data::Dataset* test = nullptr);

KernelVerticalResult train_kernel_vertical(
    const data::VerticalPartition& partition, const svm::Kernel& kernel,
    const AdmmParams& params, const data::Dataset* test = nullptr);

}  // namespace ppml::core
