// Privacy-preserving generalized linear models over horizontal partitions.
//
// The paper presents SVMs as "the typical machine learning problem" of its
// framework (§I) — the decompose-into-Map, secure-average-in-Reduce recipe
// is model-agnostic. This module instantiates it for two more learners the
// related work discusses:
//
//   * ridge regression — local step has a CLOSED FORM (one Cholesky per
//     learner, cached);
//   * L2-regularized logistic regression (cf. the paper's ref. [7],
//     Chaudhuri & Monteleoni) — local step is a few warm-started Newton
//     iterations on the smooth local objective plus the ADMM prox term.
//
// Both reuse the AveragingCoordinator, the secure summation protocol, the
// MapReduce adapter and the cluster facades unchanged.
#pragma once

#include "core/consensus.h"
#include "core/linear_horizontal.h"  // AveragingCoordinator
#include "data/partition.h"
#include "linalg/cholesky.h"
#include "svm/model.h"

namespace ppml::core {

struct GlmParams {
  double regularization = 1e-2;  ///< lambda of the global objective
  /// ADMM and protocol settings (rho, rounds, masking, topology, ...).
  /// GLM defaults: rho = 10, 50 iterations; the rest as AdmmParams.
  AdmmParams admm = {.rho = 10.0, .max_iterations = 50};
};

/// Newton iterations per round in the logistic learners (the horizontal
/// local step and the vertical prox sweeps).
inline constexpr std::size_t kGlmNewtonSteps = 5;

/// Ridge learner: targets may be arbitrary reals (regression) or +/-1
/// (least-squares classification).
class RidgeHorizontalLearner final : public ConsensusLearner {
 public:
  RidgeHorizontalLearner(linalg::Matrix x, Vector targets,
                         std::size_t num_learners, const GlmParams& params);

  std::size_t contribution_dim() const override { return features_ + 1; }
  Vector local_step(const Vector& broadcast) override;

 private:
  linalg::Matrix x_;
  Vector targets_;
  std::size_t features_;
  double rho_;
  std::unique_ptr<linalg::Cholesky> factor_;  // of the (k+1)x(k+1) normal eq.
  Vector xty_;     // A^T y precomputed (k+1)
  Vector gamma_;   // k+1 residual (weights + bias jointly)
  Vector theta_;   // [w; b]
  bool have_step_ = false;
};

/// Logistic learner: labels must be +/-1.
class LogisticHorizontalLearner final : public ConsensusLearner {
 public:
  LogisticHorizontalLearner(data::Dataset shard, std::size_t num_learners,
                            const GlmParams& params);

  std::size_t contribution_dim() const override { return features_ + 1; }
  Vector local_step(const Vector& broadcast) override;

 private:
  data::Dataset shard_;
  std::size_t m_;
  std::size_t features_;
  double lambda_;
  double rho_;
  Vector gamma_;
  Vector theta_;  // [w; b], warm start across rounds
  bool have_step_ = false;
};

struct GlmHorizontalResult {
  svm::LinearModel model;  ///< consensus [w; b]
  ConvergenceTrace trace;  ///< z_delta per round; accuracy when classifying
  ConsensusRunResult run;
};

/// Ridge over a labeled partition (targets = labels; sign() classifies).
GlmHorizontalResult train_ridge_horizontal(
    const data::HorizontalPartition& partition, const GlmParams& params,
    const data::Dataset* test = nullptr);

/// Logistic regression over a labeled partition.
GlmHorizontalResult train_logistic_horizontal(
    const data::HorizontalPartition& partition, const GlmParams& params,
    const data::Dataset* test = nullptr);

/// Centralized references (used by tests to verify consensus convergence).
svm::LinearModel centralized_ridge(const data::Dataset& dataset,
                                   double regularization);
svm::LinearModel centralized_logistic(const data::Dataset& dataset,
                                      double regularization,
                                      std::size_t newton_steps = 50);

}  // namespace ppml::core
