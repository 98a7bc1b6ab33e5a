// Generalized linear models over VERTICAL partitions.
//
// The sharing-ADMM learner side (ridge step on each feature block — see
// vertical.h) is loss-agnostic; only the reducer's proximal step knows the
// loss. This module supplies coordinators for two more losses:
//
//   squared  (ridge / least-squares classification) — the prox has a
//            CLOSED FORM: b = mean(t) - mean(q), then coordinatewise blend;
//   logistic — alternating scalar-Newton prox (each zeta_i given b is a
//            1-D smooth problem; b given zeta is 1-D too).
//
// Reuses LinearVerticalLearner / KernelVerticalLearner unchanged.
#pragma once

#include "core/glm_horizontal.h"  // GlmParams
#include "core/vertical.h"

namespace ppml::core {

/// Reduce() side for the squared loss:
///   min_z,b  1/2 sum_i (t_i - zeta_i - b)^2 + rho/(2M) ||zeta - q||^2.
class RidgeVerticalCoordinator final : public ConsensusCoordinator {
 public:
  RidgeVerticalCoordinator(Vector targets, std::size_t num_learners,
                           const GlmParams& params);

  Vector combine(const Vector& average) override;
  double last_delta_sq() const override { return delta_sq_; }

  double bias() const noexcept { return b_; }
  const Vector& zeta() const noexcept { return zeta_; }

 private:
  Vector targets_;
  std::size_t m_;
  double rho_;
  Vector u_;
  Vector zeta_;
  double b_ = 0.0;
  double delta_sq_ = 0.0;
};

/// Reduce() side for the logistic loss:
///   min_z,b  sum_i log(1 + exp(-y_i (zeta_i + b))) + rho/(2M) ||zeta-q||^2.
class LogisticVerticalCoordinator final : public ConsensusCoordinator {
 public:
  LogisticVerticalCoordinator(Vector labels, std::size_t num_learners,
                              const GlmParams& params);

  Vector combine(const Vector& average) override;
  double last_delta_sq() const override { return delta_sq_; }

  double bias() const noexcept { return b_; }
  const Vector& zeta() const noexcept { return zeta_; }

 private:
  Vector y_;
  std::size_t m_;
  double rho_;
  Vector u_;
  Vector zeta_;
  double b_ = 0.0;
  double delta_sq_ = 0.0;
};

struct GlmVerticalResult {
  VerticalLinearModelView model;
  ConvergenceTrace trace;
  ConsensusRunResult run;
};

GlmVerticalResult train_ridge_vertical(const data::VerticalPartition& partition,
                                       const GlmParams& params,
                                       const data::Dataset* test = nullptr);

GlmVerticalResult train_logistic_vertical(
    const data::VerticalPartition& partition, const GlmParams& params,
    const data::Dataset* test = nullptr);

}  // namespace ppml::core
