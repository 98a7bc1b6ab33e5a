#include "core/glm_vertical.h"

#include "core/consensus_engine.h"

#include <cmath>

#include "svm/metrics.h"

namespace ppml::core {

namespace {

/// Shared plumbing for the vertical coordinators: q = M(cbar + u);
/// afterwards u += cbar - zbar and broadcast = zbar - cbar - u.
Vector finish_round(const Vector& cbar, const Vector& zeta_new, double mm,
                    Vector& u, Vector& zeta, double& delta_sq) {
  const std::size_t n = cbar.size();
  delta_sq = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = zeta_new[i] - zeta[i];
    delta_sq += d * d;
  }
  zeta = zeta_new;
  Vector broadcast(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double zbar = zeta[i] / mm;
    u[i] += cbar[i] - zbar;
    broadcast[i] = zbar - cbar[i] - u[i];
  }
  return broadcast;
}

}  // namespace

RidgeVerticalCoordinator::RidgeVerticalCoordinator(Vector targets,
                                                   std::size_t num_learners,
                                                   const GlmParams& params)
    : targets_(std::move(targets)), m_(num_learners), rho_(params.admm.rho) {
  PPML_CHECK(num_learners >= 2, "RidgeVerticalCoordinator: need M >= 2");
  PPML_CHECK(!targets_.empty(), "RidgeVerticalCoordinator: empty targets");
  PPML_CHECK(rho_ > 0.0, "RidgeVerticalCoordinator: rho must be positive");
  u_.assign(targets_.size(), 0.0);
  zeta_.assign(targets_.size(), 0.0);
}

Vector RidgeVerticalCoordinator::combine(const Vector& average) {
  const std::size_t n = targets_.size();
  PPML_CHECK(average.size() == n, "RidgeVerticalCoordinator: bad size");
  const double mm = static_cast<double>(m_);
  const double kappa = rho_ / mm;

  // q = M (cbar + u); closed-form prox (see header):
  //   b = mean(t) - mean(q);  zeta_i = (t_i - b + kappa q_i) / (1 + kappa).
  double t_mean = 0.0;
  double q_mean = 0.0;
  Vector q(n);
  for (std::size_t i = 0; i < n; ++i) {
    q[i] = mm * (average[i] + u_[i]);
    t_mean += targets_[i];
    q_mean += q[i];
  }
  t_mean /= static_cast<double>(n);
  q_mean /= static_cast<double>(n);
  b_ = t_mean - q_mean;

  Vector zeta_new(n);
  for (std::size_t i = 0; i < n; ++i)
    zeta_new[i] = (targets_[i] - b_ + kappa * q[i]) / (1.0 + kappa);
  return finish_round(average, zeta_new, mm, u_, zeta_, delta_sq_);
}

LogisticVerticalCoordinator::LogisticVerticalCoordinator(
    Vector labels, std::size_t num_learners, const GlmParams& params)
    : y_(std::move(labels)),
      m_(num_learners),
      rho_(params.admm.rho) {
  PPML_CHECK(num_learners >= 2, "LogisticVerticalCoordinator: need M >= 2");
  PPML_CHECK(!y_.empty(), "LogisticVerticalCoordinator: empty labels");
  for (double label : y_)
    PPML_CHECK(label == 1.0 || label == -1.0,
               "LogisticVerticalCoordinator: labels must be +/-1");
  PPML_CHECK(rho_ > 0.0, "LogisticVerticalCoordinator: rho must be positive");
  u_.assign(y_.size(), 0.0);
  zeta_.assign(y_.size(), 0.0);
}

Vector LogisticVerticalCoordinator::combine(const Vector& average) {
  const std::size_t n = y_.size();
  PPML_CHECK(average.size() == n, "LogisticVerticalCoordinator: bad size");
  const double mm = static_cast<double>(m_);
  const double kappa = rho_ / mm;

  Vector q(n);
  for (std::size_t i = 0; i < n; ++i) q[i] = mm * (average[i] + u_[i]);

  // Alternating scalar Newton on
  //   sum_i log1p(exp(-y_i (zeta_i + b))) + kappa/2 (zeta_i - q_i)^2.
  Vector zeta_new = zeta_;  // warm start from the previous round
  double b = b_;
  const auto sigma = [](double t) { return 1.0 / (1.0 + std::exp(-t)); };
  for (std::size_t sweep = 0; sweep < kGlmNewtonSteps; ++sweep) {
    // zeta_i given b (independent 1-D problems, 2 Newton steps each).
    for (std::size_t i = 0; i < n; ++i) {
      for (int step = 0; step < 2; ++step) {
        const double p = sigma(-y_[i] * (zeta_new[i] + b));
        const double g = -y_[i] * p + kappa * (zeta_new[i] - q[i]);
        const double h = p * (1.0 - p) + kappa;
        zeta_new[i] -= g / h;
      }
    }
    // b given zeta (1-D, 2 Newton steps).
    for (int step = 0; step < 2; ++step) {
      double g = 0.0;
      double h = 1e-10;
      for (std::size_t i = 0; i < n; ++i) {
        const double p = sigma(-y_[i] * (zeta_new[i] + b));
        g += -y_[i] * p;
        h += p * (1.0 - p);
      }
      b -= g / h;
    }
  }
  b_ = b;
  return finish_round(average, zeta_new, mm, u_, zeta_, delta_sq_);
}

namespace {

GlmVerticalResult run_vertical_glm(const data::VerticalPartition& partition,
                                   const GlmParams& params,
                                   ConsensusCoordinator& coordinator,
                                   const std::function<double()>& bias,
                                   const data::Dataset* test) {
  PPML_CHECK(test == nullptr ||
                 test->features() >= required_width(partition.feature_indices),
             "vertical GLM: test set narrower than the partition");
  const std::size_t m = partition.learners();
  std::vector<std::shared_ptr<ConsensusLearner>> learners;
  std::vector<std::shared_ptr<LinearVerticalLearner>> typed;
  for (std::size_t i = 0; i < m; ++i) {
    auto learner = std::make_shared<LinearVerticalLearner>(partition.blocks[i],
                                                           params.admm);
    typed.push_back(learner);
    learners.push_back(learner);
  }

  GlmVerticalResult result;
  const RoundObserver observer = [&](std::size_t iteration) {
    IterationRecord record;
    record.iteration = iteration;
    record.z_delta_sq = coordinator.last_delta_sq();
    if (test != nullptr) {
      VerticalLinearModelView view;
      view.feature_indices = partition.feature_indices;
      view.b = bias();
      for (const auto& learner : typed) view.w_blocks.push_back(learner->w());
      record.test_accuracy =
          svm::accuracy(view.predict_all(test->x), test->y);
    }
    result.trace.records.push_back(record);
  };

  InMemoryTransport transport;
  result.run = ConsensusEngine(learners, coordinator, params.admm)
                   .run(transport, observer);
  result.model.feature_indices = partition.feature_indices;
  result.model.b = bias();
  for (const auto& learner : typed)
    result.model.w_blocks.push_back(learner->w());
  return result;
}

}  // namespace

GlmVerticalResult train_ridge_vertical(const data::VerticalPartition& partition,
                                       const GlmParams& params,
                                       const data::Dataset* test) {
  PPML_CHECK(partition.learners() >= 2,
             "train_ridge_vertical: need >= 2 learners");
  RidgeVerticalCoordinator coordinator(partition.y, partition.learners(),
                                       params);
  return run_vertical_glm(partition, params, coordinator,
                          [&coordinator] { return coordinator.bias(); },
                          test);
}

GlmVerticalResult train_logistic_vertical(
    const data::VerticalPartition& partition, const GlmParams& params,
    const data::Dataset* test) {
  PPML_CHECK(partition.learners() >= 2,
             "train_logistic_vertical: need >= 2 learners");
  LogisticVerticalCoordinator coordinator(partition.y, partition.learners(),
                                          params);
  return run_vertical_glm(partition, params, coordinator,
                          [&coordinator] { return coordinator.bias(); },
                          test);
}

}  // namespace ppml::core
