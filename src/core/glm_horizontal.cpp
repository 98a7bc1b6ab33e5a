#include "core/glm_horizontal.h"

#include "core/consensus_engine.h"

#include <cmath>

#include "linalg/blas.h"
#include "svm/metrics.h"

namespace ppml::core {

namespace {

/// Augmented row a_i = [x_i; 1] dotted with theta = [w; b].
double affine_dot(std::span<const double> x, const Vector& theta) {
  double acc = theta.back();
  for (std::size_t j = 0; j < x.size(); ++j) acc += theta[j] * x[j];
  return acc;
}

double sigmoid(double t) { return 1.0 / (1.0 + std::exp(-t)); }

/// Newton stops early once the gradient norm is at most this.
constexpr double kNewtonTolerance = 1e-10;

/// One Newton solve for the (regularized, prox-augmented) logistic
/// objective. `rho` = 0 recovers the centralized problem. Returns the
/// final gradient norm.
double newton_logistic(const linalg::Matrix& x, const Vector& y,
                       double lambda_eff, double rho, const Vector& v,
                       std::size_t max_steps, Vector& theta) {
  const std::size_t k = x.cols();
  const std::size_t dim = k + 1;
  double gradient_norm = 0.0;
  for (std::size_t step = 0; step < max_steps; ++step) {
    Vector gradient(dim, 0.0);
    linalg::Matrix hessian(dim, dim);
    // Regularization (w only) + prox (all coordinates).
    for (std::size_t j = 0; j < k; ++j) {
      gradient[j] += lambda_eff * theta[j];
      hessian(j, j) += lambda_eff;
    }
    if (rho > 0.0) {
      for (std::size_t j = 0; j < dim; ++j) {
        gradient[j] += rho * (theta[j] - v[j]);
        hessian(j, j) += rho;
      }
    }
    // Data terms.
    for (std::size_t i = 0; i < x.rows(); ++i) {
      const double t = affine_dot(x.row(i), theta);
      const double p = sigmoid(-y[i] * t);  // d/dt log1p(exp(-y t)) = -y p
      const double s = p * (1.0 - p);
      const auto row = x.row(i);
      for (std::size_t a = 0; a < k; ++a) {
        gradient[a] += -y[i] * p * row[a];
        for (std::size_t b = a; b < k; ++b)
          hessian(a, b) += s * row[a] * row[b];
        hessian(a, k) += s * row[a];
      }
      gradient[k] += -y[i] * p;
      hessian(k, k) += s;
    }
    for (std::size_t a = 0; a < dim; ++a)
      for (std::size_t b = 0; b < a; ++b) hessian(a, b) = hessian(b, a);

    gradient_norm = linalg::norm(gradient);
    if (gradient_norm <= kNewtonTolerance) break;
    // Guard the factorization against a flat Hessian corner.
    for (std::size_t j = 0; j < dim; ++j) hessian(j, j) += 1e-10;
    const Vector delta = linalg::Cholesky(hessian).solve(gradient);
    linalg::axpy(-1.0, delta, theta);
  }
  return gradient_norm;
}

}  // namespace

RidgeHorizontalLearner::RidgeHorizontalLearner(linalg::Matrix x,
                                               Vector targets,
                                               std::size_t num_learners,
                                               const GlmParams& params)
    : x_(std::move(x)),
      targets_(std::move(targets)),
      features_(x_.cols()),
      rho_(params.admm.rho) {
  PPML_CHECK(num_learners >= 2, "RidgeHorizontalLearner: need M >= 2");
  PPML_CHECK(x_.rows() == targets_.size(),
             "RidgeHorizontalLearner: row/target mismatch");
  PPML_CHECK(params.regularization > 0.0 && params.admm.rho > 0.0,
             "RidgeHorizontalLearner: lambda and rho must be positive");
  const std::size_t dim = features_ + 1;

  // Normal matrix A^T A with A = [X 1], plus lambda/M on w and rho on all.
  linalg::Matrix normal(dim, dim);
  xty_.assign(dim, 0.0);
  for (std::size_t i = 0; i < x_.rows(); ++i) {
    const auto row = x_.row(i);
    for (std::size_t a = 0; a < features_; ++a) {
      for (std::size_t b = a; b < features_; ++b)
        normal(a, b) += row[a] * row[b];
      normal(a, features_) += row[a];
      xty_[a] += row[a] * targets_[i];
    }
    normal(features_, features_) += 1.0;
    xty_[features_] += targets_[i];
  }
  const double lambda_eff =
      params.regularization / static_cast<double>(num_learners);
  for (std::size_t j = 0; j < features_; ++j) normal(j, j) += lambda_eff;
  for (std::size_t j = 0; j < dim; ++j) normal(j, j) += rho_;
  for (std::size_t a = 0; a < dim; ++a)
    for (std::size_t b = 0; b < a; ++b) normal(a, b) = normal(b, a);
  factor_ = std::make_unique<linalg::Cholesky>(normal);

  gamma_.assign(dim, 0.0);
  theta_.assign(dim, 0.0);
}

Vector RidgeHorizontalLearner::local_step(const Vector& broadcast) {
  const std::size_t dim = features_ + 1;
  Vector z(dim, 0.0);
  if (!broadcast.empty()) {
    PPML_CHECK(broadcast.size() == dim,
               "RidgeHorizontalLearner: bad broadcast size");
    z = broadcast;
    if (have_step_) {
      for (std::size_t j = 0; j < dim; ++j) gamma_[j] += theta_[j] - z[j];
    }
  }
  Vector rhs = xty_;
  for (std::size_t j = 0; j < dim; ++j) rhs[j] += rho_ * (z[j] - gamma_[j]);
  theta_ = factor_->solve(rhs);
  have_step_ = true;
  return linalg::add(theta_, gamma_);
}

LogisticHorizontalLearner::LogisticHorizontalLearner(data::Dataset shard,
                                                     std::size_t num_learners,
                                                     const GlmParams& params)
    : shard_(std::move(shard)),
      m_(num_learners),
      features_(shard_.features()),
      lambda_(params.regularization),
      rho_(params.admm.rho) {
  PPML_CHECK(num_learners >= 2, "LogisticHorizontalLearner: need M >= 2");
  PPML_CHECK(lambda_ > 0.0 && rho_ > 0.0,
             "LogisticHorizontalLearner: lambda and rho must be positive");
  shard_.validate();
  gamma_.assign(features_ + 1, 0.0);
  theta_.assign(features_ + 1, 0.0);
}

Vector LogisticHorizontalLearner::local_step(const Vector& broadcast) {
  const std::size_t dim = features_ + 1;
  Vector z(dim, 0.0);
  if (!broadcast.empty()) {
    PPML_CHECK(broadcast.size() == dim,
               "LogisticHorizontalLearner: bad broadcast size");
    z = broadcast;
    if (have_step_) {
      for (std::size_t j = 0; j < dim; ++j) gamma_[j] += theta_[j] - z[j];
    }
  }
  const Vector v = linalg::sub(z, gamma_);
  newton_logistic(shard_.x, shard_.y, lambda_ / static_cast<double>(m_),
                  rho_, v, kGlmNewtonSteps, theta_);
  have_step_ = true;
  return linalg::add(theta_, gamma_);
}

namespace {

GlmHorizontalResult run_glm(
    std::vector<std::shared_ptr<ConsensusLearner>>& learners,
    std::size_t features, const GlmParams& params, const data::Dataset* test) {
  AveragingCoordinator coordinator(features + 1);
  GlmHorizontalResult result;
  const RoundObserver observer = [&](std::size_t iteration) {
    IterationRecord record;
    record.iteration = iteration;
    record.z_delta_sq = coordinator.last_delta_sq();
    if (test != nullptr) {
      const svm::LinearModel snapshot{coordinator.z(), coordinator.s()};
      record.test_accuracy =
          svm::accuracy(snapshot.predict_all(test->x), test->y);
    }
    result.trace.records.push_back(record);
  };
  InMemoryTransport transport;
  result.run = ConsensusEngine(learners, coordinator, params.admm)
                   .run(transport, observer);
  result.model = svm::LinearModel{coordinator.z(), coordinator.s()};
  return result;
}

}  // namespace

GlmHorizontalResult train_ridge_horizontal(
    const data::HorizontalPartition& partition, const GlmParams& params,
    const data::Dataset* test) {
  PPML_CHECK(partition.learners() >= 2,
             "train_ridge_horizontal: need >= 2 learners");
  std::vector<std::shared_ptr<ConsensusLearner>> learners;
  for (const data::Dataset& shard : partition.shards)
    learners.push_back(std::make_shared<RidgeHorizontalLearner>(
        shard.x, shard.y, partition.learners(), params));
  return run_glm(learners, partition.shards.front().features(), params, test);
}

GlmHorizontalResult train_logistic_horizontal(
    const data::HorizontalPartition& partition, const GlmParams& params,
    const data::Dataset* test) {
  PPML_CHECK(partition.learners() >= 2,
             "train_logistic_horizontal: need >= 2 learners");
  std::vector<std::shared_ptr<ConsensusLearner>> learners;
  for (const data::Dataset& shard : partition.shards)
    learners.push_back(std::make_shared<LogisticHorizontalLearner>(
        shard, partition.learners(), params));
  return run_glm(learners, partition.shards.front().features(), params, test);
}

svm::LinearModel centralized_ridge(const data::Dataset& dataset,
                                   double regularization) {
  dataset.validate();
  // Same normal equations as the learner with M = 1, rho = 0.
  const std::size_t k = dataset.features();
  const std::size_t dim = k + 1;
  linalg::Matrix normal(dim, dim);
  Vector rhs(dim, 0.0);
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const auto row = dataset.x.row(i);
    for (std::size_t a = 0; a < k; ++a) {
      for (std::size_t b = a; b < k; ++b) normal(a, b) += row[a] * row[b];
      normal(a, k) += row[a];
      rhs[a] += row[a] * dataset.y[i];
    }
    normal(k, k) += 1.0;
    rhs[k] += dataset.y[i];
  }
  for (std::size_t j = 0; j < k; ++j) normal(j, j) += regularization;
  for (std::size_t a = 0; a < dim; ++a)
    for (std::size_t b = 0; b < a; ++b) normal(a, b) = normal(b, a);
  const Vector theta = linalg::Cholesky(normal).solve(rhs);
  return svm::LinearModel{Vector(theta.begin(), theta.end() - 1),
                          theta.back()};
}

svm::LinearModel centralized_logistic(const data::Dataset& dataset,
                                      double regularization,
                                      std::size_t newton_steps) {
  dataset.validate();
  Vector theta(dataset.features() + 1, 0.0);
  const Vector no_prox(dataset.features() + 1, 0.0);  // unused at rho = 0
  newton_logistic(dataset.x, dataset.y, regularization, 0.0, no_prox,
                  newton_steps, theta);
  return svm::LinearModel{Vector(theta.begin(), theta.end() - 1),
                          theta.back()};
}

}  // namespace ppml::core
