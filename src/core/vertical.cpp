#include "core/vertical.h"

#include "core/consensus_engine.h"
#include "core/kernel_trace.h"

#include <algorithm>
#include <optional>

#include "linalg/blas.h"
#include "qp/diagonal_qp.h"
#include "svm/metrics.h"
#include "svm/trainer.h"

namespace ppml::core {

LinearVerticalLearner::LinearVerticalLearner(linalg::Matrix block,
                                             const AdmmParams& params)
    : block_(std::move(block)), rows_(block_.rows()), rho_(params.rho) {
  PPML_CHECK(rows_ >= 1 && block_.cols() >= 1,
             "LinearVerticalLearner: empty block");
  PPML_CHECK(rho_ > 0.0, "LinearVerticalLearner: rho must be positive");
  // Factor I + rho X^T X (k_m x k_m — feature blocks are narrow).
  factor_ = std::make_unique<linalg::Cholesky>(linalg::gram_at_a(block_),
                                               rho_, 1.0);
  w_.assign(block_.cols(), 0.0);
  c_.assign(rows_, 0.0);
}

Vector LinearVerticalLearner::local_step(const Vector& broadcast) {
  // d = X w^t + (zbar - cbar - u), formed in c_ (which holds X w^t until
  // the new w overwrites it); on the cold start both terms are zero.
  Vector& d = c_;
  if (!broadcast.empty()) {
    PPML_CHECK(broadcast.size() == rows_,
               "LinearVerticalLearner: bad broadcast size");
    linalg::axpy(1.0, broadcast, d);
  }
  // w = rho (I + rho X^T X)^{-1} X^T d.
  Vector xtd = linalg::gemv_t(block_, d);
  w_ = factor_->solve(xtd);
  linalg::scale(rho_, w_);
  linalg::gemv(block_, w_, c_);
  return c_;
}

KernelVerticalLearner::KernelVerticalLearner(linalg::Matrix block,
                                             svm::Kernel kernel,
                                             const AdmmParams& params)
    : block_(std::move(block)),
      rows_(block_.rows()),
      rho_(params.rho),
      kernel_(std::move(kernel)) {
  PPML_CHECK(rho_ > 0.0, "KernelVerticalLearner: rho must be positive");
  linalg::Matrix k = svm::gram(kernel_, block_);
  k_diag_.resize(rows_);
  for (std::size_t i = 0; i < rows_; ++i) k_diag_[i] = k(i, i);
  // Factor I + rho K in K's own buffer; K stays below the diagonal.
  factor_ =
      std::make_unique<linalg::Cholesky>(std::move(k), rho_, 1.0 + 1e-10);
  alpha_.assign(rows_, 0.0);
  c_.assign(rows_, 0.0);
}

Vector KernelVerticalLearner::local_step(const Vector& broadcast) {
  Vector d = c_;
  if (!broadcast.empty()) {
    PPML_CHECK(broadcast.size() == rows_,
               "KernelVerticalLearner: bad broadcast size");
    linalg::axpy(1.0, broadcast, d);
  }
  // alpha = rho (I + rho K)^{-1} d   (push-through identity), c = K alpha.
  alpha_ = factor_->solve(d);
  linalg::scale(rho_, alpha_);
  linalg::symv_lower(factor_->packed(), k_diag_, alpha_, c_);
  return c_;
}

VerticalCoordinator::VerticalCoordinator(Vector labels,
                                         std::size_t num_learners,
                                         const AdmmParams& params)
    : m_(num_learners), rho_(params.rho), c_(params.c) {
  PPML_CHECK(num_learners >= 2, "VerticalCoordinator: need M >= 2");
  PPML_CHECK(!labels.empty(), "VerticalCoordinator: empty labels");
  for (double label : labels)
    PPML_CHECK(label == 1.0 || label == -1.0,
               "VerticalCoordinator: labels must be +/-1");
  const std::size_t n = labels.size();
  dual_.d.assign(n, static_cast<double>(m_) / rho_);
  dual_.p.resize(n);
  dual_.y = std::move(labels);
  dual_.c = c_;
  dual_.delta = 0.0;
  q_.resize(n);
  u_.assign(n, 0.0);
  zeta_.assign(n, 0.0);
}

Vector VerticalCoordinator::combine(const Vector& average) {
  const Vector& y = dual_.y;
  const std::size_t n = y.size();
  PPML_CHECK(average.size() == n, "VerticalCoordinator: bad average size");
  const double mm = static_cast<double>(m_);
  const Vector& cbar = average;

  // Hinge proximal step via its exact diagonal-QP dual (DESIGN.md §2.3):
  //   min C sum hinge(y_i (zeta_i + b)) + rho/(2M) ||zeta - q||^2,
  //   q = M (cbar + u)  =>  dual: d_i = M/rho, p_i = 1 - y_i q_i,
  //   0 <= lambda <= C, y^T lambda = 0;  zeta = q + (M/rho) Y lambda.
  for (std::size_t i = 0; i < n; ++i) {
    q_[i] = mm * (cbar[i] + u_[i]);
    dual_.p[i] = 1.0 - y[i] * q_[i];
  }
  const qp::Result& solved = qp::solve_diagonal_qp(dual_, qp_workspace_);

  // zeta moves to q + (M/rho) Y lambda in place, ||dzeta||^2 summed as
  // it goes.
  delta_sq_ = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double zeta_new = q_[i] + (mm / rho_) * y[i] * solved.x[i];
    const double d = zeta_new - zeta_[i];
    delta_sq_ += d * d;
    zeta_[i] = zeta_new;
  }
  b_ = svm::recover_bias(solved.x, y, zeta_, c_);

  // u^{k+1} = u^k + cbar - zbar;  broadcast = zbar - cbar - u^{k+1}.
  Vector broadcast(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double zbar = zeta_[i] / mm;
    u_[i] += cbar[i] - zbar;
    broadcast[i] = zbar - cbar[i] - u_[i];
  }
  return broadcast;
}

std::size_t required_width(
    const std::vector<std::vector<std::size_t>>& feature_indices) {
  std::size_t width = 0;
  for (const auto& idx : feature_indices)
    for (std::size_t j : idx) width = std::max(width, j + 1);
  return width;
}

namespace {

// The views check a row's width once per call, then score unchecked.
void check_width(const std::vector<std::vector<std::size_t>>& feature_indices,
                 std::size_t width) {
  PPML_CHECK(width >= required_width(feature_indices),
             "vertical model: feature row narrower than the model's indices");
}

double linear_decision(const VerticalLinearModelView& view,
                       std::span<const double> x_full) {
  double acc = view.b;
  for (std::size_t m = 0; m < view.w_blocks.size(); ++m) {
    const auto& idx = view.feature_indices[m];
    for (std::size_t j = 0; j < idx.size(); ++j)
      acc += view.w_blocks[m][j] * x_full[idx[j]];
  }
  return acc;
}

double kernel_decision(const VerticalKernelModelView& view,
                       std::span<const double> x_full) {
  double acc = view.b;
  std::vector<double> projected;
  for (std::size_t m = 0; m < view.train_blocks.size(); ++m) {
    const auto& idx = view.feature_indices[m];
    projected.resize(idx.size());
    for (std::size_t j = 0; j < idx.size(); ++j) projected[j] = x_full[idx[j]];
    const Vector krow =
        svm::kernel_row(view.kernel, projected, view.train_blocks[m]);
    acc += linalg::dot(krow, view.alphas[m]);
  }
  return acc;
}

template <typename View, typename Decide>
Vector predict_rows(const View& view, const linalg::Matrix& x_full,
                    Decide decide) {
  check_width(view.feature_indices, x_full.cols());
  Vector out(x_full.rows());
  for (std::size_t i = 0; i < x_full.rows(); ++i)
    out[i] = decide(view, x_full.row(i)) >= 0.0 ? 1.0 : -1.0;
  return out;
}

}  // namespace

double VerticalLinearModelView::decision_value(
    std::span<const double> x_full) const {
  check_width(feature_indices, x_full.size());
  return linear_decision(*this, x_full);
}

Vector VerticalLinearModelView::predict_all(
    const linalg::Matrix& x_full) const {
  return predict_rows(*this, x_full, linear_decision);
}

double VerticalKernelModelView::decision_value(
    std::span<const double> x_full) const {
  check_width(feature_indices, x_full.size());
  return kernel_decision(*this, x_full);
}

Vector VerticalKernelModelView::predict_all(
    const linalg::Matrix& x_full) const {
  return predict_rows(*this, x_full, kernel_decision);
}

LinearVerticalResult train_linear_vertical(
    const data::VerticalPartition& partition, const AdmmParams& params,
    const data::Dataset* test) {
  PPML_CHECK(partition.learners() >= 2,
             "train_linear_vertical: need >= 2 learners");
  PPML_CHECK(test == nullptr ||
                 test->features() >= required_width(partition.feature_indices),
             "train_linear_vertical: test set narrower than the partition");
  const std::size_t m = partition.learners();

  std::vector<std::shared_ptr<ConsensusLearner>> learners;
  std::vector<std::shared_ptr<LinearVerticalLearner>> typed;
  for (std::size_t i = 0; i < m; ++i) {
    auto learner =
        std::make_shared<LinearVerticalLearner>(partition.blocks[i], params);
    typed.push_back(learner);
    learners.push_back(learner);
  }
  VerticalCoordinator coordinator(partition.y, m, params);

  LinearVerticalResult result;
  result.model.feature_indices = partition.feature_indices;

  const RoundObserver observer = [&](std::size_t iteration) {
    IterationRecord record;
    record.iteration = iteration;
    record.z_delta_sq = coordinator.last_delta_sq();
    if (test != nullptr) {
      VerticalLinearModelView view;
      view.feature_indices = partition.feature_indices;
      view.b = coordinator.bias();
      for (const auto& learner : typed) view.w_blocks.push_back(learner->w());
      record.test_accuracy = svm::accuracy(view.predict_all(test->x), test->y);
    }
    result.trace.records.push_back(record);
  };

  InMemoryTransport transport;
  result.run =
      ConsensusEngine(learners, coordinator, params).run(transport, observer);
  for (const auto& learner : typed)
    result.model.w_blocks.push_back(learner->w());
  result.model.b = coordinator.bias();
  return result;
}

KernelVerticalResult train_kernel_vertical(
    const data::VerticalPartition& partition, const svm::Kernel& kernel,
    const AdmmParams& params, const data::Dataset* test) {
  PPML_CHECK(partition.learners() >= 2,
             "train_kernel_vertical: need >= 2 learners");
  PPML_CHECK(test == nullptr ||
                 test->features() >= required_width(partition.feature_indices),
             "train_kernel_vertical: test set narrower than the partition");
  const std::size_t m = partition.learners();

  // The test trace records each round's bias and alphas; the accuracies
  // are evaluated after the run, from one streamed kernel row per test row
  // and learner (core/kernel_trace.h).
  std::optional<KernelTestTrace> test_trace;
  if (test != nullptr) {
    std::vector<KernelTraceTerm> terms;
    for (std::size_t i = 0; i < m; ++i)
      terms.push_back({&partition.blocks[i], partition.feature_indices[i]});
    test_trace.emplace(kernel, *test, std::move(terms), params.max_iterations);
  }

  std::vector<std::shared_ptr<ConsensusLearner>> learners;
  std::vector<std::shared_ptr<KernelVerticalLearner>> typed;
  for (std::size_t i = 0; i < m; ++i) {
    auto learner = std::make_shared<KernelVerticalLearner>(
        partition.blocks[i], kernel, params);
    typed.push_back(learner);
    learners.push_back(learner);
  }
  VerticalCoordinator coordinator(partition.y, m, params);

  KernelVerticalResult result;
  std::vector<std::span<const double>> alphas(m);
  const RoundObserver observer = [&](std::size_t iteration) {
    IterationRecord record;
    record.iteration = iteration;
    record.z_delta_sq = coordinator.last_delta_sq();
    result.trace.records.push_back(record);
    if (test_trace) {
      for (std::size_t i = 0; i < m; ++i) alphas[i] = typed[i]->alpha();
      test_trace->record(coordinator.bias(), alphas);
    }
  };

  InMemoryTransport transport;
  result.run =
      ConsensusEngine(learners, coordinator, params).run(transport, observer);
  if (test_trace) test_trace->finish(result.trace.records);

  result.model.kernel = kernel;
  result.model.feature_indices = partition.feature_indices;
  result.model.b = coordinator.bias();
  for (std::size_t i = 0; i < m; ++i) {
    result.model.train_blocks.push_back(partition.blocks[i]);
    result.model.alphas.push_back(typed[i]->alpha());
  }
  return result;
}

}  // namespace ppml::core
