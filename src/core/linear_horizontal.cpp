#include "core/linear_horizontal.h"

#include "core/consensus_engine.h"

#include <utility>

#include "linalg/blas.h"
#include "svm/metrics.h"

namespace ppml::core {

namespace {

/// Q = a * Y X X^T Y + (1/rho) * (Yy)(Yy)^T with (Y1)_i = y_i.
linalg::Matrix build_dual_q(const data::Dataset& shard, double a, double rho) {
  const std::size_t n = shard.size();
  linalg::Matrix q = linalg::gram_a_at(shard.x);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      q(i, j) = a * shard.y[i] * shard.y[j] * q(i, j) +
                shard.y[i] * shard.y[j] / rho;
  return q;
}

}  // namespace

LinearHorizontalLearner::LinearHorizontalLearner(data::Dataset shard,
                                                 std::size_t num_learners,
                                                 const AdmmParams& params)
    : shard_(std::move(shard)),
      m_(num_learners),
      features_(shard_.features()),
      c_(params.c),
      rho_(params.rho),
      a_(static_cast<double>(num_learners) /
         (1.0 + params.rho * static_cast<double>(num_learners))),
      dense_q_row_limit_(params.dense_q_row_limit) {
  PPML_CHECK(num_learners >= 2, "LinearHorizontalLearner: need M >= 2");
  PPML_CHECK(params.c > 0.0 && params.rho > 0.0,
             "LinearHorizontalLearner: C and rho must be positive");
  shard_.validate();
  qp_options_.tolerance = params.qp_tolerance;
  qp_options_.max_iterations = params.qp_max_sweeps;
  rebuild_solver();
  gamma_.assign(features_, 0.0);
  w_.assign(features_, 0.0);
  lambda_.assign(shard_.size(), 0.0);
}

void LinearHorizontalLearner::rebuild_solver() {
  if (shard_.size() <= dense_q_row_limit_) {
    factored_solver_.reset();
    dense_solver_.emplace(build_dual_q(shard_, a_, rho_), 0.0, c_);
  } else {
    // HIGGS-scale shard: never form the n x n Q. Same dual, written as
    // Q = a (YX)(YX)^T + (1/rho) y y^T and solved through the implicit
    // factorization (O(nk) per sweep instead of O(n^2)).
    dense_solver_.reset();
    factored_solver_.emplace(shard_.x, shard_.y, a_, 1.0 / rho_, 0.0, c_);
  }
}

qp::Result LinearHorizontalLearner::solve_dual(const Vector& p) {
  if (dense_solver_) return dense_solver_->solve(p, lambda_, qp_options_);
  return factored_solver_->solve(p, lambda_, qp_options_);
}

void LinearHorizontalLearner::on_cohort_resize(std::size_t live_learners) {
  PPML_CHECK(live_learners >= 2,
             "LinearHorizontalLearner: cohort must keep >= 2 learners");
  if (live_learners == m_) return;
  m_ = live_learners;
  a_ = static_cast<double>(m_) / (1.0 + rho_ * static_cast<double>(m_));
  rebuild_solver();
}

Vector LinearHorizontalLearner::local_step(const Vector& broadcast) {
  const std::size_t n = shard_.size();

  // Absorb the previous consensus: residual (dual) updates, eq. (13c/13f).
  Vector z(features_, 0.0);
  double s = 0.0;
  if (!broadcast.empty()) {
    PPML_CHECK(broadcast.size() == features_ + 1,
               "LinearHorizontalLearner: bad broadcast size");
    std::copy(broadcast.begin(), broadcast.begin() + features_, z.begin());
    s = broadcast[features_];
    if (have_step_) {
      for (std::size_t j = 0; j < features_; ++j) gamma_[j] += w_[j] - z[j];
      beta_ += b_ - s;
    }
  }

  // v = z - gamma, u = s - beta.
  Vector v = linalg::sub(z, gamma_);
  const double u = s - beta_;

  // Linear term: p_i = 1 - a*rho*y_i <x_i, v> - u*y_i. The <x_i, v> values
  // come from one gemv over the shard (microkernel row-batched; each row's
  // accumulation order matches the scalar dot, so p is bit-identical to the
  // per-row formulation this replaces).
  const Vector xv = linalg::gemv(shard_.x, v);
  Vector p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = 1.0 - a_ * rho_ * shard_.y[i] * xv[i] - u * shard_.y[i];
  }

  const qp::Result solved = solve_dual(p);
  lambda_ = solved.x;
  last_objective_ = solved.objective;

  // w_m = a (X^T Y lambda + rho v)     (paper eq. (13a))
  Vector xtyl(features_, 0.0);
  double y_dot_lambda = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double coeff = lambda_[i] * shard_.y[i];
    y_dot_lambda += coeff;
    if (coeff != 0.0) linalg::axpy(coeff, shard_.x.row(i), xtyl);
  }
  for (std::size_t j = 0; j < features_; ++j)
    w_[j] = a_ * (xtyl[j] + rho_ * v[j]);
  // b_m = u + (1/rho) 1^T Y lambda    (paper eq. (13d))
  b_ = u + y_dot_lambda / rho_;
  have_step_ = true;

  // Contribution (w_m + gamma_m, b_m + beta_m): averaging these yields the
  // z/s updates of eq. (13b)/(13e) exactly.
  Vector contribution(features_ + 1);
  for (std::size_t j = 0; j < features_; ++j)
    contribution[j] = w_[j] + gamma_[j];
  contribution[features_] = b_ + beta_;
  return contribution;
}

AveragingCoordinator::AveragingCoordinator(std::size_t consensus_dim)
    : consensus_dim_(consensus_dim), state_(consensus_dim, 0.0) {
  PPML_CHECK(consensus_dim >= 2, "AveragingCoordinator: dim must be >= 2");
}

Vector AveragingCoordinator::combine(const Vector& average) {
  PPML_CHECK(average.size() == consensus_dim_,
             "AveragingCoordinator: average size mismatch");
  // Convergence is measured on the weight part only (the paper plots
  // ||z^{t+1} - z^t||^2, with the bias consensus s tracked separately).
  double delta = 0.0;
  for (std::size_t j = 0; j + 1 < consensus_dim_; ++j) {
    const double d = average[j] - state_[j];
    delta += d * d;
  }
  delta_sq_ = delta;
  state_ = average;
  return state_;
}

Vector AveragingCoordinator::z() const {
  return Vector(state_.begin(), state_.end() - 1);
}

double AveragingCoordinator::s() const { return state_.back(); }

LinearHorizontalResult train_linear_horizontal(
    const data::HorizontalPartition& partition, const AdmmParams& params,
    const data::Dataset* test) {
  PPML_CHECK(partition.learners() >= 2,
             "train_linear_horizontal: need >= 2 learners");
  const std::size_t m = partition.learners();
  const std::size_t k = partition.shards.front().features();

  std::vector<std::shared_ptr<ConsensusLearner>> learners;
  learners.reserve(m);
  for (const data::Dataset& shard : partition.shards) {
    PPML_CHECK(shard.features() == k,
               "train_linear_horizontal: shard widths differ");
    learners.push_back(
        std::make_shared<LinearHorizontalLearner>(shard, m, params));
  }
  AveragingCoordinator coordinator(k + 1);

  LinearHorizontalResult result;
  const RoundObserver observer = [&](std::size_t iteration) {
    IterationRecord record;
    record.iteration = iteration;
    record.z_delta_sq = coordinator.last_delta_sq();
    if (test != nullptr) {
      svm::LinearModel snapshot{coordinator.z(), coordinator.s()};
      record.test_accuracy =
          svm::accuracy(snapshot.predict_all(test->x), test->y);
    }
    result.trace.records.push_back(record);
  };

  InMemoryTransport transport;
  result.run =
      ConsensusEngine(learners, coordinator, params).run(transport, observer);
  result.model = svm::LinearModel{coordinator.z(), coordinator.s()};
  return result;
}

}  // namespace ppml::core
