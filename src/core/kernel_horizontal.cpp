#include "core/kernel_horizontal.h"

#include "core/consensus_engine.h"
#include "core/kernel_trace.h"

#include <optional>
#include <random>

#include "linalg/blas.h"
#include "linalg/cholesky.h"
#include "linalg/parallel.h"
#include "mapreduce/executor.h"

namespace ppml::core {

linalg::Matrix sample_landmarks(const linalg::Matrix& reference,
                                std::size_t count, std::uint64_t seed) {
  PPML_CHECK(reference.rows() >= 1 && count >= 1,
             "sample_landmarks: empty inputs");
  const std::size_t k = reference.cols();
  Vector lo(k, 0.0);
  Vector hi(k, 0.0);
  for (std::size_t j = 0; j < k; ++j) {
    lo[j] = hi[j] = reference(0, j);
    for (std::size_t i = 1; i < reference.rows(); ++i) {
      lo[j] = std::min(lo[j], reference(i, j));
      hi[j] = std::max(hi[j], reference(i, j));
    }
  }
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  linalg::Matrix landmarks(count, k);
  for (std::size_t i = 0; i < count; ++i)
    for (std::size_t j = 0; j < k; ++j)
      landmarks(i, j) = lo[j] + (hi[j] - lo[j]) * uniform(rng);
  return landmarks;
}

KernelHorizontalLearner::KernelHorizontalLearner(data::Dataset shard,
                                                 linalg::Matrix landmarks,
                                                 svm::Kernel kernel,
                                                 std::size_t num_learners,
                                                 const AdmmParams& params)
    : shard_(std::move(shard)),
      landmarks_(std::move(landmarks)),
      kernel_(kernel),
      m_(num_learners),
      c_(params.c),
      rho_(params.rho),
      l_(landmarks_.rows()) {
  PPML_CHECK(num_learners >= 2, "KernelHorizontalLearner: need M >= 2");
  PPML_CHECK(landmarks_.cols() == shard_.features(),
             "KernelHorizontalLearner: landmark width mismatch");
  shard_.validate();
  qp_options_.tolerance = params.qp_tolerance;
  qp_options_.max_iterations = params.qp_max_sweeps;

  const double rho_m = rho_ * static_cast<double>(m_);
  const std::size_t n = shard_.size();

  kxg_ = svm::cross_gram(kernel_, shard_.x, landmarks_);
  kgg_ = svm::gram(kernel_, landmarks_);
  // D = (I + rho M Kgg)^{-1} — the only inverse, l x l (Woodbury, eq. 20).
  d_ = linalg::woodbury_small_inverse(kgg_, rho_m);
  kxgd_ = linalg::gemm(kxg_, d_);

  // Q = Y [ M Kxx - rho M^2 Kxg D Kgx ] Y + (1/rho) (y)(y)^T.
  linalg::Matrix q = svm::gram(kernel_, shard_.x);
  const linalg::Matrix kxgd_kgx = linalg::gemm_nt(kxgd_, kxg_);
  const double mm = static_cast<double>(m_);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double quad = mm * q(i, j) - rho_ * mm * mm * kxgd_kgx(i, j);
      q(i, j) =
          shard_.y[i] * shard_.y[j] * (quad + 1.0 / rho_);
    }
  }
  // Guard against tiny negative curvature from the Woodbury round-trip.
  for (std::size_t i = 0; i < n; ++i) q(i, i) += 1e-10;
  solver_ = std::make_unique<qp::BoxQpSolver>(std::move(q), 0.0, params.c);

  r_.assign(l_, 0.0);
  gw_.assign(l_, 0.0);
  lambda_.assign(n, 0.0);
  v_.assign(l_, 0.0);
}

Vector KernelHorizontalLearner::local_step(const Vector& broadcast) {
  const std::size_t n = shard_.size();
  const double rho_m = rho_ * static_cast<double>(m_);
  const double mm = static_cast<double>(m_);

  Vector z(l_, 0.0);
  double s = 0.0;
  if (!broadcast.empty()) {
    PPML_CHECK(broadcast.size() == l_ + 1,
               "KernelHorizontalLearner: bad broadcast size");
    std::copy(broadcast.begin(), broadcast.begin() + l_, z.begin());
    s = broadcast[l_];
    if (have_step_) {
      for (std::size_t j = 0; j < l_; ++j) r_[j] += gw_[j] - z[j];
      beta_ += b_ - s;
    }
  }

  v_ = linalg::sub(z, r_);
  const double u = s - beta_;

  // p_i = 1 - rho M y_i (Kxg D v)_i - u y_i.
  Vector kxgd_v = linalg::gemv(kxgd_, v_);
  Vector p(n);
  for (std::size_t i = 0; i < n; ++i)
    p[i] = 1.0 - rho_m * shard_.y[i] * kxgd_v[i] - u * shard_.y[i];

  const qp::Result solved = solver_->solve(p, lambda_, qp_options_);
  lambda_ = solved.x;

  // q_g = Kgx (Y lambda);  G w = M D (q_g + rho Kgg v).
  Vector y_lambda(n);
  double y_dot_lambda = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    y_lambda[i] = lambda_[i] * shard_.y[i];
    y_dot_lambda += y_lambda[i];
  }
  Vector qg = linalg::gemv_t(kxg_, y_lambda);          // l
  Vector kggv = linalg::gemv(kgg_, v_);                // l
  Vector inner(l_);
  for (std::size_t j = 0; j < l_; ++j) inner[j] = qg[j] + rho_ * kggv[j];
  gw_ = linalg::gemv(d_, inner);
  linalg::scale(mm, gw_);
  b_ = u + y_dot_lambda / rho_;
  have_step_ = true;

  Vector contribution(l_ + 1);
  for (std::size_t j = 0; j < l_; ++j) contribution[j] = gw_[j] + r_[j];
  contribution[l_] = b_ + beta_;
  return contribution;
}

void KernelHorizontalLearner::expansion(Vector& a, Vector& c,
                                        double& bias) const {
  const std::size_t n = shard_.size();
  const double mm = static_cast<double>(m_);
  const double rho_m = rho_ * mm;
  a.resize(n);
  for (std::size_t i = 0; i < n; ++i) a[i] = mm * lambda_[i] * shard_.y[i];

  // c = rho M D (v - M q_g)   with q_g = Kgx (Y lambda).
  Vector y_lambda(n);
  for (std::size_t i = 0; i < n; ++i) y_lambda[i] = lambda_[i] * shard_.y[i];
  Vector qg = linalg::gemv_t(kxg_, y_lambda);
  Vector arg(l_);
  for (std::size_t j = 0; j < l_; ++j) arg[j] = v_[j] - mm * qg[j];
  c = linalg::gemv(d_, arg);
  linalg::scale(rho_m, c);
  bias = b_;
}

svm::KernelModel KernelHorizontalLearner::build_model() const {
  Vector a;
  Vector c;
  double bias = 0.0;
  expansion(a, c, bias);

  svm::KernelModel model;
  model.kernel = kernel_;
  model.b = bias;
  const std::size_t n = shard_.size();
  model.points.resize(n + l_, shard_.features());
  model.coeffs.resize(n + l_);
  for (std::size_t i = 0; i < n; ++i) {
    std::copy(shard_.x.row(i).begin(), shard_.x.row(i).end(),
              model.points.row(i).begin());
    model.coeffs[i] = a[i];
  }
  for (std::size_t j = 0; j < l_; ++j) {
    std::copy(landmarks_.row(j).begin(), landmarks_.row(j).end(),
              model.points.row(n + j).begin());
    model.coeffs[n + j] = c[j];
  }
  return model;
}

KernelHorizontalResult train_kernel_horizontal(
    const data::HorizontalPartition& partition, const svm::Kernel& kernel,
    const AdmmParams& params, const data::Dataset* test) {
  PPML_CHECK(partition.learners() >= 2,
             "train_kernel_horizontal: need >= 2 learners");
  const std::size_t m = partition.learners();

  // The landmark set is public and common to all learners; sample it from
  // the bounding box of learner 0's shard (any agreed box works — it never
  // contains a training row).
  const linalg::Matrix landmarks = sample_landmarks(
      partition.shards.front().x, params.landmarks, params.seed);

  // The test trace records learner 0's expansion each round; the
  // accuracies are evaluated after the run, from one streamed kernel row
  // per test row and term (core/kernel_trace.h). Landmarks come first, so
  // each decision folds as (b + p_g) + p_x: IEEE addition commutes, so
  // that is p_x + (p_g + b) bit for bit.
  std::optional<KernelTestTrace> test_trace;
  if (test != nullptr)
    test_trace.emplace(kernel, *test,
                       std::vector<KernelTraceTerm>{
                           {&landmarks, {}}, {&partition.shards.front().x, {}}},
                       params.max_iterations);

  std::vector<std::shared_ptr<ConsensusLearner>> learners;
  std::vector<std::shared_ptr<KernelHorizontalLearner>> typed;
  learners.reserve(m);
  {
    // Learner construction is Gram-matrix heavy (per-shard Kxx, Kxg, the
    // Woodbury products). Thread it through the blocked linalg kernels on
    // worker_pool() for this setup block only; the rounds below run the
    // learners themselves on that pool. Results are bit-identical with or
    // without the backend.
    const linalg::ParallelScope threaded(
        [](std::size_t n, const std::function<void(std::size_t)>& fn) {
          worker_pool().parallel_for(n, fn);
        });
    for (const data::Dataset& shard : partition.shards) {
      auto learner = std::make_shared<KernelHorizontalLearner>(
          shard, landmarks, kernel, m, params);
      typed.push_back(learner);
      learners.push_back(learner);
    }
  }
  AveragingCoordinator coordinator(params.landmarks + 1);

  KernelHorizontalResult result;
  Vector a;
  Vector c;
  const RoundObserver observer = [&](std::size_t iteration) {
    IterationRecord record;
    record.iteration = iteration;
    record.z_delta_sq = coordinator.last_delta_sq();
    result.trace.records.push_back(record);
    if (test_trace) {
      double bias = 0.0;
      typed.front()->expansion(a, c, bias);
      const std::span<const double> coefficients[] = {c, a};
      test_trace->record(bias, coefficients);
    }
  };

  InMemoryTransport transport;
  result.run =
      ConsensusEngine(learners, coordinator, params).run(transport, observer);
  if (test_trace) test_trace->finish(result.trace.records);
  result.model = typed.front()->build_model();
  return result;
}

}  // namespace ppml::core
