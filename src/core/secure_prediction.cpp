#include "core/secure_prediction.h"

#include <atomic>

#include "crypto/prng.h"
#include "linalg/blas.h"
#include "svm/kernel.h"

namespace ppml::core {

namespace {

Vector to_labels(Vector decisions) {
  for (double& v : decisions) v = v >= 0.0 ? 1.0 : -1.0;
  return decisions;
}

// One-shot sessions always mask at round 0, so two one-shot calls under the
// same params would expand the same round-0 pads over different inputs —
// genuine pad reuse (the privacy ledger trips on it). A fresh nonce per
// call gives each throwaway session its own pad stream; the decoded sum is
// seed-independent (masks cancel exactly in the ring), so outputs are
// untouched.
std::uint64_t one_shot_nonce() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

crypto::SecureSumConfig one_shot_config(std::size_t num_learners,
                                        const AdmmParams& protocol) {
  crypto::SecureSumConfig config = prediction_session_config(num_learners,
                                                             protocol);
  config.protocol_seed =
      crypto::Xoshiro256(config.protocol_seed ^
                         (0x6F6E652D73686F74ULL + one_shot_nonce()))
          .next();
  return config;
}

}  // namespace

crypto::SecureSumConfig prediction_session_config(std::size_t num_learners,
                                                  const AdmmParams& protocol) {
  // Prediction always runs the seeded variant: the DH agreement is paid
  // exactly once per session regardless of the training-time mask variant.
  crypto::SecureSumConfig config;
  config.num_parties = num_learners;
  config.fixed_point_bits = protocol.fixed_point_bits;
  config.variant = crypto::MaskVariant::kSeededMasks;
  // Domain-separate from the training seed: reusing protocol_seed verbatim
  // re-derives the training session's pairwise seeds, so prediction rounds
  // would replay the training rounds' pads over different plaintexts — the
  // privacy ledger flags exactly that. The nonlinear mix keeps distinct
  // training seeds mapping to distinct prediction seeds.
  config.protocol_seed =
      crypto::Xoshiro256(protocol.protocol_seed ^ 0x7072656469637421ULL)
          .next();
  config.topology = protocol.agg_topology;
  config.group_size = protocol.agg_group_size;
  return config;
}

Vector linear_partial_scores(const VerticalLinearModelView& model,
                             const linalg::Matrix& x_full,
                             std::size_t learner) {
  const auto& idx = model.feature_indices[learner];
  Vector partial(x_full.rows(), 0.0);
  for (std::size_t i = 0; i < x_full.rows(); ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < idx.size(); ++j)
      acc += model.w_blocks[learner][j] * x_full(i, idx[j]);
    partial[i] = acc;
  }
  return partial;
}

double kernel_partial_score(const VerticalKernelModelView& model,
                            std::span<const double> x_full,
                            std::size_t learner) {
  const auto& idx = model.feature_indices[learner];
  std::vector<double> projected(idx.size());
  for (std::size_t j = 0; j < idx.size(); ++j) projected[j] = x_full[idx[j]];
  const Vector krow =
      svm::kernel_row(model.kernel, projected, model.train_blocks[learner]);
  return linalg::dot(krow, model.alphas[learner]);
}

Vector kernel_partial_scores(const VerticalKernelModelView& model,
                             const linalg::Matrix& x_full,
                             std::size_t learner) {
  Vector partial(x_full.rows(), 0.0);
  for (std::size_t i = 0; i < x_full.rows(); ++i)
    partial[i] = kernel_partial_score(model, x_full.row(i), learner);
  return partial;
}

Vector combine_partial_scores(crypto::SecureSumSession& session,
                              const std::vector<Vector>& partials, double bias,
                              std::size_t round) {
  const std::size_t m = partials.size();
  PPML_CHECK(m >= 2, "secure prediction: need >= 2 learners");
  PPML_CHECK(m == session.num_parties(),
             "secure prediction: session arity != learner count");
  const std::size_t batch = partials.front().size();
  for (const Vector& p : partials)
    PPML_CHECK(p.size() == batch, "secure prediction: batch size mismatch");

  const std::vector<crypto::SecureSumSession::Tensor> tensors(
      partials.begin(), partials.end());
  Vector decisions = session.sum_once(tensors, round);
  for (double& v : decisions) v += bias;
  return decisions;
}

Vector secure_vertical_decision_values(const VerticalLinearModelView& model,
                                       const linalg::Matrix& x_full,
                                       crypto::SecureSumSession& session,
                                       std::size_t round) {
  PPML_CHECK(x_full.cols() >= required_width(model.feature_indices),
             "secure prediction: feature rows narrower than the model");
  const std::size_t m = model.w_blocks.size();
  std::vector<Vector> partials;
  partials.reserve(m);
  for (std::size_t learner = 0; learner < m; ++learner)
    partials.push_back(linear_partial_scores(model, x_full, learner));
  return combine_partial_scores(session, partials, model.b, round);
}

Vector secure_vertical_decision_values(const VerticalKernelModelView& model,
                                       const linalg::Matrix& x_full,
                                       crypto::SecureSumSession& session,
                                       std::size_t round) {
  PPML_CHECK(x_full.cols() >= required_width(model.feature_indices),
             "secure prediction: feature rows narrower than the model");
  const std::size_t m = model.train_blocks.size();
  std::vector<Vector> partials;
  partials.reserve(m);
  for (std::size_t learner = 0; learner < m; ++learner)
    partials.push_back(kernel_partial_scores(model, x_full, learner));
  return combine_partial_scores(session, partials, model.b, round);
}

Vector secure_vertical_decision_values(const VerticalLinearModelView& model,
                                       const linalg::Matrix& x_full,
                                       const AdmmParams& protocol) {
  crypto::SecureSumSession session(
      one_shot_config(model.w_blocks.size(), protocol));
  return secure_vertical_decision_values(model, x_full, session, /*round=*/0);
}

Vector secure_vertical_decision_values(const VerticalKernelModelView& model,
                                       const linalg::Matrix& x_full,
                                       const AdmmParams& protocol) {
  crypto::SecureSumSession session(
      one_shot_config(model.train_blocks.size(), protocol));
  return secure_vertical_decision_values(model, x_full, session, /*round=*/0);
}

Vector secure_vertical_predict(const VerticalLinearModelView& model,
                               const linalg::Matrix& x_full,
                               const AdmmParams& protocol) {
  return to_labels(secure_vertical_decision_values(model, x_full, protocol));
}

Vector secure_vertical_predict(const VerticalKernelModelView& model,
                               const linalg::Matrix& x_full,
                               const AdmmParams& protocol) {
  return to_labels(secure_vertical_decision_values(model, x_full, protocol));
}

}  // namespace ppml::core
