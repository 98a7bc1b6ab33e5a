// Nonlinear (kernel) SVM over horizontally partitioned data (paper §IV-B).
//
// The learners cannot exchange w_m — it lives in the implicit RKHS (for RBF
// it is infinite-dimensional). The paper's trick: agree on a PUBLIC random
// landmark set Xg (l x k) and reach consensus only on the projection
// G w_m = z in R^l, where G = phi(Xg). Everything is evaluated with kernel
// tricks against K(Xg, .) and the Woodbury identity (paper eq. (20));
// DESIGN.md §2.2 carries the full derivation, including the simplification
// I - rho*M*D*Kgg = D with D = (I + rho*M*Kgg)^{-1} that this file uses.
//
// The resulting discriminant is exactly the representer form of
// paper Lemma 4.4 / eq. (17): training-point terms plus landmark terms.
#pragma once

#include "core/consensus.h"
#include "core/linear_horizontal.h"  // AveragingCoordinator
#include "data/partition.h"
#include "qp/box_qp.h"
#include "svm/model.h"

namespace ppml::core {

/// Draw the public landmark matrix Xg: l rows sampled uniformly in the
/// bounding box of a reference shard (random — contains NO training row;
/// the paper only requires K(Xg, Xg) be non-singular).
linalg::Matrix sample_landmarks(const linalg::Matrix& reference,
                                std::size_t count, std::uint64_t seed);

class KernelHorizontalLearner final : public ConsensusLearner {
 public:
  /// All learners must receive the same `landmarks` (they are public).
  KernelHorizontalLearner(data::Dataset shard, linalg::Matrix landmarks,
                          svm::Kernel kernel, std::size_t num_learners,
                          const AdmmParams& params);

  std::size_t contribution_dim() const override { return landmarks_.rows() + 1; }
  Vector local_step(const Vector& broadcast) override;

  /// The learner's discriminant after its latest step (paper eq. (25)):
  /// a KernelModel over [X_m ; Xg].
  svm::KernelModel build_model() const;

  /// Expansion coefficients of the discriminant without materializing the
  /// model: `a` on the learner's own points, `c` on the landmarks, plus the
  /// local bias. The test trace records them each round and scores them
  /// after the run (core/kernel_trace.h).
  void expansion(Vector& a, Vector& c, double& bias) const;

  const Vector& lambda() const noexcept { return lambda_; }
  const linalg::Matrix& landmarks() const noexcept { return landmarks_; }
  const linalg::Matrix& shard_x() const noexcept { return shard_.x; }

 private:
  data::Dataset shard_;
  linalg::Matrix landmarks_;  // Xg, public
  svm::Kernel kernel_;
  std::size_t m_;
  double c_;
  double rho_;
  std::size_t l_;  // landmark count

  linalg::Matrix kxg_;   // K(X_m, Xg)              (n x l)
  linalg::Matrix kgg_;   // K(Xg, Xg)               (l x l)
  linalg::Matrix d_;     // (I + rho M Kgg)^{-1}    (l x l)
  linalg::Matrix kxgd_;  // Kxg * D                 (n x l)

  qp::Options qp_options_;
  std::unique_ptr<qp::BoxQpSolver> solver_;

  Vector r_;      // l-dim residual for Gw
  double beta_ = 0.0;
  Vector gw_;     // stored G w_m (l)
  double b_ = 0.0;
  Vector lambda_;
  Vector v_;      // last v = z - r used (for model building)
  bool have_step_ = false;
};

struct KernelHorizontalResult {
  svm::KernelModel model;  ///< learner 0's discriminant (the paper plots
                           ///< learner 1 of M; all are similar)
  ConvergenceTrace trace;
  ConsensusRunResult run;
};

KernelHorizontalResult train_kernel_horizontal(
    const data::HorizontalPartition& partition, const svm::Kernel& kernel,
    const AdmmParams& params, const data::Dataset* test = nullptr);

}  // namespace ppml::core
