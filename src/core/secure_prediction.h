// Secure prediction for vertically partitioned models.
//
// Training is only half the vertical story: at TEST time a new sample's
// features are again split across the learners, and the decision value
// f(x) = sum_m <w_m, x_m> + b is a sum of per-learner partial scores —
// which are themselves sensitive (they reveal a projection of each
// learner's private feature block). This module closes the loop: partial
// scores for a batch of samples are combined with the SAME secure
// summation protocol used in training, so the querier learns only the
// final decision values.
//
// Two entry styles:
//  * the one-shot helpers below build a fresh `crypto::SecureSumSession`
//    (one DH key agreement) per call — fine for a single evaluation batch;
//  * the session-reuse overloads take a caller-owned session and a round
//    number, so a long-lived caller — `core::PredictionServer` — pays key
//    agreement ONCE and then runs one protocol round per micro-batch
//    (rounds drawn from `SecureSumSession::next_round` so no mask stream
//    is ever reused).
#pragma once

#include "core/params.h"
#include "core/vertical.h"
#include "crypto/secure_sum_session.h"

namespace ppml::core {

/// The secure-sum deployment the prediction protocol runs on: one party
/// per learner, seeded masks (key agreement paid once, no per-round mask
/// exchange), topology/bits from `protocol`.
crypto::SecureSumConfig prediction_session_config(std::size_t num_learners,
                                                  const AdmmParams& protocol);

/// Learner `m`'s private partial scores for a batch: <w_m, x_m> per row.
/// (The full-row matrix is harness assembly — in deployment learner m only
/// ever sees its own feature block of each query.)
Vector linear_partial_scores(const VerticalLinearModelView& model,
                             const linalg::Matrix& x_full, std::size_t learner);

/// Same for the additive-kernel model: sum_j alpha_j K(x_m, t_j) per row.
Vector kernel_partial_scores(const VerticalKernelModelView& model,
                             const linalg::Matrix& x_full, std::size_t learner);

/// One row of kernel_partial_scores: learner `m`'s score of one full query
/// row. PredictionServer caches exactly this value per pooled query.
double kernel_partial_score(const VerticalKernelModelView& model,
                            std::span<const double> x_full,
                            std::size_t learner);

/// One secure-sum round `round` over the per-learner partial-score vectors
/// on an existing session; adds the bias. The decoded values are
/// bit-identical for ANY round number and ANY batching of the same
/// queries: masks cancel exactly in the ring, and the fixed-point codec is
/// per-element.
Vector combine_partial_scores(crypto::SecureSumSession& session,
                              const std::vector<Vector>& partials, double bias,
                              std::size_t round);

/// Batched secure evaluation of a vertical linear model: one protocol
/// round for the whole batch. Returns decision VALUES (sign() classifies).
Vector secure_vertical_decision_values(const VerticalLinearModelView& model,
                                       const linalg::Matrix& x_full,
                                       const AdmmParams& protocol);

/// Same for the additive-kernel vertical model.
Vector secure_vertical_decision_values(const VerticalKernelModelView& model,
                                       const linalg::Matrix& x_full,
                                       const AdmmParams& protocol);

/// Session-reuse variants: evaluate on a caller-owned session (built from
/// prediction_session_config) at an explicit protocol round.
Vector secure_vertical_decision_values(const VerticalLinearModelView& model,
                                       const linalg::Matrix& x_full,
                                       crypto::SecureSumSession& session,
                                       std::size_t round);
Vector secure_vertical_decision_values(const VerticalKernelModelView& model,
                                       const linalg::Matrix& x_full,
                                       crypto::SecureSumSession& session,
                                       std::size_t round);

/// Convenience: +/-1 predictions through the secure path.
Vector secure_vertical_predict(const VerticalLinearModelView& model,
                               const linalg::Matrix& x_full,
                               const AdmmParams& protocol);
Vector secure_vertical_predict(const VerticalKernelModelView& model,
                               const linalg::Matrix& x_full,
                               const AdmmParams& protocol);

}  // namespace ppml::core
