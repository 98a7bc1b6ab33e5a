// Symmetric positive-definite factorization and solves.
#pragma once

#include "linalg/matrix.h"

namespace ppml::linalg {

/// Cholesky factorization A = L L^T of a symmetric positive-definite matrix.
///
/// Throws NumericError if A is not (numerically) positive definite.
/// The factor is reusable for many right-hand sides — the ADMM trainers
/// factor once and solve every iteration.
///
/// Storage: the factor is kept as U = L^T, row-major upper triangular, in
/// the n x n buffer it was given, so every hot loop walks rows. The
/// factorization is a blocked right-looking one done in place (panels of
/// rows, then a rank-nb update of the trailing rows through
/// microkernels().rank_update) with O(nb * n) scratch. Each element still
/// sees the textbook Crout sequence a(i,j) - p_0 - p_1 - ... then / L(j,j),
/// in ascending k, so the factor, solves, inverse and log-det are
/// bit-identical at every ISA level to the scalar column-by-column loop
/// (pinned in linalg_test). A is read from its lower triangle only, and the
/// strict lower triangle of the buffer is left as it came in: a caller that
/// moves a symmetric matrix in keeps it readable there beside U (see
/// packed()). docs/performance.md ("Factorization") has the layout and the
/// argument.
class Cholesky {
 public:
  /// Rows per panel (nb) of the blocked factorization and per block of the
  /// forward solve.
  static constexpr std::size_t kPanelRows = 32;

  /// Factor A = scale * a + shift * I in a's own buffer. `a` must be square
  /// and symmetric (checked on the scaled values) and A positive definite.
  /// Pass an rvalue to factor without a copy.
  explicit Cholesky(Matrix a, double scale = 1.0, double shift = 0.0);

  std::size_t dim() const noexcept { return u_.rows(); }

  /// Lower-triangular factor L, as a transposed copy of the stored U = L^T
  /// with zeros above the diagonal (tests and diagnostics only; the solves
  /// never materialize it).
  Matrix l() const;

  /// The whole buffer: U = L^T in the upper triangle and on the diagonal,
  /// and in the strict lower triangle the input's, unscaled.
  const Matrix& packed() const noexcept { return u_; }

  /// Solve A x = b.
  Vector solve(std::span<const double> b) const;

  /// Solve A X = B column-by-column (B: dim x n).
  Matrix solve(const Matrix& b) const;

  /// Inverse A^{-1} (prefer solve() when possible).
  Matrix inverse() const;

  /// log det(A) = 2 * sum log L_ii.
  double log_det() const;

 private:
  Matrix u_;  // U = L^T on and above the diagonal; the input's below it
};

/// Solve the small dense SPD system (I*alpha + B) x = b via Cholesky.
/// Convenience for ridge-type solves.
Vector solve_spd(const Matrix& a, std::span<const double> b);

/// Apply the Sherman–Morrison–Woodbury identity used in the paper (eq. 20):
///   (I + c * G^T G)^{-1} = I − c * G^T (I + c * G G^T)^{-1} G
/// materialized in the *small* l x l space. Returns (I + c*Kgg)^{-1} where
/// Kgg = G G^T is supplied by the caller (computed with kernel tricks).
Matrix woodbury_small_inverse(const Matrix& kgg, double c);

}  // namespace ppml::linalg
