#include "linalg/cholesky.h"

#include <algorithm>
#include <cmath>

#include "linalg/microkernel.h"

namespace ppml::linalg {

namespace {
// The trailing update is a rank-kPanel update, and the scratch holds kPanel
// coefficients per trailing row.
constexpr std::size_t kPanel = Cholesky::kPanelRows;
// Columns per block of the trailing update. The kPanel x kColBlock slab of
// panel rows (32 KiB) stays cache-resident while every trailing row streams
// its segment of the block past it.
constexpr std::size_t kColBlock = 128;

// Solves U^T y = b in place (U^T = L lower triangular). Column-oriented:
// once x[j] is final, x[j+1..n) += (-x[j]) * U[j][j+1..n) — so x[i] sees
// b[i] - L(i,0)x[0] - L(i,1)x[1] - ... in ascending j, then / L(i,i),
// exactly the row-oriented loop's sequence. Blocks of kPanel columns are
// finished with scalar axpys and then pushed to the rest of x with one
// rank_update.
void forward_substitute(const Matrix& u, Vector& x) {
  const std::size_t n = u.rows();
  const double* ud = u.data().data();
  const Microkernels& mk = microkernels();
  double coef[kPanel] = {};
  for (std::size_t j0 = 0; j0 < n; j0 += kPanel) {
    const std::size_t j1 = std::min(j0 + kPanel, n);
    for (std::size_t j = j0; j < j1; ++j) {
      const double* row = ud + j * n;
      x[j] = x[j] / row[j];
      const double neg = -x[j];
      for (std::size_t i = j + 1; i < j1; ++i) x[i] += neg * row[i];
      coef[j - j0] = neg;
    }
    if (j1 < n) mk.rank_update(coef, ud + j0 * n + j1, n, j1 - j0, &x[j1], n - j1);
  }
}

// Solves U x = y in place: a contiguous dot over row ii of U. It stays one
// scalar chain per row because the subtraction order is fixed (ascending j).
void backward_substitute(const Matrix& u, Vector& x) {
  const std::size_t n = u.rows();
  for (std::size_t ii = n; ii-- > 0;) {
    const double* row = u.data().data() + ii * n;
    double acc = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= row[j] * x[j];
    x[ii] = acc / row[ii];
  }
}
}  // namespace

Cholesky::Cholesky(const Matrix& a) {
  PPML_CHECK(a.rows() == a.cols(), "Cholesky: matrix not square");
  const std::size_t n = a.rows();
  u_ = Matrix(n, n);
  double* u = u_.data().data();
  // U starts as A's lower triangle, transposed, copied in tiles; the same
  // pass checks each off-diagonal pair against the upper triangle.
  for (std::size_t i = 0; i < n; ++i) u[i * n + i] = a(i, i);
  for (std::size_t i0 = 0; i0 < n; i0 += kPanel) {
    const std::size_t i1 = std::min(i0 + kPanel, n);
    for (std::size_t j0 = 0; j0 < i1; j0 += kPanel) {
      for (std::size_t i = i0; i < i1; ++i) {
        for (std::size_t j = j0; j < std::min(j0 + kPanel, i); ++j) {
          const double upper = a(j, i);
          PPML_CHECK(std::abs(upper - a(i, j)) <= 1e-8 * (1.0 + std::abs(upper)),
                     "Cholesky: matrix not symmetric");
          u[j * n + i] = a(i, j);
        }
      }
    }
  }

  // Right-looking and blocked. Row r of U receives the update
  // U[r][r..n) += (-U[k][r]) * U[k][r..n) from every finished row k < r in
  // ascending k, then is finished: U[r][r] = sqrt(U[r][r]) and
  // U[r][r+1..n) /= U[r][r]. Since y + (-a)*x == y - a*x bitwise, element
  // (r, c) computes a(c, r) - L(c,0)L(r,0) - L(c,1)L(r,1) - ... then
  // / L(r,r), the Crout loop's exact sequence.
  const Microkernels& mk = microkernels();
  std::vector<double> coef(kPanel * n);  // -U[k0..k1)[r] for each row r
  for (std::size_t k0 = 0; k0 < n; k0 += kPanel) {
    const std::size_t k1 = std::min(k0 + kPanel, n);
    const std::size_t kk = k1 - k0;
    const double* panel = u + k0 * n;
    // Panel: row r takes the updates of panel rows k0..r-1, then finishes.
    for (std::size_t r = k0; r < k1; ++r) {
      double* row = u + r * n;
      for (std::size_t p = 0; p < r - k0; ++p) coef[p] = -panel[p * n + r];
      mk.rank_update(coef.data(), panel + r, n, r - k0, row + r, n - r);
      const double diag = row[r];
      if (!(diag > 0.0)) {
        throw NumericError("Cholesky: matrix is not positive definite (pivot " +
                           std::to_string(diag) + " at column " +
                           std::to_string(r) + ")");
      }
      const double ujj = std::sqrt(diag);
      row[r] = ujj;
      for (std::size_t c = r + 1; c < n; ++c) row[c] = row[c] / ujj;
    }
    // Trailing rows r >= k1 take the rank-kk update of the finished panel,
    // column block by column block.
    for (std::size_t p = 0; p < kk; ++p)
      for (std::size_t r = k1; r < n; ++r)
        coef[(r - k1) * kk + p] = -panel[p * n + r];
    for (std::size_t c0 = k1; c0 < n; c0 += kColBlock) {
      const std::size_t c1 = std::min(c0 + kColBlock, n);
      for (std::size_t r = k1; r < c1; ++r) {
        const std::size_t cs = std::max(r, c0);
        mk.rank_update(&coef[(r - k1) * kk], panel + cs, n, kk, u + r * n + cs,
                       c1 - cs);
      }
    }
  }
}

Vector Cholesky::solve(std::span<const double> b) const {
  PPML_CHECK(b.size() == dim(), "Cholesky::solve: rhs size mismatch");
  Vector x(b.begin(), b.end());
  forward_substitute(u_, x);
  backward_substitute(u_, x);
  return x;
}

Matrix Cholesky::solve(const Matrix& b) const {
  PPML_CHECK(b.rows() == dim(), "Cholesky::solve: rhs rows mismatch");
  Matrix x(b.rows(), b.cols());
  for (std::size_t j = 0; j < b.cols(); ++j) {
    Vector column = solve(b.col(j));
    for (std::size_t i = 0; i < b.rows(); ++i) x(i, j) = column[i];
  }
  return x;
}

Matrix Cholesky::inverse() const { return solve(Matrix::identity(dim())); }

double Cholesky::log_det() const {
  double acc = 0.0;
  for (std::size_t i = 0; i < dim(); ++i) acc += std::log(u_(i, i));
  return 2.0 * acc;
}

Vector solve_spd(const Matrix& a, std::span<const double> b) {
  return Cholesky(a).solve(b);
}

Matrix woodbury_small_inverse(const Matrix& kgg, double c) {
  PPML_CHECK(kgg.rows() == kgg.cols(), "woodbury: Kgg must be square");
  Matrix m = kgg;
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] *= c;
  for (std::size_t i = 0; i < m.rows(); ++i) m(i, i) += 1.0;
  return Cholesky(m).inverse();
}

}  // namespace ppml::linalg
