// Unblocked, single-threaded reference products for the blocked
// linalg::gemm / gemm_nt / syrk paths. The blocked products must match them
// bit for bit at every tile, thread and ISA setting (linalg_test,
// microkernel_test).
#pragma once

#include "linalg/blas.h"

namespace ppml::linalg {

/// C = A * B, ikj order: each C row accumulates a_ik * B[k] in ascending k.
inline Matrix gemm_naive(const Matrix& a, const Matrix& b) {
  PPML_CHECK(a.cols() == b.rows(), "gemm: inner dimension mismatch");
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    auto crow = c.row(i);
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      axpy(aik, b.row(k), crow);
    }
  }
  return c;
}

/// C = A * B^T, one dot() per element.
inline Matrix gemm_nt_naive(const Matrix& a, const Matrix& b) {
  PPML_CHECK(a.cols() == b.cols(), "gemm_nt: inner dimension mismatch");
  Matrix c(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.rows(); ++j)
      c(i, j) = dot(a.row(i), b.row(j));
  return c;
}

}  // namespace ppml::linalg
