// BLAS-like free functions over Matrix / std::span<double>.
//
// Naming loosely follows BLAS (gemv, gemm, syrk, axpy, dot, nrm2) so readers
// coming from numerical code recognize the operations immediately.
#pragma once

#include <span>

#include "linalg/matrix.h"

namespace ppml::linalg {

/// Dot product <x, y>. Sizes must match.
double dot(std::span<const double> x, std::span<const double> y);

/// Squared Euclidean norm ||x||^2.
double squared_norm(std::span<const double> x);

/// Euclidean norm ||x||.
double norm(std::span<const double> x);

/// y += alpha * x (sizes must match).
void axpy(double alpha, std::span<const double> x, std::span<double> y);

/// x *= alpha.
void scale(double alpha, std::span<double> x);

/// Squared Euclidean distance ||x - y||^2.
double squared_distance(std::span<const double> x, std::span<const double> y);

/// out = A * x  (A: m x n, x: n, out: m). out may not alias x.
void gemv(const Matrix& a, std::span<const double> x, std::span<double> out);
Vector gemv(const Matrix& a, std::span<const double> x);

/// out = K * x for a symmetric n x n K held as the strict lower triangle of
/// `a` plus the n-vector `diag` (a's diagonal and upper triangle are not
/// read). Every out[i] adds K(i,k) * x[k] in ascending k from 0.0, gemv's
/// order, so the result is bit-identical to gemv on the full K at every ISA
/// level while reading half of it. out may not alias x.
void symv_lower(const Matrix& a, std::span<const double> diag,
                std::span<const double> x, std::span<double> out);

/// out = A^T * x  (A: m x n, x: m, out: n). out may not alias x.
void gemv_t(const Matrix& a, std::span<const double> x, std::span<double> out);
Vector gemv_t(const Matrix& a, std::span<const double> x);

/// C = A * B (A: m x k, B: k x n). Blocked and, when a linalg parallel
/// backend is installed (linalg/parallel.h), threaded over row tiles. The
/// tile loops run through the runtime-dispatched SIMD microkernels
/// (linalg/microkernel.h); bit-identical to the unblocked ikj loop
/// (tests/blas_oracles.h) for any tile, thread or ISA configuration.
Matrix gemm(const Matrix& a, const Matrix& b);

/// C = A * B^T (A: m x k, B: n x k). Row-major friendly: both operands are
/// traversed along contiguous rows. Blocked + threaded like gemm;
/// bit-identical to one dot() per element.
Matrix gemm_nt(const Matrix& a, const Matrix& b);

/// C = A * A^T (symmetric rank-k update, m x m from an m x k matrix).
/// Computes the upper triangle once and mirrors it; blocked + threaded.
Matrix syrk(const Matrix& a);

/// C = A^T * A (k x k Gram of an m x k matrix). Symmetric by construction.
Matrix gram_at_a(const Matrix& a);

/// C = A * A^T (m x m Gram of an m x k matrix). Alias for syrk, kept for
/// callers written against the Gram-builder naming.
Matrix gram_a_at(const Matrix& a);

/// Elementwise vector helpers.
Vector add(std::span<const double> x, std::span<const double> y);
Vector sub(std::span<const double> x, std::span<const double> y);
Vector scaled(double alpha, std::span<const double> x);

}  // namespace ppml::linalg
