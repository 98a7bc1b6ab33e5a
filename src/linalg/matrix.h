// Dense row-major matrix and vector types used throughout ppml.
//
// This is a deliberately small, dependency-free dense linear-algebra layer:
// the paper's algorithms only need Gram matrices, matrix-vector products,
// symmetric rank-k updates and SPD solves, all at modest sizes (N_m x N_m
// per-mapper kernel blocks). Clarity and testability over peak FLOPs.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <span>
#include <vector>

#include "linalg/common.h"

namespace ppml::linalg {

/// Dense vector of doubles. A thin alias: algorithms use std::vector
/// directly plus the free functions in blas.h.
using Vector = std::vector<double>;

/// Dense, row-major matrix of doubles.
///
/// Invariants: data().size() == rows()*cols(); rows()==0 iff cols()==0 is
/// NOT required (0xN and Nx0 matrices are valid and empty).
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix, zero-initialized. Throws InvalidArgument when
  /// rows * cols overflows.
  Matrix(std::size_t rows, std::size_t cols);

  /// rows x cols matrix filled with `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill);

  /// Build from nested initializer list: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  /// Build from an existing flat row-major buffer (moved in). Throws
  /// InvalidArgument unless data.size() == rows * cols without overflow.
  Matrix(std::size_t rows, std::size_t cols, std::vector<double> data);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  double& operator()(std::size_t i, std::size_t j) noexcept {
    return data_[i * cols_ + j];
  }
  double operator()(std::size_t i, std::size_t j) const noexcept {
    return data_[i * cols_ + j];
  }

  /// Bounds-checked access (throws InvalidArgument).
  double& at(std::size_t i, std::size_t j);
  double at(std::size_t i, std::size_t j) const;

  /// View of row i as a contiguous span.
  std::span<double> row(std::size_t i) noexcept {
    return {data_.data() + i * cols_, cols_};
  }
  std::span<const double> row(std::size_t i) const noexcept {
    return {data_.data() + i * cols_, cols_};
  }

  std::vector<double>& data() noexcept { return data_; }
  const std::vector<double>& data() const noexcept { return data_; }

  /// Copy of column j.
  Vector col(std::size_t j) const;

  /// Transposed copy.
  Matrix transposed() const;

  /// Reset to rows x cols, zero-filled.
  void resize(std::size_t rows, std::size_t cols);

  /// Set all entries to `value`.
  void fill(double value);

  bool operator==(const Matrix& other) const = default;

  /// n x n identity.
  static Matrix identity(std::size_t n);

  /// Matrix whose diagonal is `d` (square, size d.size()).
  static Matrix diagonal(const Vector& d);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Human-readable printing (used by tests and examples, not hot paths).
std::ostream& operator<<(std::ostream& os, const Matrix& m);

/// Elementwise operations (dimensions must match).
Matrix operator+(const Matrix& a, const Matrix& b);
Matrix operator-(const Matrix& a, const Matrix& b);
Matrix operator*(double s, const Matrix& a);

/// Max |a_ij - b_ij|; matrices must have identical shape.
double max_abs_diff(const Matrix& a, const Matrix& b);

/// True when every |a_ij - b_ij| <= tol.
bool allclose(const Matrix& a, const Matrix& b, double tol);
bool allclose(std::span<const double> a, std::span<const double> b, double tol);

}  // namespace ppml::linalg
