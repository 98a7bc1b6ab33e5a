#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>

namespace ppml::linalg {

namespace {
// rows * cols, or InvalidArgument when the product does not fit a size_t (a
// wrapped product would size the buffer smaller than the shape claims).
std::size_t checked_area(std::size_t rows, std::size_t cols) {
  PPML_CHECK(cols == 0 || rows <= std::numeric_limits<std::size_t>::max() / cols,
             "matrix shape " + std::to_string(rows) + "x" +
                 std::to_string(cols) + " overflows rows*cols");
  return rows * cols;
}
}  // namespace

// Separate from the fill constructor: with the literal 0.0 in view the
// compiler zeroes the buffer with memset rather than a store loop.
Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(checked_area(rows, cols), 0.0) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(checked_area(rows, cols), fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
  rows_ = init.size();
  cols_ = rows_ == 0 ? 0 : init.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : init) {
    PPML_CHECK(row.size() == cols_, "ragged initializer list");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix::Matrix(std::size_t rows, std::size_t cols, std::vector<double> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  PPML_CHECK(data_.size() == checked_area(rows, cols),
             "flat buffer size does not match rows*cols");
}

double& Matrix::at(std::size_t i, std::size_t j) {
  PPML_CHECK(i < rows_ && j < cols_, "index out of range");
  return (*this)(i, j);
}

double Matrix::at(std::size_t i, std::size_t j) const {
  PPML_CHECK(i < rows_ && j < cols_, "index out of range");
  return (*this)(i, j);
}

Vector Matrix::col(std::size_t j) const {
  PPML_CHECK(j < cols_, "column index out of range");
  Vector out(rows_);
  for (std::size_t i = 0; i < rows_; ++i) out[i] = (*this)(i, j);
  return out;
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
  return out;
}

void Matrix::resize(std::size_t rows, std::size_t cols) {
  data_.assign(checked_area(rows, cols), 0.0);
  rows_ = rows;
  cols_ = cols;
}

void Matrix::fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

Matrix Matrix::identity(std::size_t n) {
  Matrix out(n, n);
  for (std::size_t i = 0; i < n; ++i) out(i, i) = 1.0;
  return out;
}

Matrix Matrix::diagonal(const Vector& d) {
  Matrix out(d.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) out(i, i) = d[i];
  return out;
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
  os << "Matrix(" << m.rows() << "x" << m.cols() << ")[\n";
  for (std::size_t i = 0; i < m.rows(); ++i) {
    os << "  ";
    for (std::size_t j = 0; j < m.cols(); ++j) {
      os << m(i, j);
      if (j + 1 < m.cols()) os << ", ";
    }
    os << "\n";
  }
  return os << "]";
}

namespace {
void check_same_shape(const Matrix& a, const Matrix& b) {
  PPML_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
             "matrix shape mismatch");
}
}  // namespace

Matrix operator+(const Matrix& a, const Matrix& b) {
  check_same_shape(a, b);
  Matrix out = a;
  for (std::size_t i = 0; i < out.size(); ++i) out.data()[i] += b.data()[i];
  return out;
}

Matrix operator-(const Matrix& a, const Matrix& b) {
  check_same_shape(a, b);
  Matrix out = a;
  for (std::size_t i = 0; i < out.size(); ++i) out.data()[i] -= b.data()[i];
  return out;
}

Matrix operator*(double s, const Matrix& a) {
  Matrix out = a;
  for (double& v : out.data()) v *= s;
  return out;
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  check_same_shape(a, b);
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(a.data()[i] - b.data()[i]));
  return worst;
}

bool allclose(const Matrix& a, const Matrix& b, double tol) {
  return max_abs_diff(a, b) <= tol;
}

bool allclose(std::span<const double> a, std::span<const double> b,
              double tol) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::abs(a[i] - b[i]) > tol) return false;
  return true;
}

}  // namespace ppml::linalg
