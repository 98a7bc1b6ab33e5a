#include "svm/model.h"

#include <algorithm>
#include <istream>
#include <limits>
#include <ostream>

#include "linalg/blas.h"

namespace ppml::svm {

namespace {
double sign_of(double v) { return v < 0.0 ? -1.0 : 1.0; }

void write_vector(std::ostream& out, const Vector& v) {
  out << v.size();
  for (double x : v) out << ' ' << x;
  out << '\n';
}

/// Reads `n` whitespace-separated doubles. `n` comes from the file, so the
/// vector grows as elements parse instead of being sized from the header:
/// a huge (or negative, which `>>` wraps) count throws at the first missing
/// element instead of allocating.
Vector read_values(std::istream& in, std::size_t n, const char* truncated) {
  Vector v;
  v.reserve(std::min<std::size_t>(n, 4096));
  for (std::size_t i = 0; i < n; ++i) {
    double x = 0.0;
    PPML_CHECK(static_cast<bool>(in >> x), truncated);
    v.push_back(x);
  }
  return v;
}

Vector read_vector(std::istream& in) {
  std::size_t n = 0;
  PPML_CHECK(static_cast<bool>(in >> n), "model load: bad vector header");
  return read_values(in, n, "model load: truncated vector");
}

void write_matrix(std::ostream& out, const Matrix& m) {
  out << m.rows() << ' ' << m.cols();
  for (double x : m.data()) out << ' ' << x;
  out << '\n';
}

Matrix read_matrix(std::istream& in) {
  std::size_t rows = 0;
  std::size_t cols = 0;
  PPML_CHECK(static_cast<bool>(in >> rows >> cols),
             "model load: bad matrix header");
  // rows * cols may wrap; the Matrix constructor rejects any count that
  // does not equal the unwrapped product.
  return Matrix(rows, cols,
                read_values(in, rows * cols, "model load: truncated matrix"));
}
}  // namespace

double LinearModel::decision_value(std::span<const double> x) const {
  return linalg::dot(w, x) + b;
}

double LinearModel::predict(std::span<const double> x) const {
  return sign_of(decision_value(x));
}

Vector LinearModel::predict_all(const Matrix& x) const {
  Vector out(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) out[i] = predict(x.row(i));
  return out;
}

void LinearModel::save(std::ostream& out) const {
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "ppml-linear-model v1\n" << b << '\n';
  write_vector(out, w);
}

LinearModel LinearModel::load(std::istream& in) {
  std::string tag;
  std::string version;
  PPML_CHECK(static_cast<bool>(in >> tag >> version) &&
                 tag == "ppml-linear-model" && version == "v1",
             "LinearModel::load: bad header");
  LinearModel model;
  PPML_CHECK(static_cast<bool>(in >> model.b), "LinearModel::load: bad bias");
  model.w = read_vector(in);
  return model;
}

double KernelModel::decision_value(std::span<const double> x) const {
  const Vector k = kernel_row(kernel, x, points);
  return linalg::dot(coeffs, k) + b;
}

double KernelModel::predict(std::span<const double> x) const {
  return sign_of(decision_value(x));
}

Vector KernelModel::predict_all(const Matrix& x) const {
  Vector out(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) out[i] = predict(x.row(i));
  return out;
}

std::size_t KernelModel::support_size(double tol) const {
  std::size_t count = 0;
  for (double c : coeffs)
    if (std::abs(c) > tol) ++count;
  return count;
}

void KernelModel::save(std::ostream& out) const {
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "ppml-kernel-model v1\n";
  out << static_cast<int>(kernel.type) << ' ' << kernel.gamma << ' '
      << kernel.a << ' ' << kernel.b << ' ' << kernel.c << ' '
      << kernel.degree << '\n';
  out << b << '\n';
  write_vector(out, coeffs);
  write_matrix(out, points);
}

KernelModel KernelModel::load(std::istream& in) {
  std::string tag;
  std::string version;
  PPML_CHECK(static_cast<bool>(in >> tag >> version) &&
                 tag == "ppml-kernel-model" && version == "v1",
             "KernelModel::load: bad header");
  KernelModel model;
  int type = 0;
  PPML_CHECK(static_cast<bool>(in >> type >> model.kernel.gamma >>
                               model.kernel.a >> model.kernel.b >>
                               model.kernel.c >> model.kernel.degree),
             "KernelModel::load: bad kernel line");
  PPML_CHECK(type >= static_cast<int>(KernelType::kLinear) &&
                 type <= static_cast<int>(KernelType::kSigmoid),
             "KernelModel::load: unknown kernel type");
  model.kernel.type = static_cast<KernelType>(type);
  PPML_CHECK(static_cast<bool>(in >> model.b), "KernelModel::load: bad bias");
  model.coeffs = read_vector(in);
  model.points = read_matrix(in);
  PPML_CHECK(model.coeffs.size() == model.points.rows(),
             "KernelModel::load: coeff/point count mismatch");
  return model;
}

}  // namespace ppml::svm
