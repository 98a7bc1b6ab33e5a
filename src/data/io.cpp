#include "data/io.h"

#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

namespace ppml::data {

namespace {

double parse_label(const std::string& token, std::size_t line_no) {
  std::size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(token, &pos);
  } catch (const std::exception&) {
    throw Error("load: bad label '" + token + "' on line " +
                std::to_string(line_no));
  }
  PPML_CHECK(pos == token.size(),
             "load: trailing junk after label on line " +
                 std::to_string(line_no));
  if (value == 0.0) return -1.0;  // 0/1 convention
  return value > 0.0 ? 1.0 : -1.0;
}

bool skippable(const std::string& line) {
  for (char ch : line) {
    if (ch == '#') return true;
    if (!std::isspace(static_cast<unsigned char>(ch))) return false;
  }
  return true;  // blank
}

}  // namespace

Dataset load_csv(std::istream& in, std::string name) {
  std::vector<std::vector<double>> rows;
  std::vector<double> labels;
  std::string line;
  std::size_t line_no = 0;
  std::size_t width = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (skippable(line)) continue;
    std::vector<double> row;
    std::stringstream ss(line);
    std::string token;
    bool first = true;
    while (std::getline(ss, token, ',')) {
      if (first) {
        labels.push_back(parse_label(token, line_no));
        first = false;
        continue;
      }
      try {
        row.push_back(std::stod(token));
      } catch (const std::exception&) {
        throw Error("load_csv: bad value '" + token + "' on line " +
                    std::to_string(line_no));
      }
    }
    PPML_CHECK(!first, "load_csv: empty data line " + std::to_string(line_no));
    if (width == 0) width = row.size();
    PPML_CHECK(row.size() == width,
               "load_csv: inconsistent column count on line " +
                   std::to_string(line_no));
    rows.push_back(std::move(row));
  }
  PPML_CHECK(!rows.empty(), "load_csv: no data rows");

  Dataset out;
  out.name = std::move(name);
  out.x.resize(rows.size(), width);
  out.y = std::move(labels);
  for (std::size_t i = 0; i < rows.size(); ++i)
    std::copy(rows[i].begin(), rows[i].end(), out.x.row(i).begin());
  out.validate();
  return out;
}

Dataset load_csv_file(const std::string& path) {
  std::ifstream in(path);
  PPML_CHECK(in.good(), "load_csv_file: cannot open " + path);
  return load_csv(in, path);
}

void save_csv(const Dataset& dataset, std::ostream& out) {
  // Round-trip-exact doubles (load_csv(save_csv(d)) == d).
  out.precision(std::numeric_limits<double>::max_digits10);
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    out << (dataset.y[i] > 0.0 ? 1 : -1);
    for (double v : dataset.x.row(i)) out << ',' << v;
    out << '\n';
  }
}

void save_csv_file(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path);
  PPML_CHECK(out.good(), "save_csv_file: cannot open " + path);
  save_csv(dataset, out);
}

Dataset load_libsvm(std::istream& in, std::size_t features, std::string name) {
  struct SparseRow {
    double label;
    std::vector<std::pair<std::size_t, double>> entries;
  };
  std::vector<SparseRow> rows;
  std::string line;
  std::size_t line_no = 0;
  std::size_t max_index = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (skippable(line)) continue;
    std::stringstream ss(line);
    std::string token;
    ss >> token;
    SparseRow row{parse_label(token, line_no), {}};
    while (ss >> token) {
      const auto colon = token.find(':');
      PPML_CHECK(colon != std::string::npos,
                 "load_libsvm: missing ':' on line " + std::to_string(line_no));
      std::size_t index = 0;
      double value = 0.0;
      try {
        index = std::stoul(token.substr(0, colon));
        value = std::stod(token.substr(colon + 1));
      } catch (const std::exception&) {
        throw Error("load_libsvm: bad entry '" + token + "' on line " +
                    std::to_string(line_no));
      }
      PPML_CHECK(index >= 1, "load_libsvm: indices are 1-based (line " +
                                 std::to_string(line_no) + ")");
      max_index = std::max(max_index, index);
      row.entries.emplace_back(index - 1, value);
    }
    rows.push_back(std::move(row));
  }
  PPML_CHECK(!rows.empty(), "load_libsvm: no data rows");
  PPML_CHECK(features != 0 || max_index <= kMaxInferredLibsvmFeatures,
             "load_libsvm: inferred width " + std::to_string(max_index) +
                 " exceeds " + std::to_string(kMaxInferredLibsvmFeatures) +
                 "; pass `features` to load wider data");
  const std::size_t width = features == 0 ? max_index : features;
  PPML_CHECK(max_index <= width,
             "load_libsvm: feature index exceeds requested width");

  Dataset out;
  out.name = std::move(name);
  out.x.resize(rows.size(), width);
  out.y.resize(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out.y[i] = rows[i].label;
    for (const auto& [j, v] : rows[i].entries) out.x(i, j) = v;
  }
  out.validate();
  return out;
}

Dataset load_libsvm_file(const std::string& path, std::size_t features) {
  std::ifstream in(path);
  PPML_CHECK(in.good(), "load_libsvm_file: cannot open " + path);
  return load_libsvm(in, features, path);
}

}  // namespace ppml::data
