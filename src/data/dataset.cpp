#include "data/dataset.h"

#include <algorithm>
#include <numeric>
#include <random>
#include <span>

namespace ppml::data {

namespace {

/// Rows `rows` of `dataset`, in that order (indices may repeat).
Dataset gather_rows(const Dataset& dataset, std::span<const std::size_t> rows) {
  Dataset out;
  out.name = dataset.name;
  out.x.resize(rows.size(), dataset.x.cols());
  out.y.resize(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    PPML_CHECK(rows[i] < dataset.size(),
               "Dataset::subset: row index out of range");
    std::copy(dataset.x.row(rows[i]).begin(), dataset.x.row(rows[i]).end(),
              out.x.row(i).begin());
    out.y[i] = dataset.y[rows[i]];
  }
  return out;
}

/// The row order shuffle_rows and train_test_split draw: 0..n-1 shuffled
/// by std::shuffle under mt19937_64(seed).
std::vector<std::size_t> shuffled_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

}  // namespace

void Dataset::validate() const {
  PPML_CHECK(x.rows() == y.size(), "Dataset: row/label count mismatch");
  for (double label : y)
    PPML_CHECK(label == 1.0 || label == -1.0,
               "Dataset: labels must be +/-1");
}

Dataset Dataset::subset(const std::vector<std::size_t>& rows) const {
  return gather_rows(*this, rows);
}

Dataset Dataset::feature_subset(const std::vector<std::size_t>& cols) const {
  Dataset out;
  out.name = name;
  out.x.resize(size(), cols.size());
  out.y = y;
  for (std::size_t i = 0; i < size(); ++i) {
    for (std::size_t j = 0; j < cols.size(); ++j) {
      PPML_CHECK(cols[j] < features(),
                 "Dataset::feature_subset: column index out of range");
      out.x(i, j) = x(i, cols[j]);
    }
  }
  return out;
}

std::pair<std::size_t, std::size_t> Dataset::class_counts() const {
  std::size_t pos = 0;
  for (double label : y)
    if (label > 0.0) ++pos;
  return {pos, y.size() - pos};
}

void shuffle_rows(Dataset& dataset, std::uint64_t seed) {
  PPML_CHECK(dataset.x.rows() == dataset.y.size(),
             "shuffle_rows: row/label count mismatch");
  std::vector<std::size_t> order = shuffled_order(dataset.size(), seed);
  // Row i must end up holding old row order[i]. Walk each cycle of the
  // permutation once: park the cycle's first row in `spare`, pull every
  // later row of the cycle one slot back, and drop the spare into the last
  // slot. A slot that holds its final row is marked order[i] = i, so the
  // index vector doubles as the visited set.
  const std::size_t k = dataset.features();
  std::vector<double> spare(k);
  for (std::size_t start = 0; start < order.size(); ++start) {
    if (order[start] == start) continue;
    std::copy_n(dataset.x.row(start).begin(), k, spare.begin());
    const double spare_label = dataset.y[start];
    std::size_t slot = start;
    while (order[slot] != start) {
      const std::size_t from = order[slot];
      std::copy_n(dataset.x.row(from).begin(), k, dataset.x.row(slot).begin());
      dataset.y[slot] = dataset.y[from];
      order[slot] = slot;
      slot = from;
    }
    std::copy_n(spare.begin(), k, dataset.x.row(slot).begin());
    dataset.y[slot] = spare_label;
    order[slot] = slot;
  }
}

SplitDataset train_test_split(const Dataset& dataset, double train_fraction,
                              std::uint64_t seed) {
  PPML_CHECK(train_fraction > 0.0 && train_fraction < 1.0,
             "train_test_split: fraction must be in (0, 1)");
  const auto n_train = static_cast<std::size_t>(
      static_cast<double>(dataset.size()) * train_fraction);
  PPML_CHECK(n_train > 0 && n_train < dataset.size(),
             "train_test_split: split leaves an empty side");

  // Each side gathers its rows straight from `dataset`: train takes the
  // shuffled order's first n_train entries, test the rest.
  const std::vector<std::size_t> order = shuffled_order(dataset.size(), seed);
  const std::span<const std::size_t> all(order);
  SplitDataset out;
  out.train = gather_rows(dataset, all.first(n_train));
  out.test = gather_rows(dataset, all.subspan(n_train));
  out.train.name = dataset.name + "/train";
  out.test.name = dataset.name + "/test";
  return out;
}

}  // namespace ppml::data
