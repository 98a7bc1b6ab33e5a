// Labeled dataset container used across the library.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "linalg/matrix.h"

namespace ppml::data {

using linalg::Matrix;
using linalg::Vector;

/// A binary-classification dataset: N rows of k features plus labels in
/// {-1, +1}. Invariant: x.rows() == y.size(); every label is +/-1.
struct Dataset {
  Matrix x;       ///< N x k feature matrix
  Vector y;       ///< N labels in {-1, +1}
  std::string name;  ///< human-readable tag for logs/benches

  std::size_t size() const noexcept { return y.size(); }
  std::size_t features() const noexcept { return x.cols(); }

  /// Throws InvalidArgument when the invariants above are violated.
  void validate() const;

  /// Row subset in the given order (indices may repeat).
  Dataset subset(const std::vector<std::size_t>& rows) const;

  /// Column (feature) subset in the given order.
  Dataset feature_subset(const std::vector<std::size_t>& cols) const;

  /// Counts of +1 / -1 labels.
  std::pair<std::size_t, std::size_t> class_counts() const;
};

/// Train/test pair produced by splitting.
struct SplitDataset {
  Dataset train;
  Dataset test;
};

/// Shuffle rows in place using the given seed (deterministic): row i ends
/// up holding old row order[i], where order is 0..N-1 shuffled by
/// std::shuffle under std::mt19937_64(seed). Permutes x and y inside their
/// own buffers; allocates only the N-entry order and one spare row.
void shuffle_rows(Dataset& dataset, std::uint64_t seed);

/// Split into train/test with `train_fraction` of rows in train, after a
/// deterministic shuffle: the same order shuffle_rows draws, its first
/// floor(N * train_fraction) entries to train and the rest to test. Each
/// side is gathered straight from `dataset`, so the split allocates only
/// its two sides and the N-entry order. The paper evaluates at 50/50.
SplitDataset train_test_split(const Dataset& dataset, double train_fraction,
                              std::uint64_t seed);

}  // namespace ppml::data
