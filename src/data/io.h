// Dataset input/output: CSV (label-first) and LIBSVM sparse text format.
//
// These loaders exist so users can run the trainers on the *real* UCI /
// HIGGS files when they have them; the benches default to the synthetic
// substitutes in generators.h.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "data/dataset.h"

namespace ppml::data {

/// CSV with one row per sample: `label,f1,f2,...` where label is +/-1
/// (or 0/1, mapped to -1/+1). Blank lines and lines starting with '#' are
/// skipped. Throws Error on malformed input.
Dataset load_csv(std::istream& in, std::string name = "csv");
Dataset load_csv_file(const std::string& path);

/// Write in the same CSV dialect (round-trips with load_csv).
void save_csv(const Dataset& dataset, std::ostream& out);
void save_csv_file(const Dataset& dataset, const std::string& path);

/// Largest width load_libsvm infers on its own. The dataset is dense, so
/// one stray index such as `4000000000:1` would otherwise size every row
/// at 4e9 doubles; an inferred width above this throws Error. Callers with
/// wider data pass `features` explicitly.
inline constexpr std::size_t kMaxInferredLibsvmFeatures = std::size_t{1} << 20;

/// LIBSVM format: `label idx:value idx:value ...` with 1-based indices.
/// `features` = 0 infers width from the maximum index seen, up to
/// kMaxInferredLibsvmFeatures.
Dataset load_libsvm(std::istream& in, std::size_t features = 0,
                    std::string name = "libsvm");
Dataset load_libsvm_file(const std::string& path, std::size_t features = 0);

}  // namespace ppml::data
