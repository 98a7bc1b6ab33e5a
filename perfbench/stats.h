// Timing summaries for the benchmark report (README.md, "Quantiles").
//
// Every timing is reported as its median plus the highest percentile that
// still has at least ten samples beyond it, with the sample count. A
// percentile without ten samples beyond it is named as missing rather than
// printed.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Samples strictly beyond the nearest-rank q-quantile of n samples.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n - std::min(rank, n);
}

/// Nearest-rank quantile of an ascending, non-empty sample, q in (0, 1].
inline double nearest_rank(const std::vector<double>& sorted, double q) {
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

struct Summary {
  std::size_t n = 0;
  double median = 0.0;
  /// Highest of p99.9/p99/p95/p90/p75 with >= 10 samples beyond it; 0 when
  /// none qualifies (fewer than 40 samples).
  double tail_percentile = 0.0;
  double tail = 0.0;  ///< value at tail_percentile; the median when none
  bool p99_qualifies = false;
  double p99 = 0.0;
};

inline Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  const std::size_t mid = s.n / 2;
  s.median = s.n % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
  s.tail = s.median;
  for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (samples_beyond(s.n, pct / 100.0) >= 10) {
      s.tail_percentile = pct;
      s.tail = nearest_rank(values, pct / 100.0);
      break;
    }
  }
  s.p99_qualifies = samples_beyond(s.n, 0.99) >= 10;
  s.p99 = nearest_rank(values, 0.99);
  return s;
}

/// One report line: "name: median X unit, pNN Y unit (n=N)".
inline void print_summary(const char* name, const Summary& s, const char* unit) {
  if (s.n == 0) {
    std::printf("# %-28s no samples\n", name);
    return;
  }
  if (s.tail_percentile == 0.0) {
    std::printf("# %-28s median %.6g %s (n=%zu; no percentile has ten samples "
                "beyond it)\n",
                name, s.median, unit, s.n);
    return;
  }
  std::printf("# %-28s median %.6g %s, p%g %.6g %s (n=%zu)\n", name, s.median,
              unit, s.tail_percentile, s.tail, unit, s.n);
}

}  // namespace perfbench
