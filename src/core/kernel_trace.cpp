#include "core/kernel_trace.h"

#include <algorithm>

#include "linalg/microkernel.h"

namespace ppml::core {

KernelTestTrace::KernelTestTrace(const svm::Kernel& kernel,
                                 const data::Dataset& test,
                                 std::vector<KernelTraceTerm> terms,
                                 std::size_t max_rounds)
    : kernel_(kernel),
      test_(test),
      terms_(std::move(terms)),
      capacity_(std::max<std::size_t>(1, std::min(max_rounds, test.size()))) {
  PPML_CHECK(test_.size() >= 1 && test_.x.rows() == test_.size(),
             "KernelTestTrace: test set is empty or ragged");
  history_.reserve(terms_.size());
  for (const KernelTraceTerm& term : terms_) {
    PPML_CHECK(term.points != nullptr, "KernelTestTrace: term has no points");
    if (term.features.empty())
      PPML_CHECK(test_.features() == term.points->cols(),
                 "KernelTestTrace: test width != expansion point width");
    else
      PPML_CHECK(term.features.size() == term.points->cols() &&
                     *std::max_element(term.features.begin(),
                                       term.features.end()) < test_.features(),
                 "KernelTestTrace: test set narrower than a term's features");
    history_.emplace_back(term.points->rows(), capacity_);
  }
  bias_.resize(capacity_);
}

void KernelTestTrace::record(
    double bias, std::span<const std::span<const double>> coefficients) {
  PPML_CHECK(coefficients.size() == terms_.size(),
             "KernelTestTrace: need one coefficient vector per term");
  if (pending_ == capacity_) evaluate();
  for (std::size_t m = 0; m < terms_.size(); ++m) {
    linalg::Matrix& history = history_[m];
    PPML_CHECK(coefficients[m].size() == history.rows(),
               "KernelTestTrace: coefficient vector length mismatch");
    for (std::size_t p = 0; p < history.rows(); ++p)
      history(p, pending_) = coefficients[m][p];
  }
  bias_[pending_] = bias;
  ++pending_;
}

void KernelTestTrace::finish(std::vector<IterationRecord>& records) {
  evaluate();
  PPML_CHECK(records.size() == accuracy_.size(),
             "KernelTestTrace: one record per recorded round");
  for (std::size_t t = 0; t < records.size(); ++t)
    records[t].test_accuracy = accuracy_[t];
}

// Term by term, so one term's history stays cache-resident while every test
// row streams past it. decision(r, t) starts at b_t and takes each term's
// partial score in term order.
void KernelTestTrace::evaluate() {
  if (pending_ == 0) return;
  const std::size_t n = test_.size();
  const std::size_t rounds = pending_;
  const linalg::Microkernels& mk = linalg::microkernels();
  linalg::Matrix decision(n, rounds);
  for (std::size_t r = 0; r < n; ++r)
    std::copy_n(bias_.begin(), rounds, decision.row(r).begin());

  Vector projected;
  Vector krow;
  Vector partial(rounds);
  for (std::size_t m = 0; m < terms_.size(); ++m) {
    const KernelTraceTerm& term = terms_[m];
    const linalg::Matrix& points = *term.points;
    projected.resize(term.features.size());
    krow.resize(points.rows());
    for (std::size_t r = 0; r < n; ++r) {
      std::span<const double> x = test_.x.row(r);
      if (!term.features.empty()) {
        for (std::size_t j = 0; j < term.features.size(); ++j)
          projected[j] = x[term.features[j]];
        x = projected;
      }
      svm::kernel_row(kernel_, x, points, krow);
      std::fill(partial.begin(), partial.end(), 0.0);
      mk.rank_update(krow.data(), history_[m].data().data(), capacity_,
                     points.rows(), partial.data(), rounds);
      const std::span<double> d = decision.row(r);
      for (std::size_t t = 0; t < rounds; ++t) d[t] += partial[t];
    }
  }

  std::vector<std::size_t> correct(rounds, 0);
  for (std::size_t r = 0; r < n; ++r) {
    const bool positive = test_.y[r] > 0.0;
    for (std::size_t t = 0; t < rounds; ++t)
      correct[t] += (decision(r, t) >= 0.0) == positive;
  }
  for (std::size_t t = 0; t < rounds; ++t)
    accuracy_.push_back(static_cast<double>(correct[t]) /
                        static_cast<double>(n));
  pending_ = 0;
}

}  // namespace ppml::core
