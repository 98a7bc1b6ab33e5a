// Outside-in layer tracing for the benchmark's traced pass (README.md,
// "Traced pass"): an in-memory span log plus decorators over the public
// consensus seams. Nothing here installs obs::Session — the program's own
// spans stay off, so the traced pass runs the same code as the untraced one.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/consensus.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the log's origin
  double end = 0.0;
  int parent = -1;     ///< index into the log, -1 = root
  long round = -1;     ///< consensus round, -1 = outside the rounds
  long party = -1;     ///< learner index, -1 = not per party
};

/// Thread-safe, append-only span log. Spans are opened and closed by index
/// so that callers on executor threads can record under a shared parent.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  int begin(std::string name, int parent, long round = -1, long party = -1) {
    const double now = seconds_since(origin_);
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{std::move(name), now, now, parent, round, party});
    return static_cast<int>(spans_.size() - 1);
  }

  void end(int id) {
    const double now = seconds_since(origin_);
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = now;
  }

  /// Snapshot; call once the traced work has finished.
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span; a null log records nothing (the untraced configuration).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int parent, long round = -1,
             long party = -1)
      : log_(log),
        id_(log ? log->begin(std::move(name), parent, round, party) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const noexcept { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

/// Times every local_step of one learner as a "core.local_step" span under
/// the current round span. Calls are counted to give the round id (every
/// learner steps once per round under FullParticipation).
class TimedLearner final : public ppml::core::ConsensusLearner {
 public:
  TimedLearner(std::shared_ptr<ppml::core::ConsensusLearner> inner,
               std::size_t party, SpanLog& log,
               const std::atomic<int>& round_span)
      : inner_(std::move(inner)),
        party_(static_cast<long>(party)),
        log_(log),
        round_span_(round_span) {}

  std::size_t contribution_dim() const override {
    return inner_->contribution_dim();
  }
  ppml::core::Vector local_step(const ppml::core::Vector& broadcast) override {
    ScopedSpan span(&log_, "core.local_step", round_span_.load(), calls_++,
                    party_);
    return inner_->local_step(broadcast);
  }
  void on_cohort_resize(std::size_t live_learners) override {
    inner_->on_cohort_resize(live_learners);
  }
  double last_local_objective() const override {
    return inner_->last_local_objective();
  }

 private:
  std::shared_ptr<ppml::core::ConsensusLearner> inner_;
  long party_;
  long calls_ = 0;
  SpanLog& log_;
  const std::atomic<int>& round_span_;
};

/// Times every combine of the reducer logic as a "core.combine" span.
class TimedCoordinator final : public ppml::core::ConsensusCoordinator {
 public:
  TimedCoordinator(ppml::core::ConsensusCoordinator& inner, SpanLog& log,
                   const std::atomic<int>& round_span)
      : inner_(inner), log_(log), round_span_(round_span) {}

  ppml::core::Vector combine(const ppml::core::Vector& average) override {
    ScopedSpan span(&log_, "core.combine", round_span_.load(), calls_++);
    return inner_.combine(average);
  }
  double last_delta_sq() const override { return inner_.last_delta_sq(); }

 private:
  ppml::core::ConsensusCoordinator& inner_;
  long calls_ = 0;
  SpanLog& log_;
  const std::atomic<int>& round_span_;
};

}  // namespace perfbench
