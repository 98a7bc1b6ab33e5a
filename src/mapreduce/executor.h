// Fixed-size thread pool. A Cluster owns one as its per-node task slots
// (the paper's mappers); core::worker_pool() is the process's one pool for
// in-process work (the engine's local steps, kh's learner setup).
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ppml::mapreduce {

class Executor {
 public:
  /// `threads` worker threads (>= 1).
  explicit Executor(std::size_t threads);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  std::size_t threads() const noexcept { return workers_.size(); }

  /// Run fn(i) for i in [0, n) across the pool and wait; the exception of
  /// the lowest i that threw (if any) is rethrown in the caller. Called
  /// from inside any pool's worker, it runs fn(0..n-1) inline instead.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace ppml::mapreduce
