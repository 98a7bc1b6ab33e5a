#include "mapreduce/executor.h"

#include <future>
#include <memory>

#include "linalg/common.h"

namespace ppml::mapreduce {

namespace {
// Set while a pool worker is executing a task. parallel_for called from
// inside a worker (e.g. a map task whose linalg calls go through an
// installed Executor parallel backend) must not block on the pool it is
// running on — every worker could end up waiting on queued subtasks that
// no thread is left to run. Degrading to inline execution keeps the same
// results (each fn(i) runs exactly once, in ascending order).
thread_local bool tl_in_worker = false;
}  // namespace

Executor::Executor(std::size_t threads) {
  PPML_CHECK(threads >= 1, "Executor: need >= 1 thread");
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void Executor::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    tl_in_worker = true;
    task();  // a packaged_task: exceptions land in its future
    tl_in_worker = false;
  }
}

void Executor::parallel_for(std::size_t n,
                            const std::function<void(std::size_t)>& fn) {
  if (tl_in_worker) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < n; ++i) {
      auto task =
          std::make_shared<std::packaged_task<void()>>([&fn, i] { fn(i); });
      futures.push_back(task->get_future());
      queue_.emplace_back([task] { (*task)(); });
    }
  }
  wake_.notify_all();
  std::exception_ptr first_error;
  for (auto& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace ppml::mapreduce
