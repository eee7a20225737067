// Fixed-size worker pool.
//
// EG evaluates the (usage + heuristic) utility of every candidate host in
// parallel (Section III-A of the paper, "EG computes the utility in
// parallel"); ThreadPool::parallel_for is the primitive it uses.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ostro::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means std::thread::hardware_concurrency()
  /// (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task; the future reports its result or exception.
  template <typename F>
  [[nodiscard]] auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) throw std::runtime_error("ThreadPool: submit after stop");
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

  /// Runs body(i) for i in [0, n), partitioned into contiguous blocks across
  /// the pool, and blocks until all complete: parallel_for_slots with the
  /// slot ignored.  Executes inline when the pool has a single worker or n
  /// is small.  Exceptions from the body are rethrown (the first one
  /// encountered, in block order) — but only after every block has
  /// finished, so `body` and the caller's captures are never referenced
  /// past this call's lifetime.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// parallel_for variant whose body additionally receives the index of the
  /// executing block ("slot", in [0, size())).  At most one task runs per
  /// slot at any time, so callers can hand each slot its own scratch buffer
  /// and reuse it across iterations without synchronization.  The inline
  /// path uses slot 0.
  void parallel_for_slots(
      std::size_t n,
      const std::function<void(std::size_t slot, std::size_t i)>& body);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Spawns `count` one-shot worker threads running body(worker_index),
/// joins them ALL, then rethrows the first exception any worker raised
/// (in worker-index order).  This is the safe shape for client-side
/// fan-out: a bare `std::thread` lambda turns an escaping exception into
/// std::terminate mid-run, and — as with ThreadPool::parallel_for —
/// nothing is rethrown until every worker has finished, so `body` and the
/// caller's captures are never referenced past this call's lifetime.
void run_workers(std::size_t count,
                 const std::function<void(std::size_t)>& body);

}  // namespace ostro::util
