#include "util/thread_pool.h"

#include <algorithm>
#include <exception>

namespace ostro::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  parallel_for_slots(n, [&body](std::size_t, std::size_t i) { body(i); });
}

void ThreadPool::parallel_for_slots(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  const std::size_t workers = size();
  // Below ~2 items per worker the dispatch overhead dominates; run inline.
  if (workers <= 1 || n < workers * 2) {
    for (std::size_t i = 0; i < n; ++i) body(0, i);
    return;
  }
  const std::size_t blocks = std::min(workers, n);
  const std::size_t chunk = (n + blocks - 1) / blocks;
  std::vector<std::future<void>> futures;
  futures.reserve(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t begin = b * chunk;
    const std::size_t end = std::min(n, begin + chunk);
    if (begin >= end) break;
    futures.push_back(submit([&body, b, begin, end] {
      for (std::size_t i = begin; i < end; ++i) body(b, i);
    }));
  }
  // Wait for EVERY block before rethrowing.  Rethrowing from the first
  // failed future while later blocks are still running would unwind the
  // caller's stack under the workers' feet: they hold a reference to `body`
  // (and through it the caller's captures), which dangles the moment this
  // frame is gone.  All blocks must be finished — successfully or not —
  // before an exception may escape.
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

void run_workers(std::size_t count,
                 const std::function<void(std::size_t)>& body) {
  std::vector<std::exception_ptr> errors(count);
  std::vector<std::thread> workers;
  workers.reserve(count);
  for (std::size_t t = 0; t < count; ++t) {
    workers.emplace_back([&body, &errors, t] {
      try {
        body(t);
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace ostro::util
