#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

namespace ostro::util {
namespace {

TEST(RunWorkersTest, CoversAllWorkerIndices) {
  std::vector<std::atomic<int>> hits(8);
  run_workers(8, [&](std::size_t t) { ++hits[t]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(RunWorkersTest, ZeroWorkersIsNoop) {
  bool touched = false;
  run_workers(0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

// Regression test: bench worker fan-out used bare std::thread, so a body
// exception escaped the thread and took the whole process down with
// std::terminate.  run_workers must deliver it to the caller instead —
// and only after every worker joined, so no capture dangles.
TEST(RunWorkersTest, RethrowsBodyExceptionAfterAllWorkersJoin) {
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  try {
    run_workers(4, [&](std::size_t t) {
      if (t == 0) {
        while (started.load() == 0) std::this_thread::yield();
        throw std::runtime_error("boom");
      }
      ++started;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      ++finished;
    });
    FAIL() << "run_workers should have rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
    // At the instant the exception escapes, every worker has joined.
    EXPECT_EQ(started.load(), finished.load());
    EXPECT_EQ(finished.load(), 3);
  }
}

TEST(RunWorkersTest, FirstWorkerIndexExceptionWinsWhenSeveralThrow) {
  try {
    run_workers(3, [](std::size_t t) {
      throw std::runtime_error("worker " + std::to_string(t));
    });
    FAIL() << "run_workers should have rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "worker 0");
  }
}

}  // namespace
}  // namespace ostro::util
