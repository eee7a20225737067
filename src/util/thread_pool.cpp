#include "util/thread_pool.h"

#include <exception>
#include <thread>
#include <vector>

namespace ostro::util {

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
