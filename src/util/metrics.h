// Search observability: monotonic counters, value summaries, RAII phase
// timers, and a process-global registry with JSON export.
//
// The placement hot paths (EG candidate scoring, BA*/DBA* expansions, the
// reservation layer) are instrumented with these; every future perf PR reads
// the same numbers, so the layer is designed to be cheap enough to leave on:
//
//  * Counter::add and Summary::observe are relaxed atomics behind a single
//    relaxed-load enabled() check.  Relaxed is not free: an instrument is
//    one process-wide variable, and each update moves its cache line to
//    the updating core, so threads that update one instrument at a high
//    rate take turns on that line.
//  * Hence the rule for a candidate fan that concurrent planners run (EG's
//    estimate fan per VM, DBA*'s sibling ranking per expansion): the
//    per-candidate work updates no counter or summary; the loop over the
//    fan counts in a local and publishes the total once, after the loop,
//    as run_greedy's EG step and run_astar's child loop do.  Measured on
//    perfbench's router_burst (four concurrent planners, about 25,000
//    candidate estimates per placed VM, 4 vCPUs): with one update of
//    "estimator.candidate_estimates" per estimate it committed 12.2
//    stacks/s at a p50 latency of 97 ms; counted once per fan, 19.9
//    stacks/s at 59 ms (medians of 11 alternating 30 s runs each).
//    Other per-call updates, such as FeasibilityIndex::tighten_*'s
//    escalation counters in the BA*/DBA* child loop, stay where they are
//    until a workload that runs them concurrently shows the contention.
//  * Registry lookups take a mutex, so instrumentation sites cache the
//    returned reference in a function-local static (instrument pointers are
//    stable for the lifetime of the process; the registry never erases).
//  * metrics::set_enabled(false) turns collection off at runtime (the
//    default is on).
//
// Naming convention: "<subsystem>.<event>" with snake_case events, e.g.
// "astar.nodes_expanded", "greedy.candidates_evaluated".  Timers are
// summaries in seconds and end in "_seconds".  See README.md ("Metrics")
// for the full catalogue.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "util/json.h"
#include "util/timer.h"

namespace ostro::util::metrics {

namespace detail {
/// Runtime collection switch; read with a relaxed load on every event.
[[nodiscard]] std::atomic<bool>& enabled_flag() noexcept;
}  // namespace detail

/// True when instruments record events.
[[nodiscard]] inline bool enabled() noexcept {
  return detail::enabled_flag().load(std::memory_order_relaxed);
}

/// Turns collection on/off process-wide.  Reads of existing values and
/// reset() keep working while disabled.
inline void set_enabled(bool on) noexcept {
  detail::enabled_flag().store(on, std::memory_order_relaxed);
}

/// Monotonic event counter (thread-safe, relaxed).
class Counter {
 public:
  void add(std::uint64_t n) noexcept {
    if (enabled()) value_.fetch_add(n, std::memory_order_relaxed);
  }
  void inc() noexcept { add(1); }

  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Streaming count/sum/min/max over observed values (thread-safe, relaxed).
/// Snapshots taken under concurrent observation may mix values from
/// different instants across fields; that is acceptable for telemetry.
class Summary {
 public:
  void observe(double value) noexcept;

  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  ///< 0 when count == 0
    double max = 0.0;  ///< 0 when count == 0
    [[nodiscard]] double mean() const noexcept {
      return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
  };
  [[nodiscard]] Snapshot snapshot() const noexcept;
  void reset() noexcept;

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// RAII phase timer: observes the elapsed wall-clock seconds into a Summary
/// when the scope exits.
class ScopedTimer {
 public:
  explicit ScopedTimer(Summary& summary) noexcept : summary_(&summary) {}
  ~ScopedTimer() { summary_->observe(timer_.elapsed_seconds()); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Summary* summary_;
  WallTimer timer_;
};

/// Name -> instrument registry.  Instruments are created on first use and
/// live for the registry's lifetime (references remain valid; cache them).
class Registry {
 public:
  /// The process-global registry every instrumentation site uses.
  [[nodiscard]] static Registry& global();

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Summary& summary(std::string_view name);

  /// Current value of a counter, 0 when it was never touched.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;
  /// Snapshot of a summary, all-zero when it was never touched.
  [[nodiscard]] Summary::Snapshot summary_snapshot(
      std::string_view name) const;

  /// Zeroes every instrument (registrations and references survive).
  void reset() noexcept;

  /// {"counters": {name: value}, "summaries": {name: {count, sum, min,
  /// max, mean}}} — counters as integers, summary values as numbers.
  [[nodiscard]] Json to_json() const;

 private:
  mutable std::mutex mutex_;
  // node-based maps: pointers are stable across inserts, keys stay sorted
  // for deterministic JSON output.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Summary>, std::less<>> summaries_;
};

/// Shorthands for Registry::global(); cache the result at the call site:
///   static auto& c = metrics::counter("astar.nodes_expanded");
[[nodiscard]] inline Counter& counter(std::string_view name) {
  return Registry::global().counter(name);
}
[[nodiscard]] inline Summary& summary(std::string_view name) {
  return Registry::global().summary(name);
}

}  // namespace ostro::util::metrics
