// Adaptive search-budget controller for BA*/DBA* (SearchConfig::kAuto).
//
// The open-queue safety valve (SearchConfig::max_open_paths) and the DBA*
// children beam (dba_beam_width) are fixed constants sized for the paper's
// 2400-host / 200-VM worst case.  Fixed budgets either waste memory on easy
// plans or silently degrade solution quality when the valve fires.  The
// controller turns both into per-plan decisions driven by a feedback loop:
//
//  * Cold start: the first plan of a scheduler session gets a static
//    estimate — node count x the (capped) candidate fan, times a headroom
//    factor — clamped to [floor, cap] and to the configured seed ceiling.
//  * Warm start: later plans are sized from an EWMA of the open-queue peaks
//    observed by prior runs (`SearchStats::open_queue_peak`), times the same
//    headroom; once the controller has real measurements the configured
//    ceiling no longer applies (in kAuto the config value is a seed, not a
//    bound).
//  * Valve-fire failure: when a search aborts on the valve with no feasible
//    placement (`SearchStats::hit_open_limit` and infeasible), the scheduler
//    retries with a geometrically widened budget (widen()), at most
//    `SearchConfig::budget_max_retries` times, before falling back to the
//    greedy EG completion — the bounded-retry ladder documented in
//    DESIGN.md section 8.
//
// Everything is bypassed under BudgetMode::kFixed (the default), which is
// bit-identical to the pre-controller behavior and differential-tested.
//
// Process-wide telemetry lives under the "budget." metrics prefix:
// counters budget.auto_decisions / warm_decisions / retries / valve_fires /
// greedy_fallbacks, summaries budget.max_open_paths / beam_width.
#pragma once

#include <cstddef>
#include <mutex>
#include <optional>

#include "core/types.h"

namespace ostro::core {

/// One budget decision: the limits to run a BA*/DBA* attempt under.
struct BudgetDecision {
  std::size_t max_open_paths = 0;  ///< open-queue valve (0 = unlimited)
  std::size_t beam_width = 0;      ///< DBA* children beam (0 = unlimited)
  int attempt = 0;                 ///< 0 = first attempt, n = nth retry
  bool warm = false;               ///< informed by a prior observation
};

/// Controller constants.  The SearchConfig knobs users are expected to
/// touch (seed ceiling, retry count) stay in SearchConfig; these shape the
/// estimator itself.
struct BudgetPolicy {
  /// Never size an auto budget below this (except when the configured seed
  /// ceiling is itself smaller — an explicit tight-memory request).
  std::size_t floor_open_paths = 4'096;
  /// Hard cap for auto budgets, including widened retries (8x the paper's
  /// fixed 2M constant; a rung above it would not fit in memory anyway).
  std::size_t cap_open_paths = 16'000'000;
  /// Safety factor between a predicted queue peak and the granted budget.
  double peak_headroom = 4.0;
  /// Modeled candidate fan cap for the cold estimate.  The symmetry rules
  /// merge interchangeable hosts only within a rack, so an expansion inserts
  /// one child per used host plus one per distinct host class of each rack:
  /// far fewer than the fleet's hosts, but no fleet-wide merge.  The fan
  /// contribution is capped rather than multiplied by the fleet size.
  std::size_t fan_cap = 256;
  /// EWMA smoothing for the observed open-queue peak (0 < alpha <= 1).
  double ewma_alpha = 0.5;
  /// Widened retries double the DBA* beam per attempt up to this cap.
  std::size_t beam_cap = 512;
};

/// Feedback controller sizing BA*/DBA* budgets per plan.  One instance per
/// OstroScheduler carries the warm-start state across plans of a session;
/// stateless place_topology calls use a fresh (cold) instance.  All methods
/// are thread-safe.
class BudgetController {
 public:
  explicit BudgetController(BudgetPolicy policy = {}) : policy_(policy) {}

  /// Budget for the first attempt of a plan with `node_count` free nodes
  /// against a `host_count`-host fleet.  kFixed configs get the configured
  /// constants verbatim.
  [[nodiscard]] BudgetDecision decide(std::size_t node_count,
                                      std::size_t host_count,
                                      const SearchConfig& config);

  /// Next rung of the retry ladder after a valve-fire failure: geometric
  /// widening by 8x (beam doubles), jumping at least to the policy floor.
  /// Returns nullopt when the ladder is
  /// exhausted (attempt count, cap, or an unlimited budget that already
  /// failed) — the caller then falls back to EG.
  [[nodiscard]] std::optional<BudgetDecision> widen(
      const BudgetDecision& previous, const SearchConfig& config);

  /// Feeds the observed stats of a finished attempt back into the
  /// warm-start state (EWMA of open_queue_peak; valve-fire accounting).
  void observe(const BudgetDecision& decision, const SearchStats& stats);

  /// Records that the retry ladder was exhausted and the scheduler fell
  /// back to the greedy EG completion ("budget.greedy_fallbacks").
  void note_greedy_fallback();

  /// The cold-start estimate before headroom/clamping: node_count x
  /// min(host_count, fan_cap).  Exposed for tests and benches.
  [[nodiscard]] std::size_t static_estimate(std::size_t node_count,
                                            std::size_t host_count) const
      noexcept;

  [[nodiscard]] const BudgetPolicy& policy() const noexcept {
    return policy_;
  }

  /// Smoothed open-queue peak observed so far (0 before any observation).
  [[nodiscard]] double smoothed_peak() const;

 private:
  BudgetPolicy policy_;
  mutable std::mutex mutex_;
  double ewma_peak_ = 0.0;
  /// Smoothed paths_pruned_bound / paths_generated: how sharply the
  /// incumbent bound cuts the search.  Weakly-bounded sessions get extra
  /// headroom (their queues grow faster than the observed peaks suggest).
  double ewma_bound_prune_ratio_ = 0.0;
  bool has_history_ = false;
};

}  // namespace ostro::core
