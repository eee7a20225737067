#include "core/budget.h"

#include <algorithm>
#include <cmath>

#include "util/metrics.h"

namespace ostro::core {
namespace {

/// kAuto retry ladder: geometric growth of max_open_paths per widened
/// retry (the beam doubles independently).
constexpr double kWidenFactor = 8.0;

[[nodiscard]] std::size_t clamp_budget(double value, std::size_t lo,
                                       std::size_t hi) noexcept {
  if (value <= static_cast<double>(lo)) return lo;
  if (value >= static_cast<double>(hi)) return hi;
  return static_cast<std::size_t>(value);
}

}  // namespace

std::size_t BudgetController::static_estimate(
    std::size_t node_count, std::size_t host_count) const noexcept {
  return node_count * std::min(host_count, policy_.fan_cap);
}

BudgetDecision BudgetController::decide(std::size_t node_count,
                                        std::size_t host_count,
                                        const SearchConfig& config) {
  if (config.budget_mode == BudgetMode::kFixed) {
    return {config.max_open_paths, config.dba_beam_width, 0, false};
  }
  static util::metrics::Counter& m_auto =
      util::metrics::counter("budget.auto_decisions");
  static util::metrics::Counter& m_warm =
      util::metrics::counter("budget.warm_decisions");
  static util::metrics::Summary& m_open =
      util::metrics::summary("budget.max_open_paths");
  static util::metrics::Summary& m_beam =
      util::metrics::summary("budget.beam_width");

  BudgetDecision decision;
  decision.beam_width = config.dba_beam_width;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (has_history_) {
      // Warm start: the measured peaks own the decision; the configured
      // seed ceiling no longer applies (in kAuto it seeds, not bounds).
      // Weakly-bounded searches (few bound prunes per generated path) grow
      // their queue faster than a truncated prior peak suggests, so they
      // get double headroom.
      decision.warm = true;
      const double headroom =
          policy_.peak_headroom *
          (ewma_bound_prune_ratio_ < 0.1 ? 2.0 : 1.0);
      decision.max_open_paths =
          clamp_budget(ewma_peak_ * headroom, policy_.floor_open_paths,
                       policy_.cap_open_paths);
    } else {
      // Cold start: static estimate, clamped, then capped by the
      // configured seed ceiling (an explicit ceiling below the floor is an
      // intentional tight-memory request and is honored verbatim).
      const double predicted =
          static_cast<double>(static_estimate(node_count, host_count)) *
          policy_.peak_headroom;
      decision.max_open_paths = clamp_budget(
          predicted, policy_.floor_open_paths, policy_.cap_open_paths);
      if (config.max_open_paths != 0) {
        decision.max_open_paths =
            std::min(decision.max_open_paths, config.max_open_paths);
      }
    }
  }
  m_auto.inc();
  if (decision.warm) m_warm.inc();
  m_open.observe(static_cast<double>(decision.max_open_paths));
  m_beam.observe(static_cast<double>(decision.beam_width));
  return decision;
}

std::optional<BudgetDecision> BudgetController::widen(
    const BudgetDecision& previous, const SearchConfig& config) {
  if (previous.attempt >=
      static_cast<int>(config.budget_max_retries)) {
    return std::nullopt;
  }
  // An unlimited budget that still valve-fired cannot happen (the valve
  // never fires at 0), and a budget already at the cap has nowhere to go.
  if (previous.max_open_paths == 0 ||
      previous.max_open_paths >= policy_.cap_open_paths) {
    return std::nullopt;
  }
  static util::metrics::Counter& m_retries =
      util::metrics::counter("budget.retries");
  static util::metrics::Summary& m_open =
      util::metrics::summary("budget.max_open_paths");

  BudgetDecision next = previous;
  ++next.attempt;
  const double widened =
      static_cast<double>(previous.max_open_paths) * kWidenFactor;
  // Jump at least to the floor: a deliberately tiny seed ceiling should
  // reach a workable budget in one rung, not crawl up from single digits.
  next.max_open_paths =
      clamp_budget(std::max(widened,
                            static_cast<double>(policy_.floor_open_paths)),
                   1, policy_.cap_open_paths);
  if (next.beam_width != 0) {
    next.beam_width = std::min(next.beam_width * 2, policy_.beam_cap);
  }
  m_retries.inc();
  m_open.observe(static_cast<double>(next.max_open_paths));
  return next;
}

void BudgetController::observe(const BudgetDecision& decision,
                               const SearchStats& stats) {
  static util::metrics::Counter& m_valve =
      util::metrics::counter("budget.valve_fires");
  if (stats.hit_open_limit) m_valve.inc();
  (void)decision;
  const auto peak = static_cast<double>(stats.open_queue_peak);
  const double prune_ratio =
      static_cast<double>(stats.paths_pruned_bound) /
      static_cast<double>(std::max<std::uint64_t>(1, stats.paths_generated));
  const std::lock_guard<std::mutex> lock(mutex_);
  if (has_history_) {
    ewma_peak_ = policy_.ewma_alpha * peak +
                 (1.0 - policy_.ewma_alpha) * ewma_peak_;
    ewma_bound_prune_ratio_ =
        policy_.ewma_alpha * prune_ratio +
        (1.0 - policy_.ewma_alpha) * ewma_bound_prune_ratio_;
  } else {
    ewma_peak_ = peak;
    ewma_bound_prune_ratio_ = prune_ratio;
    has_history_ = true;
  }
}

void BudgetController::note_greedy_fallback() {
  static util::metrics::Counter& m_fallbacks =
      util::metrics::counter("budget.greedy_fallbacks");
  m_fallbacks.inc();
}

double BudgetController::smoothed_peak() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return has_history_ ? ewma_peak_ : 0.0;
}

}  // namespace ostro::core
