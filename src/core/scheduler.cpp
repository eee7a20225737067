#include "core/scheduler.h"

#include <stdexcept>
#include <utility>

#include "core/astar.h"
#include "core/budget.h"
#include "core/greedy.h"
#include "core/objective.h"
#include "net/reservation.h"
#include "util/metrics.h"
#include "util/timer.h"

namespace ostro::core {
namespace {

[[nodiscard]] Placement to_placement(bool feasible, std::string failure,
                                     PartialPlacement state,
                                     SearchStats stats, double runtime) {
  Placement out;
  out.feasible = feasible;
  out.failure_reason = std::move(failure);
  out.stats = stats;
  out.stats.runtime_seconds = runtime;
  if (feasible) {
    out.assignment = state.assignment();
    out.utility = state.utility_committed();
    out.reserved_bandwidth_mbps = state.ubw();
    out.new_active_hosts = state.new_active_hosts();
    out.hosts_used = static_cast<int>(state.used_hosts().size());
    out.bandwidth_overcommitted = state.has_link_overcommit();
  }
  return out;
}

/// BA*/DBA* under BudgetMode::kAuto: the bounded-retry ladder of DESIGN.md
/// section 8.  Runs the search under the controller's budget; a valve-fire
/// failure (hit_open_limit, no feasible placement) is retried with a
/// geometrically widened budget, and when the ladder is exhausted the plan
/// falls back to a greedy EG completion in bandwidth order — today's silent
/// quality cliff becomes a bounded, observable retry path.
[[nodiscard]] AStarOutcome run_astar_adaptive(const PartialPlacement& state,
                                              const SearchConfig& config,
                                              bool deadline_bounded,
                                              util::ThreadPool* pool,
                                              BudgetController& controller) {
  const topo::AppTopology& topology = state.topology();
  const std::size_t free_nodes =
      topology.node_count() - state.placed_count();
  BudgetDecision decision = controller.decide(
      free_nodes, state.datacenter().host_count(), config);
  SearchConfig attempt_config = config;
  std::uint32_t retries = 0;
  for (;;) {
    attempt_config.max_open_paths = decision.max_open_paths;
    attempt_config.dba_beam_width = decision.beam_width;
    AStarOutcome outcome = run_astar(PartialPlacement(state), attempt_config,
                                     deadline_bounded, pool);
    controller.observe(decision, outcome.stats);
    outcome.stats.budget_retries = retries;
    if (outcome.feasible || !outcome.stats.hit_open_limit) return outcome;
    if (const auto widened = controller.widen(decision, config)) {
      decision = *widened;
      ++retries;
      continue;
    }
    // Ladder exhausted: complete greedily.  The attempt is infeasible, so
    // its root EG run (EG order, same state) already dead-ended; EG in
    // bandwidth-first order is a genuinely different decision sequence and
    // occasionally completes where EG's dead-ends.
    controller.note_greedy_fallback();
    AStarOutcome fallback(state);
    fallback.stats = outcome.stats;
    GreedyOutcome eg = run_greedy(Algorithm::kEg, PartialPlacement(state),
                                  bandwidth_sort_order(topology), pool,
                                  config.use_estimate_context,
                                  config.use_candidate_index);
    fallback.stats.candidates_evaluated += eg.stats.candidates_evaluated;
    fallback.stats.heuristic_calls += eg.stats.heuristic_calls;
    ++fallback.stats.eg_reruns;
    fallback.feasible = eg.feasible;
    if (eg.feasible) {
      fallback.state = std::move(eg.state);
    } else {
      fallback.failure = std::move(eg.failure);
    }
    fallback.stats.budget_retries = retries;
    fallback.stats.hit_open_limit = true;
    fallback.stats.truncated = true;
    return fallback;
  }
}

}  // namespace

Placement place_topology(const dc::Occupancy& base,
                         const topo::AppTopology& topology,
                         Algorithm algorithm, const SearchConfig& config,
                         const net::Assignment* pinned,
                         util::ThreadPool* pool, BudgetController* budget) {
  config.validate();
  static util::metrics::Counter& m_plans =
      util::metrics::counter("scheduler.plans");
  static util::metrics::Counter& m_infeasible =
      util::metrics::counter("scheduler.plans_infeasible");
  static util::metrics::Summary& m_plan_seconds =
      util::metrics::summary("scheduler.plan_seconds");
  const util::metrics::ScopedTimer phase_timer(m_plan_seconds);
  m_plans.inc();
  util::WallTimer timer;

  const Objective objective(topology, base.datacenter(), config);
  PartialPlacement state(topology, base, objective, config.use_prune_labels);

  // Pre-place pinned nodes (online adaptation, Section IV-E).  Pins go
  // through the same constraint checks as search decisions.
  if (pinned != nullptr && !pinned->empty()) {
    if (pinned->size() != topology.node_count()) {
      throw std::invalid_argument("place_topology: pinned size mismatch");
    }
    for (topo::NodeId v = 0; v < pinned->size(); ++v) {
      const dc::HostId host = (*pinned)[v];
      if (host == dc::kInvalidHost) continue;
      if (!state.can_place(v, host)) {
        m_infeasible.inc();
        Placement out;
        out.feasible = false;
        out.failure_reason = "pinned node " + topology.node(v).name +
                             " no longer fits its host";
        out.stats.runtime_seconds = timer.elapsed_seconds();
        return out;
      }
      state.place(v, host);
    }
  }

  switch (algorithm) {
    case Algorithm::kEg:
    case Algorithm::kEgC:
    case Algorithm::kEgBw: {
      const auto order = (algorithm == Algorithm::kEgBw)
                             ? bandwidth_sort_order(topology)
                             : eg_sort_order(topology);
      GreedyOutcome outcome =
          run_greedy(algorithm, std::move(state), order, pool,
                     config.use_estimate_context, config.use_candidate_index);
      if (!outcome.feasible) m_infeasible.inc();
      return to_placement(outcome.feasible, std::move(outcome.failure),
                          std::move(outcome.state), outcome.stats,
                          timer.elapsed_seconds());
    }
    case Algorithm::kBaStar:
    case Algorithm::kDbaStar: {
      const bool deadline_bounded = algorithm == Algorithm::kDbaStar;
      AStarOutcome outcome = [&] {
        if (config.budget_mode == BudgetMode::kFixed) {
          // Bit-identical to the pre-controller behavior (and to the paper
          // benches): the configured constants, one attempt, no controller.
          return run_astar(std::move(state), config, deadline_bounded, pool);
        }
        BudgetController ephemeral;
        return run_astar_adaptive(state, config, deadline_bounded, pool,
                                  budget != nullptr ? *budget : ephemeral);
      }();
      if (!outcome.feasible) m_infeasible.inc();
      return to_placement(outcome.feasible, std::move(outcome.failure),
                          std::move(outcome.state), outcome.stats,
                          timer.elapsed_seconds());
    }
  }
  throw std::logic_error("place_topology: unknown algorithm");
}

OstroScheduler::OstroScheduler(const dc::DataCenter& datacenter,
                               SearchConfig defaults)
    : datacenter_(&datacenter),
      occupancy_(datacenter),
      defaults_(defaults),
      pool_(std::make_unique<util::ThreadPool>(defaults.threads)) {
  defaults_.validate();
}

Placement OstroScheduler::plan(const topo::AppTopology& topology,
                               Algorithm algorithm) const {
  return plan(topology, algorithm, defaults_);
}

Placement OstroScheduler::plan(const topo::AppTopology& topology,
                               Algorithm algorithm,
                               const SearchConfig& config) const {
  return place_topology(occupancy_, topology, algorithm, config, nullptr,
                        pool_.get(), &budget_controller_);
}

Placement OstroScheduler::plan(const PlacementRequest& request,
                               Algorithm algorithm) const {
  if (request.topology == nullptr) {
    throw std::invalid_argument("OstroScheduler::plan: null topology");
  }
  return place_topology(occupancy_, *request.topology, algorithm,
                        request.config,
                        request.pinned.empty() ? nullptr : &request.pinned,
                        pool_.get(), &budget_controller_);
}

Placement OstroScheduler::plan_against(const dc::Occupancy& snapshot,
                                       const topo::AppTopology& topology,
                                       Algorithm algorithm,
                                       const SearchConfig& config) const {
  if (&snapshot.datacenter() != datacenter_) {
    throw std::invalid_argument(
        "OstroScheduler::plan_against: snapshot of another data center");
  }
  return place_topology(snapshot, topology, algorithm, config, nullptr,
                        pool_.get(), &budget_controller_);
}

Placement OstroScheduler::deploy(const topo::AppTopology& topology,
                                 Algorithm algorithm) {
  return deploy(topology, algorithm, defaults_);
}

Placement OstroScheduler::deploy(const topo::AppTopology& topology,
                                 Algorithm algorithm,
                                 const SearchConfig& config) {
  Placement placement = place_topology(occupancy_, topology, algorithm,
                                       config, nullptr, pool_.get(),
                                       &budget_controller_);
  if (placement.feasible && !placement.bandwidth_overcommitted) {
    commit(topology, placement);
    placement.committed = true;
  } else if (placement.feasible) {
    placement.failure_reason =
        "placement overcommits link bandwidth; not committed";
  }
  return placement;
}

void OstroScheduler::commit(const topo::AppTopology& topology,
                            const Placement& placement) {
  static util::metrics::Counter& m_commits =
      util::metrics::counter("scheduler.commits");
  static util::metrics::Summary& m_commit_seconds =
      util::metrics::summary("scheduler.commit_seconds");
  const util::metrics::ScopedTimer phase_timer(m_commit_seconds);
  m_commits.inc();
  if (!placement.feasible) {
    throw std::invalid_argument(
        "OstroScheduler::commit: placement is infeasible");
  }
  if (placement.bandwidth_overcommitted) {
    throw std::invalid_argument(
        "OstroScheduler::commit: placement overcommits link bandwidth");
  }
  net::commit_placement(occupancy_, topology, placement.assignment);
}

}  // namespace ostro::core
