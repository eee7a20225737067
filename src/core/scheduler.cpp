#include "core/scheduler.h"

#include <stdexcept>
#include <utility>

#include "core/astar.h"
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

}  // namespace

Placement place_topology(const dc::Occupancy& base,
                         const topo::AppTopology& topology,
                         Algorithm algorithm, const SearchConfig& config,
                         const net::Assignment* pinned) {
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
          run_greedy(algorithm, std::move(state), order,
                     config.use_estimate_context, config.use_candidate_index);
      if (!outcome.feasible) m_infeasible.inc();
      return to_placement(outcome.feasible, std::move(outcome.failure),
                          std::move(outcome.state), outcome.stats,
                          timer.elapsed_seconds());
    }
    case Algorithm::kBaStar:
    case Algorithm::kDbaStar: {
      AStarOutcome outcome =
          run_astar(std::move(state), config,
                    /*deadline_bounded=*/algorithm == Algorithm::kDbaStar);
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
      defaults_(defaults) {
  defaults_.validate();
}

Placement OstroScheduler::plan(const topo::AppTopology& topology,
                               Algorithm algorithm) const {
  return plan(topology, algorithm, defaults_);
}

Placement OstroScheduler::plan(const topo::AppTopology& topology,
                               Algorithm algorithm,
                               const SearchConfig& config) const {
  return place_topology(occupancy_, topology, algorithm, config);
}

Placement OstroScheduler::plan(const PlacementRequest& request,
                               Algorithm algorithm) const {
  if (request.topology == nullptr) {
    throw std::invalid_argument("OstroScheduler::plan: null topology");
  }
  return place_topology(occupancy_, *request.topology, algorithm,
                        request.config,
                        request.pinned.empty() ? nullptr : &request.pinned);
}

Placement OstroScheduler::plan_against(const dc::Occupancy& snapshot,
                                       const topo::AppTopology& topology,
                                       Algorithm algorithm,
                                       const SearchConfig& config) const {
  if (&snapshot.datacenter() != datacenter_) {
    throw std::invalid_argument(
        "OstroScheduler::plan_against: snapshot of another data center");
  }
  return place_topology(snapshot, topology, algorithm, config);
}

Placement OstroScheduler::deploy(const topo::AppTopology& topology,
                                 Algorithm algorithm) {
  return deploy(topology, algorithm, defaults_);
}

Placement OstroScheduler::deploy(const topo::AppTopology& topology,
                                 Algorithm algorithm,
                                 const SearchConfig& config) {
  Placement placement =
      place_topology(occupancy_, topology, algorithm, config);
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
