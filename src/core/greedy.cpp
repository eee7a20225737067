#include "core/greedy.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/candidates.h"
#include "core/estimator.h"
#include "util/metrics.h"
#include "util/timer.h"

namespace ostro::core {
namespace {

constexpr double kTieEps = 1e-12;

struct Means {
  double cpu = 0.0, mem = 0.0, disk = 0.0, bw = 0.0;
};

[[nodiscard]] Means mean_requirements(const topo::AppTopology& topology) {
  Means m;
  for (const auto& node : topology.nodes()) {
    m.cpu += node.requirements.vcpus;
    m.mem += node.requirements.mem_gb;
    m.disk += node.requirements.disk_gb;
    m.bw += topology.incident_bandwidth(node.id);
  }
  const auto n = static_cast<double>(topology.node_count());
  m.cpu /= n;
  m.mem /= n;
  m.disk /= n;
  m.bw /= n;
  return m;
}

/// Buffers reused across pick_eg calls within one run_greedy, so the
/// per-step candidate scan allocates nothing once warm.
struct EgScratch {
  std::vector<Estimate> estimates;
  EstimateScratch estimate;
  CandidateBuffer candidates;
};

/// EG host choice: minimize utility(accumulated + estimate); u_c breaks
/// ties, then already-active hosts, then the lowest host id (determinism).
[[nodiscard]] dc::HostId pick_eg(const PartialPlacement& state,
                                 topo::NodeId node,
                                 std::span<const dc::HostId> candidates,
                                 bool use_context, EgScratch& scratch) {
  const double rest = Estimator::rest_bound(state, node);
  std::vector<Estimate>& estimates = scratch.estimates;
  estimates.resize(candidates.size());
  if (use_context) {
    const NodeEstimateContext context(state, node, rest);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      estimates[i] = context.estimate(candidates[i], scratch.estimate);
    }
  } else {
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      estimates[i] =
          Estimator::candidate_estimate(state, node, candidates[i], rest);
    }
  }

  const Objective& objective = state.objective();
  std::size_t best = 0;
  double best_score = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const double score =
        objective.utility(state.ubw() + estimates[i].ubw,
                          state.new_active_hosts() + estimates[i].uc);
    if (score + kTieEps < best_score) {
      best = i;
      best_score = score;
    } else if (score < best_score + kTieEps) {
      // Tie: fewer new activations, then prefer active hosts.
      const bool better_uc = estimates[i].uc < estimates[best].uc - kTieEps;
      const bool equal_uc =
          std::abs(estimates[i].uc - estimates[best].uc) <= kTieEps;
      const bool active_i = state.is_active(candidates[i]);
      const bool active_best = state.is_active(candidates[best]);
      if (better_uc || (equal_uc && active_i && !active_best)) {
        best = i;
        best_score = std::min(best_score, score);
      }
    }
  }
  return candidates[best];
}

/// EG_C host choice: best fit on remaining compute (then memory).
[[nodiscard]] dc::HostId pick_egc(const PartialPlacement& state,
                                  std::span<const dc::HostId> candidates) {
  dc::HostId best = candidates.front();
  topo::Resources best_avail = state.available(best);
  for (const dc::HostId host : candidates) {
    const topo::Resources avail = state.available(host);
    if (avail.vcpus < best_avail.vcpus - kTieEps ||
        (std::abs(avail.vcpus - best_avail.vcpus) <= kTieEps &&
         avail.mem_gb < best_avail.mem_gb - kTieEps)) {
      best = host;
      best_avail = avail;
    }
  }
  return best;
}

/// EG_BW host choice: minimize the actual bandwidth cost of the node's
/// pipes to placed neighbors; ties go to the host with the most available
/// uplink bandwidth ("EG_BW tries to use the hosts that have the most
/// available bandwidth first", Section IV-A).  A greedy search cannot
/// backtrack, so candidates whose uplink cannot carry the node's and its
/// co-residents' not-yet-placed pipes are deprioritized — without this the
/// baseline dead-ends on large topologies instead of producing the data
/// point the comparison needs.
[[nodiscard]] dc::HostId pick_egbw(const PartialPlacement& state,
                                   topo::NodeId node,
                                   std::span<const dc::HostId> candidates) {
  const topo::AppTopology& topology = state.topology();
  const dc::DataCenter& datacenter = state.datacenter();
  dc::HostId best = candidates.front();
  double best_cost = std::numeric_limits<double>::infinity();
  double best_uplink = -1.0;
  for (const dc::HostId host : candidates) {
    double cost = 0.0;
    double uplink_demand = state.pending_uplink_mbps(host);
    const std::uint32_t rack = datacenter.host(host).rack;
    double rack_demand = state.pending_rack_uplink_mbps(rack);
    for (const auto& nb : topology.neighbors(node)) {
      const dc::HostId other = state.host_of(nb.node);
      if (other == dc::kInvalidHost) {
        uplink_demand += nb.bandwidth_mbps;
        rack_demand += nb.bandwidth_mbps;
        continue;
      }
      const dc::Scope scope = datacenter.scope_between(host, other);
      cost += Objective::edge_cost(nb.bandwidth_mbps, scope);
      if (scope != dc::Scope::kSameHost) {
        uplink_demand += nb.bandwidth_mbps;
      } else {
        uplink_demand = std::max(0.0, uplink_demand - nb.bandwidth_mbps);
      }
      if (scope != dc::Scope::kSameHost && scope != dc::Scope::kSameRack) {
        rack_demand += nb.bandwidth_mbps;
      } else {
        rack_demand = std::max(0.0, rack_demand - nb.bandwidth_mbps);
      }
    }
    const double uplink = state.link_available(datacenter.host_link(host));
    if (uplink_demand > uplink + kTieEps ||
        rack_demand >
            state.link_available(datacenter.rack_link(rack)) + kTieEps) {
      cost += state.objective().ubw_worst();  // feasibility-risk screen
    }
    if (cost + kTieEps < best_cost ||
        (cost < best_cost + kTieEps && uplink > best_uplink + kTieEps)) {
      best = host;
      best_cost = std::min(cost, best_cost);
      best_uplink = uplink;
    }
  }
  return best;
}

}  // namespace

std::vector<topo::NodeId> eg_sort_order(const topo::AppTopology& topology) {
  const Means means = mean_requirements(topology);
  std::vector<double> weight(topology.node_count(), 0.0);
  for (const auto& node : topology.nodes()) {
    double w = 0.0;
    if (means.cpu > 0.0) w += node.requirements.vcpus / means.cpu;
    if (means.mem > 0.0) w += node.requirements.mem_gb / means.mem;
    if (means.disk > 0.0) w += node.requirements.disk_gb / means.disk;
    if (means.bw > 0.0) w += topology.incident_bandwidth(node.id) / means.bw;
    weight[node.id] = w;
  }
  std::vector<topo::NodeId> order(topology.node_count());
  for (topo::NodeId v = 0; v < order.size(); ++v) order[v] = v;
  std::stable_sort(order.begin(), order.end(),
                   [&](topo::NodeId a, topo::NodeId b) {
                     if (weight[a] != weight[b]) return weight[a] > weight[b];
                     return a < b;
                   });
  return order;
}

std::vector<topo::NodeId> bandwidth_sort_order(
    const topo::AppTopology& topology) {
  std::vector<topo::NodeId> order(topology.node_count());
  for (topo::NodeId v = 0; v < order.size(); ++v) order[v] = v;
  std::stable_sort(order.begin(), order.end(),
                   [&](topo::NodeId a, topo::NodeId b) {
                     const double bwa = topology.incident_bandwidth(a);
                     const double bwb = topology.incident_bandwidth(b);
                     if (bwa != bwb) return bwa > bwb;
                     return a < b;
                   });
  return order;
}

GreedyOutcome run_greedy(Algorithm variant, PartialPlacement state,
                         std::span<const topo::NodeId> order,
                         bool use_estimate_context, bool use_candidate_index) {
  if (variant != Algorithm::kEg && variant != Algorithm::kEgC &&
      variant != Algorithm::kEgBw) {
    throw std::invalid_argument("run_greedy: not a greedy variant");
  }
  static util::metrics::Counter& m_runs = util::metrics::counter("greedy.runs");
  static util::metrics::Counter& m_candidates =
      util::metrics::counter("greedy.candidates_evaluated");
  static util::metrics::Counter& m_placed =
      util::metrics::counter("greedy.nodes_placed");
  static util::metrics::Counter& m_failures =
      util::metrics::counter("greedy.no_candidate_failures");
  static util::metrics::Counter& m_estimates =
      util::metrics::counter("estimator.candidate_estimates");
  static util::metrics::Summary& m_seconds =
      util::metrics::summary("greedy.run_seconds");
  const util::metrics::ScopedTimer phase_timer(m_seconds);
  const util::WallTimer timer;
  m_runs.inc();

  GreedyOutcome outcome(std::move(state));
  // EG_C is the paper's pure bin-packing baseline: it ignores the pipes
  // entirely, so its candidate set skips the bandwidth constraint and its
  // placements may overcommit links (callers check has_link_overcommit()).
  const bool check_bandwidth = variant != Algorithm::kEgC;
  EgScratch scratch;
  for (const topo::NodeId node : order) {
    if (outcome.state.is_placed(node)) continue;
    const std::vector<dc::HostId>& candidates =
        get_candidates(outcome.state, node, scratch.candidates,
                       check_bandwidth, use_candidate_index);
    if (candidates.empty()) {
      m_failures.inc();
      outcome.failure = "no feasible host for node " +
                        outcome.state.topology().node(node).name;
      outcome.stats.runtime_seconds = timer.elapsed_seconds();
      return outcome;
    }
    m_candidates.add(candidates.size());
    outcome.stats.candidates_evaluated += candidates.size();
    if (variant == Algorithm::kEg) {
      // pick_eg scores every candidate with the estimate heuristic; the
      // fan is counted here, once per fan.
      outcome.stats.heuristic_calls += candidates.size();
      m_estimates.add(candidates.size());
    }
    dc::HostId chosen = dc::kInvalidHost;
    switch (variant) {
      case Algorithm::kEg:
        chosen = pick_eg(outcome.state, node, candidates,
                         use_estimate_context, scratch);
        break;
      case Algorithm::kEgC:
        chosen = pick_egc(outcome.state, candidates);
        break;
      case Algorithm::kEgBw:
        chosen = pick_egbw(outcome.state, node, candidates);
        break;
      default:
        break;  // unreachable; validated above
    }
    outcome.state.place(node, chosen);
    m_placed.inc();
  }
  outcome.feasible = outcome.state.complete();
  if (!outcome.feasible && outcome.failure.empty()) {
    outcome.failure = "order did not cover all nodes";
  }
  outcome.stats.runtime_seconds = timer.elapsed_seconds();
  return outcome;
}

}  // namespace ostro::core
