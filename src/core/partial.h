// Partial placement state used by every search algorithm.
//
// A PartialPlacement layers the tentative placement of one application on
// top of a const base Occupancy: per-host resource deltas, per-link
// bandwidth deltas, the set of newly activated hosts, the committed
// bandwidth cost u_bw, and an admissible lower bound on the bandwidth cost
// of the pipes that are not fully placed yet.  Copying a PartialPlacement is
// cheap — O(|V| + deltas), independent of |E| — which is what lets BA*
// branch thousands of search paths off a shared base state (Section III-B
// of the paper).
//
// The lower bound per pipe is the separation the constraints *force*:
//  - a diversity zone covering both endpoints forces at least its level;
//  - two endpoints whose combined requirements exceed the largest host in
//    the data center can never share a host (>= rack scope, 2 links);
//  - once one endpoint is placed on host h, zone members already placed
//    tighten the scope the free endpoint can reach relative to h, and a
//    free endpoint that no longer fits h's residual capacity cannot land
//    on h (>= 2 links).
// Everything else is optimistically assumed co-locatable (0 links), so the
// bound never exceeds the true completion cost; BA* relies on this for
// optimality (the "admissible heuristic" of Section III-A-2).  The sum of
// all pipe bounds is maintained incrementally and exactly: place() visits
// precisely the pipes whose bound its mutation can change (the new node's
// pipes, pipes of other residents of the chosen host, and pipes constrained
// by the node's zones) and applies the delta.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/objective.h"
#include "core/types.h"
#include "datacenter/occupancy.h"
#include "topology/app_topology.h"

namespace ostro::core {

class PartialPlacement {
 public:
  /// `use_prune_labels` opts the admissible bound into the precomputed
  /// dc::PruneLabels tighteners (SearchConfig::use_prune_labels); the
  /// default keeps the reference bound so direct constructions (tests,
  /// differential baselines) are unaffected.
  PartialPlacement(const topo::AppTopology& topology,
                   const dc::Occupancy& base, const Objective& objective,
                   bool use_prune_labels = false);

  // ---- placement progress ----
  [[nodiscard]] bool is_placed(topo::NodeId node) const {
    return assignment_[node] != dc::kInvalidHost;
  }
  [[nodiscard]] dc::HostId host_of(topo::NodeId node) const {
    return assignment_[node];
  }
  [[nodiscard]] std::size_t placed_count() const noexcept { return placed_count_; }
  [[nodiscard]] bool complete() const noexcept {
    return placed_count_ == assignment_.size();
  }
  [[nodiscard]] const net::Assignment& assignment() const noexcept {
    return assignment_;
  }

  // ---- resource views (base occupancy minus this placement's deltas) ----
  [[nodiscard]] topo::Resources available(dc::HostId host) const;
  [[nodiscard]] double link_available(dc::LinkId link) const;
  /// Host is active in the base occupancy or has a node of this placement.
  [[nodiscard]] bool is_active(dc::HostId host) const;

  // ---- constraint checks (Section II-B-2; tags/affinity/latency are the
  // ---- property extensions of the introduction and Section VI) ----
  [[nodiscard]] bool capacity_ok(topo::NodeId node, dc::HostId host) const;
  [[nodiscard]] bool zones_ok(topo::NodeId node, dc::HostId host) const;
  /// Pipes to already-placed neighbors, aggregated per physical link.
  [[nodiscard]] bool bandwidth_ok(topo::NodeId node, dc::HostId host) const;
  /// Host carries every hardware tag the node requires.
  [[nodiscard]] bool tags_ok(topo::NodeId node, dc::HostId host) const;
  /// Placed members of the node's affinity groups share `host`'s unit.
  [[nodiscard]] bool affinity_ok(topo::NodeId node, dc::HostId host) const;
  /// Latency-capped pipes to placed neighbors stay within budget.
  [[nodiscard]] bool latency_ok(topo::NodeId node, dc::HostId host) const;
  /// Every constraint except pipe bandwidth — what the EG_C baseline
  /// checks ("merely performs bin-packing based on available host
  /// resources", Section IV-A); its placements may overcommit links.
  [[nodiscard]] bool can_place_except_bandwidth(topo::NodeId node,
                                                dc::HostId host) const {
    return capacity_ok(node, host) && tags_ok(node, host) &&
           zones_ok(node, host) && affinity_ok(node, host) &&
           latency_ok(node, host);
  }
  [[nodiscard]] bool can_place(topo::NodeId node, dc::HostId host) const {
    return can_place_except_bandwidth(node, host) && bandwidth_ok(node, host);
  }

  /// True when some physical link carries more than its availability —
  /// only possible for placements built without the bandwidth constraint.
  [[nodiscard]] bool has_link_overcommit() const;

  /// Commits `node` to `host`; the caller must have verified can_place().
  /// Throws std::logic_error for an already-placed node or invalid host.
  void place(topo::NodeId node, dc::HostId host);

  // ---- objective bookkeeping ----
  /// Committed u_bw: link-weighted bandwidth of fully placed pipes.
  [[nodiscard]] double ubw() const noexcept { return ubw_; }
  /// Committed u_c: hosts idle in the base that this placement activated.
  [[nodiscard]] int new_active_hosts() const noexcept {
    return static_cast<int>(newly_active_.size());
  }
  /// Admissible lower bound on the u_bw still to be added.
  [[nodiscard]] double remaining_bw_bound() const noexcept { return bound_sum_; }
  /// Objective value of the committed part only.
  [[nodiscard]] double utility_committed() const noexcept {
    return objective_->utility(ubw_, new_active_hosts());
  }
  /// Committed + admissible bound: never exceeds the utility of any feasible
  /// completion of this partial placement.
  [[nodiscard]] double utility_bound() const noexcept {
    return objective_->utility(ubw_ + bound_sum_, new_active_hosts());
  }

  [[nodiscard]] const topo::AppTopology& topology() const noexcept {
    return *topology_;
  }
  [[nodiscard]] const dc::Occupancy& base() const noexcept { return *base_; }
  [[nodiscard]] const dc::DataCenter& datacenter() const noexcept {
    return base_->datacenter();
  }
  [[nodiscard]] const Objective& objective() const noexcept {
    return *objective_;
  }

  /// Whether the admissible bound (and the candidate descent) consult the
  /// base occupancy's dc::PruneLabels.  Fixed at construction; copies
  /// inherit it so every state of one search prices pipes identically (the
  /// lazy-priority invariant).
  [[nodiscard]] bool use_prune_labels() const noexcept {
    return use_prune_labels_;
  }

  /// Hosts carrying at least one node of this placement (the H* of
  /// Algorithm 1), in placement order without duplicates.
  [[nodiscard]] const std::vector<dc::HostId>& used_hosts() const noexcept {
    return used_hosts_;
  }

  /// Lowest scope `node` could have relative to `host` given zone members
  /// already placed and `host`'s residual capacity (kSameHost when nothing
  /// forbids co-location).
  [[nodiscard]] dc::Scope min_scope_to_host(topo::NodeId node,
                                            dc::HostId host) const;
  /// Zone-forced part of min_scope_to_host (ignores capacity).
  [[nodiscard]] dc::Scope zone_scope_to_host(topo::NodeId node,
                                             dc::HostId host) const;

  /// Current lower bound of one pipe (0 for fully placed pipes); computed
  /// on demand from the current state.
  [[nodiscard]] double edge_bound(std::uint32_t edge_index) const;

  /// Total bandwidth of pipes from nodes placed on `host` to still-unplaced
  /// nodes — the uplink demand this host will face if none of those
  /// neighbors co-locate.  EG's feasibility-risk screen compares it against
  /// the uplink headroom (see Estimator::candidate_estimate).
  [[nodiscard]] double pending_uplink_mbps(dc::HostId host) const;

  /// Same obligation aggregated at the rack level: pipes from nodes placed
  /// in `rack` to still-unplaced nodes, i.e. the ToR-uplink demand if none
  /// of them land in the same rack.  Guards against a whole tier being
  /// packed into one rack until its ToR uplink can no longer carry the
  /// remaining pipes.
  [[nodiscard]] double pending_rack_uplink_mbps(std::uint32_t rack) const;

  /// Total bandwidth of `node`'s pipes to already-placed neighbors, with
  /// those neighbors' hosts appended to `hosts_out` (one entry per pipe).
  /// These are the inputs of candidate generation's uplink prune: every
  /// candidate host must carry the whole demand on its own uplink unless a
  /// placed neighbor sits in the same subtree (see core/candidates.h).
  [[nodiscard]] double placed_neighbor_demand(
      topo::NodeId node, std::vector<dc::HostId>& hosts_out) const;

 private:
  [[nodiscard]] double edge_lower_bound(const topo::Edge& edge) const;
  /// Edge indices whose bound can change when `node` lands on `host`.
  void collect_affected_edges(topo::NodeId node, dc::HostId host,
                              std::vector<std::uint32_t>& out) const;

  const topo::AppTopology* topology_;
  const dc::Occupancy* base_;
  const Objective* objective_;
  bool use_prune_labels_ = false;

  net::Assignment assignment_;
  std::size_t placed_count_ = 0;
  std::unordered_map<dc::HostId, topo::Resources> host_delta_;
  std::unordered_map<dc::LinkId, double> link_delta_;
  std::unordered_map<dc::HostId, double> pending_uplink_;
  std::unordered_map<std::uint32_t, double> pending_rack_uplink_;
  std::vector<dc::HostId> newly_active_;
  std::vector<dc::HostId> used_hosts_;

  double ubw_ = 0.0;
  double bound_sum_ = 0.0;
};

}  // namespace ostro::core
