// Hierarchical feasibility index: the one per-subtree summary of an
// Occupancy, maintained incrementally by Occupancy::apply_delta (DESIGN.md
// sections 7 and 12).
//
// For every unit of the data-center tree (rack, pod, site, and the root)
// the index keeps
//   * the component-wise maximum free CPU / memory / disk over the hosts of
//     the subtree,
//   * the maximum free host-uplink bandwidth over those hosts,
//   * the number of "feasible" hosts (strictly positive free capacity in
//     every dimension) and of "compute-feasible" hosts (strictly positive
//     free vcpus and mem_gb, disk ignored), and
//   * the static host count of the subtree.
// Pods and sites also count their children that hold a compute-feasible
// host, and three counters track how many racks / pods / sites can still
// hold a *pair* of nodes separated at that level.
//
// Candidate generation (core::get_candidates) descends the tree and skips a
// whole subtree when its aggregates cannot satisfy a node's requirements —
// the aggregates are upper bounds on what any single host in the subtree
// offers, so a subtree they reject contains no feasible host and the prune
// is sound (never drops a host the linear scan would keep).  The admissible
// bound of BA*/DBA* escalates pipe scopes through tighten_separation and
// tighten_to_host.  Search-side overlays (core::PartialPlacement deltas,
// OccupancyDelta staging) only consume capacity on top of the base, so the
// base aggregates stay sound upper bounds for the overlay views as well.
//
// The index holds no per-host state: the owning Occupancy is the one copy
// of it, and every call that needs a host's free capacity or uplink takes
// that occupancy as an argument.  The index stores no pointer back to it,
// so a copied Occupancy carries a self-contained index.
//
// Update cost: set_host_free / set_host_uplink_free walk the ancestor chain
// (rack -> pod -> site -> root).  A level rescans its direct children only
// when the child that changed previously attained the level's maximum and
// shrank; otherwise the level updates in O(1) and the walk stops as soon as
// a level's aggregate is unchanged.  Host counts and the pair counters
// always update in exact O(depth).
#pragma once

#include <cstdint>
#include <vector>

#include "datacenter/datacenter.h"
#include "topology/resources.h"

namespace ostro::dc {

class Occupancy;

/// Compute-feasibility of a host's free capacity: strictly positive free
/// vcpus AND mem_gb, disk ignored.  Deliberately weaker than the
/// all-dimensions `feasible_hosts` predicate: the separation ladder and the
/// host climb use these counts only to conclude impossibility, so they must
/// over-approximate the hosts that could receive a node — and a
/// disk-exhausted host can still receive a zero-disk VM.
[[nodiscard]] inline bool compute_feasible(
    const topo::Resources& free) noexcept {
  return free.vcpus > 0.0 && free.mem_gb > 0.0;
}

/// Positive compute requirements (vcpus and mem_gb): only then does "no
/// compute-feasible host" imply "this node cannot land there".  A volume
/// (zero compute) fits a compute-exhausted host, which the compute counts
/// don't see, so it must not be tightened dynamically.
[[nodiscard]] inline bool requires_compute(const topo::Resources& r) noexcept {
  constexpr double kEps = 1e-9;
  return r.vcpus > kEps && r.mem_gb > kEps;
}

class FeasibilityIndex {
 public:
  struct Aggregate {
    /// Component-wise max over the free resources of the subtree's hosts.
    /// Not attained by one host in general: the max-CPU host and the
    /// max-memory host may differ, which is exactly why rejecting a request
    /// against it is sound while accepting still needs the per-host check.
    topo::Resources max_free;
    /// Max free host->ToR uplink bandwidth over the subtree's hosts.
    double max_free_uplink_mbps = 0.0;
    /// Hosts with strictly positive free capacity in every dimension.
    std::uint32_t feasible_hosts = 0;
    /// Hosts that pass compute_feasible (vcpus and mem_gb only).
    std::uint32_t compute_feasible_hosts = 0;
    /// Static number of hosts in the subtree.
    std::uint32_t host_count = 0;

    friend bool operator==(const Aggregate&, const Aggregate&) = default;
  };

  FeasibilityIndex() = default;

  /// Derives every aggregate and counter from `occupancy`'s per-host state.
  /// Its DataCenter must outlive the index.
  void rebuild(const Occupancy& occupancy);

  // ---- incremental updates (called by Occupancy::apply_delta) ----
  /// Host `h`'s free resources moved from `old_free` to
  /// `occupancy.available(h)`: refreshes both host counts, the pair
  /// counters and the maxima along its ancestor chain in one walk.
  void set_host_free(HostId h, const topo::Resources& old_free,
                     const Occupancy& occupancy);
  /// Same for the host's free uplink bandwidth, which moved from
  /// `old_free_mbps` to the occupancy's current value.
  void set_host_uplink_free(HostId h, double old_free_mbps,
                            const Occupancy& occupancy);

  // ---- queries ----
  [[nodiscard]] const Aggregate& rack(std::uint32_t r) const {
    return rack_[r];
  }
  [[nodiscard]] const Aggregate& pod(std::uint32_t p) const { return pod_[p]; }
  [[nodiscard]] const Aggregate& site(std::uint32_t s) const {
    return site_[s];
  }
  [[nodiscard]] const Aggregate& root() const noexcept { return root_; }

  /// Racks with >= 2 compute-feasible hosts.
  [[nodiscard]] std::uint32_t racks_with_multi_feasible() const noexcept {
    return racks_multi_feasible_;
  }
  /// Pods with >= 2 racks that each hold a compute-feasible host.
  [[nodiscard]] std::uint32_t pods_with_multi_feasible_racks() const noexcept {
    return pods_multi_feasible_racks_;
  }
  /// Sites with >= 2 pods that each hold a compute-feasible host.
  [[nodiscard]] std::uint32_t sites_with_multi_feasible_pods() const noexcept {
    return sites_multi_feasible_pods_;
  }

  // ---- admissible-bound tighteners (O(1) / O(depth <= 3)) ----

  /// Escalates the scope of a pipe between two *free* nodes as far as the
  /// pair counters and the DataCenter's structural floors allow: if no rack
  /// can hold two distinct (compute-feasible, when `both_positive`) hosts,
  /// same-rack becomes same-pod, and so on up the ladder.  Monotone in
  /// `scope`; identity for kSameHost/kCrossSite.  `both_positive` must be
  /// true only when both endpoints pass requires_compute.
  [[nodiscard]] Scope tighten_separation(Scope scope, bool both_positive) const;

  /// Escalates the scope of a pipe between a free node (requirements
  /// `req`, `positive` iff requires_compute(req), pipe bandwidth
  /// `bw_mbps`) and a node already placed on `host`, by climbing the
  /// host's ancestor chain: a level that cannot fit the free node
  /// (max_free), offer it a compute-feasible host outside the next smaller
  /// unit, or carry `bw_mbps` on any member uplink pushes the pipe one
  /// level up.  `occupancy` is the one this index describes; it tells
  /// whether `host` itself is compute-feasible.  Monotone in `scope`;
  /// identity for kSameHost (co-location is priced by the caller's
  /// capacity check).
  [[nodiscard]] Scope tighten_to_host(Scope scope, HostId host,
                                      const topo::Resources& req,
                                      bool positive, double bw_mbps,
                                      const Occupancy& occupancy) const;

  /// True when every aggregate and counter equals a from-scratch rebuild
  /// over `occupancy` — the invariant the incremental updates must
  /// preserve.  Test hook; O(hosts).
  [[nodiscard]] bool selfcheck(const Occupancy& occupancy) const;

  friend bool operator==(const FeasibilityIndex&,
                         const FeasibilityIndex&) = default;

 private:
  /// Refreshes one scalar maximum along the ancestor chain after the host
  /// value moved `old_v` -> `new_v`.  `host_value(x)` reads host x's
  /// current value; `field(agg)` selects the same maximum in an aggregate.
  template <class HostValue, class Field>
  void refresh_max_chain(const HostAncestors& anc, double old_v, double new_v,
                         HostValue host_value, Field field);

  const DataCenter* dc_ = nullptr;
  std::vector<Aggregate> rack_;
  std::vector<Aggregate> pod_;
  std::vector<Aggregate> site_;
  Aggregate root_;
  std::vector<std::uint32_t> pod_feasible_racks_;  ///< racks, compute-feasible
  std::vector<std::uint32_t> site_feasible_pods_;  ///< pods, compute-feasible
  std::uint32_t racks_multi_feasible_ = 0;
  std::uint32_t pods_multi_feasible_racks_ = 0;
  std::uint32_t sites_multi_feasible_pods_ = 0;
};

}  // namespace ostro::dc
