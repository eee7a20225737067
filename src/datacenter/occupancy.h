// Mutable occupancy state of a DataCenter: per-host used resources, per-link
// reserved bandwidth, and the host active/idle flag the u_c objective term
// counts (Section II-B-1: hosts "that already contain existing nodes of this
// or other applications (i.e., they are not idle)").  These arrays are the
// one copy of per-host state; the FeasibilityIndex kept beside them holds
// only per-subtree summaries.
//
// Occupancy is a plain value (copyable) so callers can snapshot/restore
// around tentative placements.  Loads and bandwidth change only through
// apply_delta(): every writer stages its batch in an OccupancyDelta
// (datacenter/state_delta.h), which holds the one copy of the capacity
// checks and release clamping.  Search paths layer core/partial.h
// (PartialPlacement) on top of a const Occupancy base instead.
#pragma once

#include <cstdint>
#include <vector>

#include "datacenter/datacenter.h"
#include "datacenter/feasibility_index.h"
#include "topology/resources.h"

namespace ostro::dc {

class OccupancyDelta;

class Occupancy {
 public:
  /// All-idle occupancy for `dc`. The reference must outlive the Occupancy.
  explicit Occupancy(const DataCenter& dc);

  [[nodiscard]] const DataCenter& datacenter() const noexcept { return *dc_; }

  // ---- queries ----
  [[nodiscard]] topo::Resources used(HostId h) const;
  [[nodiscard]] topo::Resources available(HostId h) const;
  /// available(h) and link_available_mbps(host_link(h)) without the id
  /// checks, for loops over valid host ids: the FeasibilityIndex rebuild
  /// and its rescans read every host of a subtree through these.  Host h's
  /// uplink is link h (DataCenter's link layout).
  [[nodiscard]] topo::Resources available_unchecked(HostId h) const noexcept {
    return dc_->hosts()[h].capacity - host_used_[h];
  }
  [[nodiscard]] double uplink_available_unchecked(HostId h) const noexcept {
    return dc_->hosts()[h].uplink_mbps - link_used_[h];
  }
  [[nodiscard]] double link_used_mbps(LinkId link) const;
  [[nodiscard]] double link_available_mbps(LinkId link) const;
  [[nodiscard]] bool is_active(HostId h) const;
  /// Number of hosts currently active (non-idle).
  [[nodiscard]] std::size_t active_host_count() const noexcept {
    return active_count_;
  }

  /// Monotonic mutation epoch: incremented by every state change (one per
  /// non-empty apply_delta batch, one per active-flag change).  Two reads
  /// returning the same version bracket a window with no interleaved
  /// mutation, which is what the optimistic plan-against-a-snapshot /
  /// validate-and-commit protocol of core::PlacementService relies on to
  /// detect stale snapshots.  The version is bookkeeping, not state: copies
  /// inherit it, equality ignores it.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  // ---- mutations ----
  /// The one writer of loads and bandwidth: writes every host and link
  /// value staged in `delta` (staged against *this* occupancy), marks each
  /// host that received load active, and bumps the version once.  Releases
  /// leave active flags alone.  Throws std::logic_error when the delta was
  /// staged against another occupancy or the base state changed since
  /// staging; this occupancy is untouched in that case.  Defined in
  /// state_delta.cpp.
  void apply_delta(const OccupancyDelta& delta);

  /// Marks a host active without adding load (e.g. pre-existing tenants that
  /// are modeled only as background load).
  void mark_active(HostId h);

  /// Deactivates `h` iff it is active and carries zero tracked load, and
  /// returns whether it did.  This is the release-path counterpart of the
  /// sticky activation in apply_delta: departures and migrations call it
  /// per vacated host so the u_c objective (count of non-idle hosts) stops
  /// charging for hosts that emptied out.  Callers that model untracked
  /// background tenants via mark_active must NOT call this — zero tracked
  /// load does not mean idle for them.
  bool deactivate_if_idle(HostId h);

  /// Total bandwidth reserved across all links (the u_bw measure).
  [[nodiscard]] double total_reserved_mbps() const noexcept;

  /// Per-subtree feasibility aggregates (max free resources / uplink,
  /// feasible and compute-feasible host counts, separation pair counters),
  /// kept in sync by apply_delta in O(tree depth) per touched host or link.
  /// Candidate generation prunes whole racks/pods/sites against these
  /// before any per-host constraint check, and the admissible-bound
  /// tighteners read them when SearchConfig::use_prune_labels is set.  The
  /// index holds no per-host state of its own: calls that need it take this
  /// occupancy.
  [[nodiscard]] const FeasibilityIndex& feasibility() const noexcept {
    return index_;
  }

  /// State equality: same datacenter, loads, reservations and active flags.
  /// The mutation version is deliberately excluded — two occupancies that
  /// reached the same state through different histories compare equal.
  friend bool operator==(const Occupancy& a, const Occupancy& b) noexcept {
    return a.dc_ == b.dc_ && a.host_used_ == b.host_used_ &&
           a.link_used_ == b.link_used_ && a.active_ == b.active_ &&
           a.active_count_ == b.active_count_ && a.index_ == b.index_;
  }

 private:
  void check_host(HostId h) const;
  void check_link(LinkId link) const;
  /// Refreshes the index after host `h`'s used resources moved from
  /// `old_used` to their current value.
  void index_host(HostId h, const topo::Resources& old_used);
  /// Same for `link`'s reserved bandwidth when it is a host uplink (other
  /// links carry no per-host aggregate).
  void index_link(LinkId link, double old_used);

  const DataCenter* dc_;
  std::vector<topo::Resources> host_used_;
  std::vector<double> link_used_;
  std::vector<bool> active_;
  std::size_t active_count_ = 0;
  std::uint64_t version_ = 0;
  FeasibilityIndex index_;
};

}  // namespace ostro::dc
