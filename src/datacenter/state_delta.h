// Copy-on-write occupancy overlay for tentative reservations and releases.
//
// OccupancyDelta stages the mutations of a placement (host loads, link
// bandwidth) on top of a const Occupancy base without touching it: every
// staged op is validated against base-plus-delta exactly the way Occupancy
// validates a direct mutation, and the op sequence is recorded in order.
// Occupancy::apply_delta then flushes the whole delta in one batch, replaying
// the recorded ops with the same arithmetic a direct op-by-op application
// would have performed, so the resulting Occupancy is bit-identical to
// applying the ops one by one (see the differential tests).  A staging that
// turns out infeasible never touches the base at all.
//
// The delta stages both directions — remove_host_load / release_link mirror
// Occupancy's release mutators with the same validation and clamping
// arithmetic — so a whole departure or a migration (release old host + old
// paths, add new host + new paths) flushes as one atomic batch.
// net::stage_ops and net::stage_move (src/net/reservation.h) are the staging
// routines every commit, release and migration goes through.
//
// The delta snapshots base values on first touch; the base must not be
// mutated between staging and apply_delta (apply_delta verifies the
// snapshots and rejects a stale delta).
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "datacenter/occupancy.h"

namespace ostro::dc {

class OccupancyDelta {
 public:
  /// Overlay over `base`; the reference must outlive the delta.
  explicit OccupancyDelta(const Occupancy& base) : base_(&base) {}

  [[nodiscard]] const Occupancy& base() const noexcept { return *base_; }
  [[nodiscard]] const DataCenter& datacenter() const noexcept {
    return base_->datacenter();
  }

  // ---- overlay queries (base plus staged deltas) ----
  [[nodiscard]] topo::Resources available(HostId h) const;
  [[nodiscard]] double link_available_mbps(LinkId link) const;

  // ---- staged mutations ----
  /// Stages `load` on host `h`; throws std::invalid_argument when the host
  /// would exceed capacity (same check as Occupancy::add_host_load, against
  /// the staged running value).  The base is never touched.
  void add_host_load(HostId h, const topo::Resources& load);
  /// Stages a bandwidth reservation; throws std::invalid_argument when the
  /// link would exceed capacity (same check and epsilon as
  /// Occupancy::reserve_link).
  void reserve_link(LinkId link, double mbps);

  /// Stages a load release on host `h`; throws std::invalid_argument when
  /// more than the staged running value would be released (same check,
  /// epsilon and clamping as Occupancy::remove_host_load).
  void remove_host_load(HostId h, const topo::Resources& load);
  /// Stages a bandwidth release; same check and clamping as
  /// Occupancy::release_link.
  void release_link(LinkId link, double mbps);

  /// Discards everything staged; the delta is reusable.
  void clear() noexcept;
  [[nodiscard]] bool empty() const noexcept {
    return host_ops_.empty() && link_ops_.empty();
  }
  [[nodiscard]] std::size_t host_op_count() const noexcept {
    return host_ops_.size();
  }
  [[nodiscard]] std::size_t link_op_count() const noexcept {
    return link_ops_.size();
  }

 private:
  friend class Occupancy;  // apply_delta replays the op log

  /// Running effective value of one touched host/link: the value the base
  /// field would hold after the staged ops.  `initial` is the base value at
  /// first touch; apply_delta checks it to reject stale deltas.
  struct HostState {
    topo::Resources initial;
    topo::Resources effective;
  };
  struct LinkState {
    double initial = 0.0;
    double effective = 0.0;
  };
  struct HostOp {
    HostId host;
    topo::Resources load;
    bool release = false;  ///< remove_host_load instead of add_host_load
  };
  struct LinkOp {
    LinkId link;
    double mbps;
    bool release = false;  ///< release_link instead of reserve_link
  };

  const Occupancy* base_;
  std::unordered_map<HostId, HostState> host_state_;
  std::unordered_map<LinkId, LinkState> link_state_;
  std::vector<HostOp> host_ops_;
  std::vector<LinkOp> link_ops_;
};

}  // namespace ostro::dc
