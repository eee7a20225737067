// Staged occupancy writes: the one way host loads and link bandwidth change.
//
// OccupancyDelta stages the mutations of a batch (host loads, link
// bandwidth, in either direction) on top of a const Occupancy base without
// touching it.  Every staged op is checked against base-plus-delta —
// capacity for a reservation, never below zero for a release — and moves
// the staged value of the host or link it touches.  Occupancy::apply_delta
// then writes each touched entry's staged value in one batch; it is the
// only writer of an Occupancy's loads and bandwidth, so the check-and-clamp
// arithmetic exists once, in state_delta.cpp.  Every link a placement
// touches, the uplinks of sites split across shards included, lives in one
// Occupancy (dc::ShardLayout::link_owner).  A staging that turns out
// infeasible never touches the base at all.  A staged value
// comes from the same ops in the same order whether they arrive in one
// batch or one delta each, so batching never changes the result.
//
// net::stage_ops (src/net/reservation.h) is the staging routine every
// commit, release and migration goes through; set-up paths (preloads,
// occupancy files, quarantine, shard stitching) stage their own batch.
//
// The delta snapshots base values on first touch; the base must not be
// mutated between staging and apply_delta (apply_delta verifies the
// snapshots and rejects a stale delta).  Touched entries live in id-sorted
// vectors: a bulk stager that feeds ids in ascending order appends in O(1).
#pragma once

#include <cstddef>
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
  /// would exceed capacity (1e-9 slack per component).  apply_delta marks
  /// every host that received load active.
  void add_host_load(HostId h, const topo::Resources& load);
  /// Stages a bandwidth reservation; throws std::invalid_argument when the
  /// link would exceed capacity by more than 1e-9.
  void reserve_link(LinkId link, double mbps);

  /// Stages a load release on host `h`; throws std::invalid_argument when
  /// a component would drop below zero by more than 1e-6.  A component left
  /// within 1e-6 of zero becomes exactly 0, so releasing everything a host
  /// received leaves it at zero load.  Active flags are untouched: the
  /// caller decides when an emptied host goes dark (deactivate_if_idle).
  void remove_host_load(HostId h, const topo::Resources& load);
  /// Stages a bandwidth release; throws std::invalid_argument when it
  /// exceeds what is reserved by more than 1e-6.  A link left within 1e-6
  /// of zero becomes exactly 0.
  void release_link(LinkId link, double mbps);

  /// Discards everything staged; the delta is reusable.
  void clear() noexcept;
  [[nodiscard]] bool empty() const noexcept {
    return hosts_.empty() && links_.empty();
  }
  /// Host and link ops staged so far (failed ones excluded).
  [[nodiscard]] std::size_t host_op_count() const noexcept {
    return host_ops_;
  }
  [[nodiscard]] std::size_t link_op_count() const noexcept {
    return link_ops_;
  }

 private:
  friend class Occupancy;  // apply_delta writes the staged values

  /// One touched host or link.  `initial` is the base value at first touch
  /// (apply_delta checks it to reject stale deltas); `staged` the value
  /// after the ops staged so far.
  struct HostEntry {
    HostId id = 0;
    bool loaded = false;  ///< received load in this batch
    topo::Resources initial;
    topo::Resources staged;
  };
  struct LinkEntry {
    LinkId id = 0;
    double initial = 0.0;
    double staged = 0.0;
  };

  void stage_host(HostId h, const topo::Resources& load, bool release);
  void stage_link(LinkId link, double mbps, bool release);

  const Occupancy* base_;
  std::vector<HostEntry> hosts_;  ///< ascending id
  std::vector<LinkEntry> links_;  ///< ascending id
  std::size_t host_ops_ = 0;
  std::size_t link_ops_ = 0;
};

}  // namespace ostro::dc
