// Applying a finished placement to the data-center occupancy.
//
// PlacementTransaction reserves every node's host resources and every pipe's
// bandwidth along its physical path, with all-or-nothing semantics: if any
// reservation fails the occupancy is untouched.  The Heat engine
// (src/openstack) and the experiment runner use it to commit successive
// applications onto a shared data center.
#pragma once

#include <vector>

#include "datacenter/occupancy.h"
#include "datacenter/state_delta.h"
#include "topology/app_topology.h"

namespace ostro::net {

/// Node-to-host mapping; index = NodeId, value = HostId
/// (dc::kInvalidHost for unplaced nodes is not allowed here).
using Assignment = std::vector<dc::HostId>;

/// RAII transaction: apply() reserves, commit() keeps, destruction rolls
/// back whatever is still pending.
///
/// apply() stages every op in an OccupancyDelta and flushes it with one
/// Occupancy::apply_delta batch once everything validated, so a failed
/// apply never touches the occupancy — no reserve/release churn.
///
/// State invariant: the transaction tracks exactly the reservations it has
/// made and not yet committed or rolled back.  A failed apply() leaves the
/// transaction *empty but reusable* — apply() may be called again (on the
/// same or a corrected assignment), and destruction is a no-op until it
/// succeeds.  commit() and rollback() also return the transaction to the
/// empty, reusable state.
class PlacementTransaction {
 public:
  explicit PlacementTransaction(dc::Occupancy& occupancy)
      : occupancy_(&occupancy), delta_(occupancy) {}
  ~PlacementTransaction();

  PlacementTransaction(const PlacementTransaction&) = delete;
  PlacementTransaction& operator=(const PlacementTransaction&) = delete;

  /// Reserves all resources of `topology` mapped by `assignment`.
  /// Throws std::invalid_argument on any capacity violation or malformed
  /// assignment; the occupancy is left exactly as before the call and the
  /// transaction is empty and reusable.
  void apply(const topo::AppTopology& topology, const Assignment& assignment);

  /// Keeps the reservations; the transaction becomes empty and reusable.
  void commit() noexcept;

  /// Explicit rollback of everything applied and not yet committed; the
  /// transaction becomes empty and reusable.
  void rollback() noexcept;

  /// True when the transaction holds no pending reservations.
  [[nodiscard]] bool empty() const noexcept {
    return host_ops_.empty() && link_ops_.empty();
  }

 private:
  struct HostOp {
    dc::HostId host;
    topo::Resources load;
    bool was_active = false;  ///< active flag before this op (for rollback)
  };
  struct LinkOp {
    dc::LinkId link;
    double mbps;
  };

  dc::Occupancy* occupancy_;
  /// Staging overlay reused across apply() calls.
  dc::OccupancyDelta delta_;
  std::vector<HostOp> host_ops_;
  std::vector<LinkOp> link_ops_;
};

/// One-shot convenience: apply and commit, or throw leaving `occupancy`
/// unchanged.
void commit_placement(dc::Occupancy& occupancy,
                      const topo::AppTopology& topology,
                      const Assignment& assignment);

/// Inverse of commit_placement: releases every node's host load and every
/// pipe's bandwidth along its physical path, staged in one OccupancyDelta
/// and flushed atomically (one epoch bump).  Throws std::invalid_argument
/// on a malformed assignment or when a release exceeds what is reserved
/// (e.g. a double release); `occupancy` is untouched in that case.  When
/// `deactivate_emptied` is set (the default), each distinct host in the
/// assignment that ends up with zero tracked load is also deactivated
/// (Occupancy::deactivate_if_idle) — pass false when hosts carry untracked
/// background tenants modeled via mark_active.
void release_placement(dc::Occupancy& occupancy,
                       const topo::AppTopology& topology,
                       const Assignment& assignment,
                       bool deactivate_emptied = true);

/// Bandwidth the placement reserves on physical links, i.e. the paper's
/// u_bw: each pipe contributes bandwidth × links-traversed (0 when both
/// endpoints share a host).
[[nodiscard]] double reserved_bandwidth_mbps(const dc::DataCenter& dc,
                                             const topo::AppTopology& topology,
                                             const Assignment& assignment);

}  // namespace ostro::net
