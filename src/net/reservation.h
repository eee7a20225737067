// Applying a placed stack to the data-center occupancy.
//
// A placed stack charges the occupancy two things (Section II-B): each
// node's resources on its host, and each pipe's bandwidth on every link of
// its tree path.  stack_ops() lists those charges in the one order that
// every commit, release, migration, shard commit and replay applies them;
// stage_ops() stages the list into an OccupancyDelta in either direction
// and apply_ops() flushes it in one batch.  Because every path applies the
// same ops in the same order, a serial replay reproduces an occupancy bit
// for bit.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "datacenter/occupancy.h"
#include "datacenter/state_delta.h"
#include "topology/app_topology.h"

namespace ostro::net {

/// Node-to-host mapping; index = NodeId, value = HostId
/// (dc::kInvalidHost for unplaced nodes is not allowed here).
using Assignment = std::vector<dc::HostId>;

/// The occupancy ops of one placed stack.
struct StackOps {
  /// (host, requirements) per node, in node order.
  std::vector<std::pair<dc::HostId, topo::Resources>> host_loads;
  /// (link, mbps) per link of each pipe's path: pipes in edge order, each
  /// pipe's links in path order.
  std::vector<std::pair<dc::LinkId, double>> link_mbps;
};

/// Lists the ops of `topology` placed by `assignment` on `datacenter`.
/// Throws std::invalid_argument on a size mismatch or an unplaced node.
[[nodiscard]] StackOps stack_ops(const dc::DataCenter& datacenter,
                                 const topo::AppTopology& topology,
                                 const Assignment& assignment);

enum class OpDirection : std::uint8_t { kReserve, kRelease };

/// Stages every op of `ops` into `delta`, host loads first, each with
/// OccupancyDelta's check (capacity for kReserve, never below zero for
/// kRelease).  Throws std::invalid_argument at the first op that fails;
/// `delta` then holds part of the ops and must be discarded.
void stage_ops(dc::OccupancyDelta& delta, const StackOps& ops,
               OpDirection direction);

/// Stages `ops` against `occupancy` and flushes them in one batch (one
/// epoch bump).  A release then deactivates each host of `ops.host_loads`
/// left with zero tracked load (Occupancy::deactivate_if_idle) — pass
/// `deactivate_emptied` = false when hosts carry untracked background
/// tenants modeled via mark_active.  Throws std::invalid_argument when an
/// op fails its check; `occupancy` is untouched in that case.
void apply_ops(dc::Occupancy& occupancy, const StackOps& ops,
               OpDirection direction, bool deactivate_emptied = true);

/// Stages moving node `node` of `topology` from `working[node]` to `to`:
/// its load leaves the old host and lands on `to`, then for each neighbour
/// the pipe's old path is released and its new path reserved.  On success
/// `working[node]` becomes `to`; on a capacity failure it throws
/// std::invalid_argument with `working` unchanged and `delta` holding part
/// of the move (discard it).
void stage_move(dc::OccupancyDelta& delta, const topo::AppTopology& topology,
                Assignment& working, topo::NodeId node, dc::HostId to);

/// Reserves the stack's ops on `occupancy` (apply_ops, kReserve), or throws
/// std::invalid_argument leaving `occupancy` unchanged.
void commit_placement(dc::Occupancy& occupancy,
                      const topo::AppTopology& topology,
                      const Assignment& assignment);

/// Inverse of commit_placement (apply_ops, kRelease).  Throws
/// std::invalid_argument on a malformed assignment or when a release
/// exceeds what is reserved (e.g. a double release); `occupancy` is
/// untouched in that case.
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
