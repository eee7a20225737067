// OstroScheduler — the public entry point of the placement core.
//
// The scheduler owns the occupancy state of one data center and plans or
// deploys application topologies onto it with any of the five algorithms
// (Section III).  plan() is side-effect free; deploy() additionally commits
// the winning placement (host resources and pipe bandwidth) so that
// subsequent applications see the reduced capacity — the multi-tenant
// "non-uniform resource availability" regime of the paper.  Online
// adaptation (Section IV-E) is expressed through the `pinned` assignment of
// PlacementRequest: pinned nodes keep their hosts, free nodes (typically
// newly added ones) are optimized around them.
#pragma once

#include "core/types.h"
#include "core/partial.h"
#include "datacenter/occupancy.h"

namespace ostro::core {

class OstroScheduler {
 public:
  /// `datacenter` must outlive the scheduler.
  explicit OstroScheduler(const dc::DataCenter& datacenter,
                          SearchConfig defaults = {});

  [[nodiscard]] const dc::DataCenter& datacenter() const noexcept {
    return *datacenter_;
  }
  [[nodiscard]] const dc::Occupancy& occupancy() const noexcept {
    return occupancy_;
  }
  [[nodiscard]] dc::Occupancy& occupancy() noexcept { return occupancy_; }

  /// Computes a placement without committing anything.
  [[nodiscard]] Placement plan(const topo::AppTopology& topology,
                               Algorithm algorithm) const;
  [[nodiscard]] Placement plan(const topo::AppTopology& topology,
                               Algorithm algorithm,
                               const SearchConfig& config) const;
  /// Full-control variant (pinning for online adaptation, Section IV-E).
  [[nodiscard]] Placement plan(const PlacementRequest& request,
                               Algorithm algorithm) const;

  /// Plans against an explicit occupancy (a PlacementService snapshot)
  /// instead of the live one.  `snapshot` must belong to the same data
  /// center.
  [[nodiscard]] Placement plan_against(const dc::Occupancy& snapshot,
                                       const topo::AppTopology& topology,
                                       Algorithm algorithm,
                                       const SearchConfig& config) const;

  /// plan() + commit the result into the scheduler's occupancy.  The
  /// returned placement's `committed` flag reports whether the commit
  /// happened: it is false when the placement is infeasible or when it
  /// overcommits link bandwidth (only EG_C can produce the latter — such a
  /// placement is feasible-but-uncommittable and must not be counted as
  /// deployed).
  Placement deploy(const topo::AppTopology& topology, Algorithm algorithm);
  Placement deploy(const topo::AppTopology& topology, Algorithm algorithm,
                   const SearchConfig& config);

  /// Commits an externally computed feasible placement.  Throws
  /// std::invalid_argument for infeasible or bandwidth-overcommitted ones.
  void commit(const topo::AppTopology& topology, const Placement& placement);

  /// The SearchConfig the single-argument plan()/deploy() overloads use.
  [[nodiscard]] const SearchConfig& defaults() const noexcept {
    return defaults_;
  }

 private:
  const dc::DataCenter* datacenter_;
  dc::Occupancy occupancy_;
  SearchConfig defaults_;
};

/// Stateless one-shot planning against an explicit occupancy.
[[nodiscard]] Placement place_topology(const dc::Occupancy& base,
                                       const topo::AppTopology& topology,
                                       Algorithm algorithm,
                                       const SearchConfig& config,
                                       const net::Assignment* pinned = nullptr);

}  // namespace ostro::core
