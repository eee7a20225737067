// Online adaptation (Section IV-E): a deployed multi-tier application is
// grown by 10% additional small VMs on its web tier; the updated topology
// is re-placed with the existing nodes pinned (incremental update), and if
// the old placement left no headroom, the nodes adjacent to the growth are
// progressively released to move (the paper's "re-positioning").
//
// Build & run:  ./build/examples/online_adaptation
#include <iostream>
#include <unordered_set>

#include "core/scheduler.h"
#include "core/verify.h"
#include "sim/clusters.h"
#include "sim/workloads.h"

int main() {
  using namespace ostro;
  constexpr int kVms = 100;

  const dc::DataCenter datacenter = sim::make_sim_datacenter(40, 16);
  dc::Occupancy occupancy(datacenter);
  util::Rng rng(7);
  sim::apply_sim_preload(occupancy, rng);

  const topo::AppTopology base =
      sim::make_multitier(kVms, sim::RequirementMix::kHeterogeneous, rng);
  core::SearchConfig config;
  config.deadline_seconds = 5.0;
  const core::Placement first = core::place_topology(
      occupancy, base, core::Algorithm::kDbaStar, config);
  if (!first.feasible) {
    std::cerr << "initial placement failed: " << first.failure_reason << "\n";
    return 1;
  }
  std::cout << "initial placement: " << base.node_count() << " VMs, "
            << first.reserved_bandwidth_mbps << " Mbps reserved, "
            << first.stats.runtime_seconds << " s\n";

  // Grow tier 2 by 10% small VMs (nodes of the base keep their ids).
  const topo::AppTopology grown = sim::grow_multitier(
      base, kVms, kVms / 10, /*tier_index=*/1,
      sim::RequirementMix::kHeterogeneous, rng);
  std::cout << "grown topology: +" << grown.node_count() - base.node_count()
            << " VMs on tier 2\n";

  // Attempt 1: everything pinned (pure incremental).
  config.deadline_seconds = 1.0;
  net::Assignment pinned(grown.node_count(), dc::kInvalidHost);
  for (topo::NodeId v = 0; v < base.node_count(); ++v) {
    pinned[v] = first.assignment[v];
  }
  core::Placement delta = core::place_topology(
      occupancy, grown, core::Algorithm::kDbaStar, config, &pinned);

  if (!delta.feasible) {
    // Attempt 2: release the neighbors of the new VMs.
    std::cout << "fully pinned update infeasible ("
              << delta.failure_reason
              << "); releasing neighbors of the new VMs\n";
    std::unordered_set<topo::NodeId> release;
    for (auto v = static_cast<topo::NodeId>(base.node_count());
         v < grown.node_count(); ++v) {
      for (const auto& nb : grown.neighbors(v)) release.insert(nb.node);
    }
    for (const auto v : release) {
      if (v < base.node_count()) pinned[v] = dc::kInvalidHost;
    }
    delta = core::place_topology(occupancy, grown, core::Algorithm::kDbaStar,
                                 config, &pinned);
  }
  if (!delta.feasible) {
    std::cerr << "re-placement failed: " << delta.failure_reason << "\n";
    return 1;
  }

  int moved = 0;
  for (topo::NodeId v = 0; v < base.node_count(); ++v) {
    if (delta.assignment[v] != first.assignment[v]) ++moved;
  }
  std::cout << "re-placement done in " << delta.stats.runtime_seconds
            << " s; " << moved << " of " << base.node_count()
            << " existing nodes moved\n"
            << "verification: "
            << (core::verify_placement(occupancy, grown, delta.assignment)
                        .empty()
                    ? "OK"
                    : "VIOLATIONS")
            << "\n";
  return 0;
}
