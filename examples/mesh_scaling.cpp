// Scalability demo on the mesh-communication workload of Figure 2 (right):
// places meshes of growing size on the paper's 2400-host data center and
// prints how the greedy baselines and the deadline-bounded search compare
// as the topology grows — a command-line miniature of Figures 10/11.
//
// Build & run:  ./build/examples/mesh_scaling [max_zones]
#include <iostream>

#include "core/scheduler.h"
#include "sim/clusters.h"
#include "sim/workloads.h"

int main(int argc, char** argv) {
  using namespace ostro;
  const int max_zones = argc > 1 ? std::atoi(argv[1]) : 20;

  const dc::DataCenter datacenter = sim::make_sim_datacenter();
  std::cout << "data center: " << datacenter.host_count() << " hosts in "
            << datacenter.racks().size() << " racks\n\n";

  for (int zones = 5; zones <= max_zones; zones += 5) {
    std::cout << "mesh with " << zones << " diversity zones ("
              << zones * 5 << " VMs):\n";
    for (const auto algorithm :
         {core::Algorithm::kEgC, core::Algorithm::kEgBw, core::Algorithm::kEg,
          core::Algorithm::kDbaStar}) {
      util::Rng rng(11);
      dc::Occupancy occupancy(datacenter);
      sim::apply_sim_preload(occupancy, rng);
      const auto app =
          sim::make_mesh(zones, sim::RequirementMix::kHeterogeneous, rng);
      core::SearchConfig config;
      config.deadline_seconds = 0.1 * zones;
      const core::Placement placement = core::place_topology(
          occupancy, app, algorithm, config);
      if (!placement.feasible) {
        std::cout << "  " << core::to_string(algorithm)
                  << ": infeasible: " << placement.failure_reason << "\n";
        continue;
      }
      std::cout << "  " << core::to_string(algorithm) << ": "
                << placement.reserved_bandwidth_mbps / 1000.0
                << " Gbps reserved, " << placement.hosts_used
                << " hosts used, " << placement.stats.runtime_seconds
                << " s\n";
    }
    std::cout << "\n";
  }
  return 0;
}
