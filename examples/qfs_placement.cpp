// The paper's testbed story end to end (Sections IV-A/IV-B): the QFS cloud
// storage application is placed on the 16-host testbed under non-uniform
// availability by each algorithm, and the consequences are made visible by
// running the simulated QFS client benchmark on every placement.
//
// Build & run:  ./build/examples/qfs_placement [--uniform]
#include <cstring>
#include <iostream>

#include "core/scheduler.h"
#include "qfs/qfs.h"
#include "sim/clusters.h"
#include "sim/workloads.h"

int main(int argc, char** argv) {
  using namespace ostro;
  const bool uniform =
      argc > 1 && std::strcmp(argv[1], "--uniform") == 0;

  const dc::DataCenter datacenter = sim::make_testbed();
  const topo::AppTopology app = sim::make_qfs();
  std::cout << "QFS topology: " << app.node_count() << " nodes, "
            << app.edge_count() << " pipes, total "
            << app.total_edge_bandwidth() << " Mbps\n"
            << "testbed: " << datacenter.host_count() << " hosts, "
            << (uniform ? "uniform (idle)" : "non-uniform (pre-loaded)")
            << " availability\n\n";

  for (const auto algorithm :
       {core::Algorithm::kEgC, core::Algorithm::kEgBw, core::Algorithm::kEg,
        core::Algorithm::kBaStar, core::Algorithm::kDbaStar}) {
    dc::Occupancy occupancy(datacenter);
    util::Rng rng(42);
    if (!uniform) sim::apply_testbed_preload(occupancy, rng);

    core::SearchConfig config;
    config.theta_bw = 0.99;  // Section IV-B: bandwidth first
    config.theta_c = 0.01;
    config.deadline_seconds = 0.5;  // DBA* budget, as in Table I
    const core::Placement placement = core::place_topology(
        occupancy, app, algorithm, config);
    if (!placement.feasible) {
      std::cout << core::to_string(algorithm)
                << ": infeasible: " << placement.failure_reason << "\n";
      continue;
    }
    if (placement.bandwidth_overcommitted) {
      std::cout << core::to_string(algorithm)
                << ": placement overcommits link bandwidth ("
                << placement.reserved_bandwidth_mbps
                << " Mbps reserved); benchmark skipped\n";
      continue;
    }
    net::commit_placement(occupancy, app, placement.assignment);

    const qfs::QfsCluster cluster(app, placement.assignment, occupancy);
    const auto bench = cluster.write_benchmark(4096.0, /*replication=*/2,
                                               /*offered_mbps=*/16000.0);
    std::cout << core::to_string(algorithm) << ":\n"
              << "  reserved bandwidth " << placement.reserved_bandwidth_mbps
              << " Mbps, new hosts " << placement.new_active_hosts
              << ", solve time " << placement.stats.runtime_seconds << " s\n"
              << "  QFS write benchmark: " << bench.aggregate_mbps
              << " Mbps aggregate, " << bench.completion_seconds
              << " s for 4 GB (" << bench.colocated_flows << "/"
              << bench.flows << " flows co-located)\n";
  }
  return 0;
}
