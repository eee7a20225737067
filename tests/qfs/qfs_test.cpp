#include "qfs/qfs.h"

#include <gtest/gtest.h>

#include "core/scheduler.h"
#include "sim/clusters.h"
#include "sim/workloads.h"

namespace ostro::qfs {
namespace {

/// Places the QFS topology on the testbed with the given algorithm and
/// returns (cluster, committed occupancy) for benchmarking.
struct PlacedQfs {
  topo::AppTopology app = sim::make_qfs();
  dc::DataCenter datacenter = sim::make_testbed();
  dc::Occupancy occupancy{datacenter};
  net::Assignment assignment;

  explicit PlacedQfs(core::Algorithm algorithm, bool preload = false) {
    if (preload) {
      util::Rng rng(7);
      sim::apply_testbed_preload(occupancy, rng);
    }
    core::SearchConfig config;
    config.theta_bw = 0.99;
    config.theta_c = 0.01;
    config.deadline_seconds = 0.5;
    const core::Placement placement = core::place_topology(
        occupancy, app, algorithm, config);
    if (!placement.feasible) {
      throw std::runtime_error("QFS placement failed: " +
                               placement.failure_reason);
    }
    assignment = placement.assignment;
    net::commit_placement(occupancy, app, assignment);
  }
};

TEST(QfsClusterTest, ConstructsFromPlacedTopology) {
  const PlacedQfs placed(core::Algorithm::kEg);
  const QfsCluster cluster(placed.app, placed.assignment, placed.occupancy);
  EXPECT_EQ(cluster.chunk_server_count(), 12u);
}

TEST(QfsClusterTest, RejectsForeignTopology) {
  const PlacedQfs placed(core::Algorithm::kEg);
  topo::TopologyBuilder builder;
  builder.add_vm("solo", {1.0, 1.0, 0.0});
  const auto other = builder.build();
  EXPECT_THROW(QfsCluster(other, {0}, placed.occupancy),
               std::invalid_argument);
}

TEST(QfsClusterTest, RejectsSizeMismatch) {
  const PlacedQfs placed(core::Algorithm::kEg);
  EXPECT_THROW(QfsCluster(placed.app, {0, 1}, placed.occupancy),
               std::invalid_argument);
}

TEST(QfsClusterTest, WriteBenchmarkProducesFlows) {
  const PlacedQfs placed(core::Algorithm::kEg);
  const QfsCluster cluster(placed.app, placed.assignment, placed.occupancy);
  const BenchmarkResult result = cluster.write_benchmark(1024.0, 2);
  EXPECT_GT(result.flows, 0u);
  EXPECT_GT(result.aggregate_mbps, 0.0);
  EXPECT_GT(result.completion_seconds, 0.0);
  EXPECT_LT(result.completion_seconds, 1e6);
}

TEST(QfsClusterTest, ReadBenchmarkProducesFlows) {
  const PlacedQfs placed(core::Algorithm::kEg);
  const QfsCluster cluster(placed.app, placed.assignment, placed.occupancy);
  const BenchmarkResult result = cluster.read_benchmark(1024.0);
  EXPECT_GT(result.flows, 0u);
  EXPECT_GT(result.aggregate_mbps, 0.0);
}

TEST(QfsClusterTest, ReplicationMovesMoreBytes) {
  const PlacedQfs placed(core::Algorithm::kEg);
  const QfsCluster cluster(placed.app, placed.assignment, placed.occupancy);
  const BenchmarkResult r1 = cluster.write_benchmark(1024.0, 1);
  const BenchmarkResult r3 = cluster.write_benchmark(1024.0, 3);
  EXPECT_GT(r3.flows, r1.flows);
}

TEST(QfsClusterTest, BadParametersThrow) {
  const PlacedQfs placed(core::Algorithm::kEg);
  const QfsCluster cluster(placed.app, placed.assignment, placed.occupancy);
  EXPECT_THROW((void)cluster.write_benchmark(0.0), std::invalid_argument);
  EXPECT_THROW((void)cluster.write_benchmark(100.0, 0),
               std::invalid_argument);
  EXPECT_THROW((void)cluster.read_benchmark(-1.0), std::invalid_argument);
}

TEST(QfsClusterTest, TopologyAwarePlacementBeatsBinPacking) {
  // The observable of the paper's testbed story: EG_C's bin-packing starves
  // the network relative to the holistic placements.
  const PlacedQfs packed(core::Algorithm::kEgC);
  const PlacedQfs holistic(core::Algorithm::kEg);
  const QfsCluster packed_cluster(packed.app, packed.assignment,
                                  packed.occupancy);
  const QfsCluster holistic_cluster(holistic.app, holistic.assignment,
                                    holistic.occupancy);
  const double packed_rate =
      packed_cluster.write_benchmark(2048.0, 2).aggregate_mbps;
  const double holistic_rate =
      holistic_cluster.write_benchmark(2048.0, 2).aggregate_mbps;
  EXPECT_GE(holistic_rate, packed_rate * 0.95);
}

TEST(QfsClusterTest, CoLocatedFlowsAreFree) {
  // Put everything on one giant host: all flows co-located.
  const topo::AppTopology app = sim::make_qfs();
  dc::DataCenterBuilder builder;
  const auto site = builder.add_site("s", 1e6);
  const auto pod = builder.add_pod(site, "p", 1e6);
  const auto rack = builder.add_rack(pod, "r", 1e6);
  builder.add_host(rack, "jumbo", {1000.0, 1000.0, 100000.0}, 1e6);
  // Zone requires 12 distinct hosts, so bypass placement and assign
  // directly (the cluster model itself does not enforce zones).
  const auto datacenter = builder.build();
  const dc::Occupancy occupancy(datacenter);
  const net::Assignment assignment(app.node_count(), 0);
  const QfsCluster cluster(app, assignment, occupancy);
  const BenchmarkResult result = cluster.write_benchmark(512.0, 2);
  EXPECT_EQ(result.colocated_flows, result.flows);
}

TEST(QfsDegradedTest, FailureReroutesToReplicas) {
  const PlacedQfs placed(core::Algorithm::kEg);
  const QfsCluster cluster(placed.app, placed.assignment, placed.occupancy);
  // Fail the host of chunk0: its primaries reroute to chunk1's host.
  const dc::HostId failed =
      placed.assignment[placed.app.node_id("chunk0")];
  const auto result = cluster.degraded_read_benchmark(4096.0, failed);
  EXPECT_GT(result.benchmark.aggregate_mbps, 0.0);
  // chunk0 and its ring-neighbors may share a host; chunks are only lost
  // when primary and replica coincide on the failed host.
  EXPECT_GE(result.rerouted_chunks + result.lost_chunks, 1u);
}

TEST(QfsDegradedTest, UnrelatedFailureIsHarmless) {
  const PlacedQfs placed(core::Algorithm::kEg);
  const QfsCluster cluster(placed.app, placed.assignment, placed.occupancy);
  // Fail a host that serves no chunk server.
  dc::HostId unused = dc::kInvalidHost;
  for (dc::HostId h = 0; h < placed.datacenter.host_count(); ++h) {
    bool serves = false;
    for (const auto& node : placed.app.nodes()) {
      if (node.kind == topo::NodeKind::kVm &&
          node.name.rfind("chunk", 0) == 0 &&
          placed.assignment[node.id] == h) {
        serves = true;
        break;
      }
    }
    if (!serves) {
      unused = h;
      break;
    }
  }
  ASSERT_NE(unused, dc::kInvalidHost);
  const auto degraded = cluster.degraded_read_benchmark(4096.0, unused);
  const auto healthy = cluster.read_benchmark(4096.0);
  EXPECT_EQ(degraded.rerouted_chunks, 0u);
  EXPECT_EQ(degraded.lost_chunks, 0u);
  EXPECT_NEAR(degraded.benchmark.aggregate_mbps, healthy.aggregate_mbps,
              healthy.aggregate_mbps * 0.05 + 11.0);
}

TEST(QfsDegradedTest, LossArithmeticMatchesPlacement) {
  // A chunk is lost iff its primary server AND the replica server (next in
  // the stripe ring) both sit on the failed host; it is rerouted iff only
  // the primary does.  Recompute both counts independently from the
  // placement and compare for every possible host failure.
  const PlacedQfs placed(core::Algorithm::kEg);
  const QfsCluster cluster(placed.app, placed.assignment, placed.occupancy);
  const std::size_t servers = cluster.chunk_server_count();
  const auto chunks = static_cast<std::size_t>(4096.0 / 64.0);
  std::vector<dc::HostId> server_host(servers);
  for (std::size_t s = 0; s < servers; ++s) {
    server_host[s] = placed.assignment[placed.app.node_id(
        "chunk" + std::to_string(s))];
  }
  for (dc::HostId h = 0; h < placed.datacenter.host_count(); ++h) {
    std::size_t expect_lost = 0, expect_rerouted = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t primary = c % servers;
      const std::size_t replica = (primary + 1) % servers;
      if (server_host[primary] != h) continue;
      if (server_host[replica] == h) {
        ++expect_lost;
      } else {
        ++expect_rerouted;
      }
    }
    const auto result = cluster.degraded_read_benchmark(4096.0, h);
    EXPECT_EQ(result.lost_chunks, expect_lost) << "host " << h;
    EXPECT_EQ(result.rerouted_chunks, expect_rerouted) << "host " << h;
  }
}

TEST(QfsDegradedTest, BadParametersThrow) {
  const PlacedQfs placed(core::Algorithm::kEg);
  const QfsCluster cluster(placed.app, placed.assignment, placed.occupancy);
  EXPECT_THROW((void)cluster.degraded_read_benchmark(0.0, 0),
               std::invalid_argument);
  EXPECT_THROW((void)cluster.degraded_read_benchmark(100.0, 0, -1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace ostro::qfs
