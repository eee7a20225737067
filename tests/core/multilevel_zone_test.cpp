// Diversity zones and placement across the deeper hierarchy levels (rack /
// pod / datacenter) on multi-pod and multi-site data centers — the
// "10 VMs across 10 different racks" class of requirements from the
// paper's introduction.
#include <gtest/gtest.h>

#include <set>

#include "core/scheduler.h"
#include "core/verify.h"
#include "helpers.h"

namespace ostro::core {
namespace {

using ostro::testing::two_site_dc;

/// 2 sites x 2 pods x 2 racks x 2 hosts = 16 hosts with a real pod layer.
dc::DataCenter deep_dc() {
  dc::DataCenterBuilder builder;
  for (int s = 0; s < 2; ++s) {
    const auto site =
        builder.add_site("site" + std::to_string(s), 64000.0);
    for (int p = 0; p < 2; ++p) {
      const auto pod = builder.add_pod(
          site, "s" + std::to_string(s) + "p" + std::to_string(p), 32000.0);
      for (int r = 0; r < 2; ++r) {
        const auto rack = builder.add_rack(
            pod,
            "s" + std::to_string(s) + "p" + std::to_string(p) + "r" +
                std::to_string(r),
            16000.0);
        for (int h = 0; h < 2; ++h) {
          builder.add_host(rack,
                           "s" + std::to_string(s) + "p" + std::to_string(p) +
                               "r" + std::to_string(r) + "h" +
                               std::to_string(h),
                           {8.0, 16.0, 500.0}, 4000.0);
        }
      }
    }
  }
  return builder.build();
}

topo::AppTopology replicas(int n, topo::DiversityLevel level) {
  topo::TopologyBuilder builder;
  std::vector<std::string> names;
  for (int i = 0; i < n; ++i) {
    const std::string name = "rep" + std::to_string(i);
    builder.add_vm(name, {1.0, 1.0, 0.0});
    names.push_back(name);
  }
  builder.add_zone("replicas", level, names);
  return builder.build();
}

TEST(MultiLevelZoneTest, RackZoneSpreadsAcrossRacks) {
  const auto datacenter = deep_dc();
  const dc::Occupancy occupancy(datacenter);
  const auto app = replicas(4, topo::DiversityLevel::kRack);
  const Placement placement = place_topology(
      occupancy, app, Algorithm::kEg, SearchConfig{});
  ASSERT_TRUE(placement.feasible);
  std::set<std::uint32_t> racks;
  for (const auto host : placement.assignment) {
    racks.insert(datacenter.host(host).rack);
  }
  EXPECT_EQ(racks.size(), 4u);
}

TEST(MultiLevelZoneTest, PodZoneSpreadsAcrossPods) {
  const auto datacenter = deep_dc();
  const dc::Occupancy occupancy(datacenter);
  const auto app = replicas(4, topo::DiversityLevel::kPod);
  const Placement placement = place_topology(
      occupancy, app, Algorithm::kEg, SearchConfig{});
  ASSERT_TRUE(placement.feasible);
  std::set<std::uint32_t> pods;
  for (const auto host : placement.assignment) {
    pods.insert(datacenter.host(host).pod);
  }
  EXPECT_EQ(pods.size(), 4u);
}

TEST(MultiLevelZoneTest, DatacenterZoneSpreadsAcrossSites) {
  const auto datacenter = deep_dc();
  const dc::Occupancy occupancy(datacenter);
  const auto app = replicas(2, topo::DiversityLevel::kDatacenter);
  const Placement placement = place_topology(
      occupancy, app, Algorithm::kBaStar, SearchConfig{});
  ASSERT_TRUE(placement.feasible);
  EXPECT_NE(datacenter.host(placement.assignment[0]).datacenter,
            datacenter.host(placement.assignment[1]).datacenter);
}

TEST(MultiLevelZoneTest, TooManyPodReplicasIsInfeasible) {
  const auto datacenter = deep_dc();  // only 4 pods exist
  const dc::Occupancy occupancy(datacenter);
  const auto app = replicas(5, topo::DiversityLevel::kPod);
  const Placement placement = place_topology(
      occupancy, app, Algorithm::kBaStar, SearchConfig{});
  EXPECT_FALSE(placement.feasible);
}

TEST(MultiLevelZoneTest, TooManySiteReplicasIsInfeasible) {
  const auto datacenter = deep_dc();  // 2 sites
  const dc::Occupancy occupancy(datacenter);
  const auto app = replicas(3, topo::DiversityLevel::kDatacenter);
  const Placement placement = place_topology(
      occupancy, app, Algorithm::kEg, SearchConfig{});
  EXPECT_FALSE(placement.feasible);
}

TEST(MultiLevelZoneTest, CrossSitePipeCostsEightLinks) {
  const auto datacenter = deep_dc();
  const dc::Occupancy occupancy(datacenter);
  topo::TopologyBuilder builder;
  builder.add_vm("a", {1.0, 1.0, 0.0});
  builder.add_vm("b", {1.0, 1.0, 0.0});
  builder.connect("a", "b", 100.0);
  builder.add_zone("far", topo::DiversityLevel::kDatacenter,
                   std::vector<std::string>{"a", "b"});
  const auto app = builder.build();
  const Placement placement = place_topology(
      occupancy, app, Algorithm::kBaStar, SearchConfig{});
  ASSERT_TRUE(placement.feasible);
  EXPECT_DOUBLE_EQ(placement.reserved_bandwidth_mbps, 800.0);
}

TEST(MultiLevelZoneTest, MixedLevelsOnOneNode) {
  // One node in a rack zone with x AND a datacenter zone with y: both must
  // hold simultaneously.
  const auto datacenter = deep_dc();
  const dc::Occupancy occupancy(datacenter);
  topo::TopologyBuilder builder;
  builder.add_vm("x", {1.0, 1.0, 0.0});
  builder.add_vm("hub", {1.0, 1.0, 0.0});
  builder.add_vm("y", {1.0, 1.0, 0.0});
  builder.add_zone("zr", topo::DiversityLevel::kRack,
                   std::vector<std::string>{"hub", "x"});
  builder.add_zone("zd", topo::DiversityLevel::kDatacenter,
                   std::vector<std::string>{"hub", "y"});
  const auto app = builder.build();
  const Placement placement = place_topology(
      occupancy, app, Algorithm::kBaStar, SearchConfig{});
  ASSERT_TRUE(placement.feasible);
  const auto& h = placement.assignment;
  const auto hub = app.node_id("hub");
  const auto x = app.node_id("x");
  const auto y = app.node_id("y");
  EXPECT_NE(datacenter.host(h[hub]).rack, datacenter.host(h[x]).rack);
  EXPECT_NE(datacenter.host(h[hub]).datacenter,
            datacenter.host(h[y]).datacenter);
  EXPECT_TRUE(verify_placement(occupancy, app, placement.assignment).empty());
}

TEST(MultiLevelZoneTest, VerifierChecksAllLevels) {
  const auto datacenter = deep_dc();
  const dc::Occupancy occupancy(datacenter);
  for (const auto level :
       {topo::DiversityLevel::kRack, topo::DiversityLevel::kPod,
        topo::DiversityLevel::kDatacenter}) {
    const auto app = replicas(2, level);
    // Hosts 0 and 1 share a rack (thus pod and site).
    const auto violations = verify_placement(occupancy, app, {0, 1});
    EXPECT_FALSE(violations.empty()) << topo::to_string(level);
  }
}

TEST(MultiLevelZoneTest, TwoSiteHelperHasDistinctSites) {
  const auto datacenter = two_site_dc();
  EXPECT_EQ(datacenter.sites().size(), 2u);
  EXPECT_EQ(datacenter.max_scope(), dc::Scope::kCrossSite);
}

}  // namespace
}  // namespace ostro::core
