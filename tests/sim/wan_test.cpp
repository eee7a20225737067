#include <gtest/gtest.h>

#include <set>

#include "core/scheduler.h"
#include "core/verify.h"
#include "sim/clusters.h"

namespace ostro::sim {
namespace {

TEST(WanTest, StructureMatchesParameters) {
  const auto dc = make_wan(3, 2, 4, 8);
  EXPECT_EQ(dc.sites().size(), 3u);
  EXPECT_EQ(dc.pods().size(), 6u);
  EXPECT_EQ(dc.racks().size(), 24u);
  EXPECT_EQ(dc.host_count(), 192u);
  EXPECT_EQ(dc.max_scope(), dc::Scope::kCrossSite);
}

TEST(WanTest, CrossSiteLatencyIsWideArea) {
  const auto dc = make_wan();
  EXPECT_GE(dc.scope_latency_us(dc::Scope::kCrossSite), 10'000.0);
  EXPECT_LE(dc.scope_latency_us(dc::Scope::kSameRack), 100.0);
}

TEST(WanTest, ParameterValidation) {
  EXPECT_THROW((void)make_wan(0), std::invalid_argument);
  EXPECT_THROW((void)make_wan(2, 0), std::invalid_argument);
  EXPECT_THROW((void)make_wan(2, 1, 0), std::invalid_argument);
  EXPECT_THROW((void)make_wan(2, 1, 1, 0), std::invalid_argument);
  EXPECT_THROW((void)make_wan(2, 1, 1, 1, -1.0), std::invalid_argument);
}

TEST(WanTest, GeoReplicationSpreadsAcrossSites) {
  const auto datacenter = make_wan(3, 1, 2, 4);
  const dc::Occupancy occupancy(datacenter);
  topo::TopologyBuilder builder;
  std::vector<std::string> dbs;
  for (int i = 0; i < 3; ++i) {
    const std::string name = "db" + std::to_string(i);
    builder.add_vm(name, {4.0, 8.0, 0.0});
    dbs.push_back(name);
  }
  builder.connect("db0", "db1", 100.0);
  builder.connect("db1", "db2", 100.0);
  builder.add_zone("geo", topo::DiversityLevel::kDatacenter, dbs);
  const auto app = builder.build();
  const core::Placement placement = core::place_topology(
      occupancy, app, core::Algorithm::kEg, core::SearchConfig{});
  ASSERT_TRUE(placement.feasible) << placement.failure_reason;
  std::set<std::uint32_t> sites;
  for (const auto host : placement.assignment) {
    sites.insert(datacenter.host(host).datacenter);
  }
  EXPECT_EQ(sites.size(), 3u);
  EXPECT_TRUE(
      core::verify_placement(occupancy, app, placement.assignment).empty());
}

TEST(WanTest, TightLatencyCannotCrossTheWan) {
  const auto datacenter = make_wan(2, 1, 1, 2);
  const dc::Occupancy occupancy(datacenter);
  topo::TopologyBuilder builder;
  builder.add_vm("a", {2.0, 2.0, 0.0});
  builder.add_vm("b", {2.0, 2.0, 0.0});
  // Latency budget allows same-site (200us) but not cross-site (20ms)...
  builder.connect("a", "b", 100.0, 500.0);
  // ...while the zone demands different sites: infeasible.
  builder.add_zone("apart", topo::DiversityLevel::kDatacenter,
                   std::vector<std::string>{"a", "b"});
  const auto app = builder.build();
  const core::Placement placement = core::place_topology(
      occupancy, app, core::Algorithm::kBaStar, core::SearchConfig{});
  EXPECT_FALSE(placement.feasible);
}

}  // namespace
}  // namespace ostro::sim
