#include "datacenter/dot.h"

#include <gtest/gtest.h>

#include "core/scheduler.h"
#include "helpers.h"

namespace ostro::dc {
namespace {

using ostro::testing::small_dc;

topo::AppTopology dot_app() {
  topo::TopologyBuilder builder;
  builder.add_vm("web", {2.0, 4.0, 0.0});
  builder.add_vm("db", {4.0, 8.0, 0.0});
  builder.require_tags("db", {"ssd"});
  builder.add_volume("data", 120.0);
  builder.connect("web", "db", 100.0, 30.0);
  builder.connect("db", "data", 200.0);
  builder.add_zone("apart", topo::DiversityLevel::kHost,
                   std::vector<std::string>{"web", "db"});
  builder.add_affinity("near", topo::DiversityLevel::kRack,
                       std::vector<std::string>{"db", "data"});
  return builder.build();
}

TEST(DotTest, TopologyDotMentionsEverything) {
  const std::string dot = topology_to_dot(dot_app());
  EXPECT_NE(dot.find("graph application"), std::string::npos);
  EXPECT_NE(dot.find("\"web\""), std::string::npos);
  EXPECT_NE(dot.find("shape=cylinder"), std::string::npos);  // the volume
  EXPECT_NE(dot.find("100 Mbps"), std::string::npos);
  EXPECT_NE(dot.find("<= 30 us"), std::string::npos);   // latency budget
  EXPECT_NE(dot.find("dz:apart"), std::string::npos);
  EXPECT_NE(dot.find("affinity:near"), std::string::npos);
  EXPECT_NE(dot.find("[ssd]"), std::string::npos);      // required tags
  // Balanced braces (cheap well-formedness check).
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'),
            std::count(dot.begin(), dot.end(), '}'));
}

TEST(DotTest, PlacementDotClustersByHost) {
  const auto datacenter = small_dc(2, 2);
  const Occupancy occupancy(datacenter);
  const auto app = dot_app();
  // The small_dc hosts carry no tags; drop the requirement via a fresh app.
  topo::TopologyBuilder builder;
  builder.add_vm("web", {2.0, 4.0, 0.0});
  builder.add_vm("db", {4.0, 8.0, 0.0});
  builder.connect("web", "db", 100.0);
  const auto simple = builder.build();
  const core::Placement placement = core::place_topology(
      occupancy, simple, core::Algorithm::kEg, core::SearchConfig{});
  ASSERT_TRUE(placement.feasible);
  const std::string dot =
      placement_to_dot(simple, placement.assignment, datacenter);
  EXPECT_NE(dot.find("graph placement"), std::string::npos);
  EXPECT_NE(dot.find("rack"), std::string::npos);
  EXPECT_NE(dot.find("subgraph cluster_0"), std::string::npos);
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'),
            std::count(dot.begin(), dot.end(), '}'));
}

TEST(DotTest, PlacementDotRejectsBadAssignments) {
  const auto datacenter = small_dc();
  const auto app = dot_app();
  EXPECT_THROW((void)placement_to_dot(app, {0}, datacenter),
               std::invalid_argument);
  EXPECT_THROW(
      (void)placement_to_dot(app, {0, 1, topo::kInvalidNode}, datacenter),
      std::invalid_argument);
}

TEST(DotTest, EscapingHandlesQuotes) {
  topo::TopologyBuilder builder;
  builder.add_vm("a\"b", {1.0, 1.0, 0.0});
  const std::string dot = topology_to_dot(builder.build());
  EXPECT_NE(dot.find("a\\\"b"), std::string::npos);
}

}  // namespace
}  // namespace ostro::dc
