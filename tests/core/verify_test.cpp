#include "core/verify.h"

#include <gtest/gtest.h>

#include "helpers.h"

namespace ostro::core {
namespace {

using ostro::testing::add_host_load;
using ostro::testing::reserve_link;
using ostro::testing::small_dc;
using ostro::testing::tiny_app;

TEST(VerifyTest, AcceptsValidPlacement) {
  const auto datacenter = small_dc(2, 2);
  const dc::Occupancy occupancy(datacenter);
  const auto app = tiny_app();
  EXPECT_TRUE(verify_placement(occupancy, app, {0, 0, 0}).empty());
  EXPECT_TRUE(verify_placement(occupancy, app, {0, 1, 1}).empty());
}

TEST(VerifyTest, RejectsSizeMismatch) {
  const auto datacenter = small_dc();
  const dc::Occupancy occupancy(datacenter);
  const auto violations = verify_placement(occupancy, tiny_app(), {0, 1});
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("entries"), std::string::npos);
}

TEST(VerifyTest, RejectsUnplacedNode) {
  const auto datacenter = small_dc();
  const dc::Occupancy occupancy(datacenter);
  const auto violations =
      verify_placement(occupancy, tiny_app(), {0, dc::kInvalidHost, 0});
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].find("unplaced"), std::string::npos);
}

TEST(VerifyTest, DetectsHostOverCapacity) {
  const auto datacenter = small_dc(1, 2);
  dc::Occupancy occupancy(datacenter);
  add_host_load(occupancy, 0, {4.0, 0.0, 0.0});  // 4 cores left; web+db = 6
  const auto violations =
      verify_placement(occupancy, tiny_app(), {0, 0, 0});
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].find("over capacity"), std::string::npos);
}

TEST(VerifyTest, DetectsAggregateLinkViolation) {
  // Two pipes over the same uplink that individually fit but jointly do not.
  topo::TopologyBuilder builder;
  builder.add_vm("hub", {1.0, 1.0, 0.0});
  builder.add_vm("x", {1.0, 1.0, 0.0});
  builder.add_vm("y", {1.0, 1.0, 0.0});
  builder.connect("hub", "x", 600.0);
  builder.connect("hub", "y", 600.0);
  const auto app = builder.build();
  const auto datacenter = small_dc(2, 2);  // 1000 Mbps uplinks
  const dc::Occupancy occupancy(datacenter);
  const auto violations = verify_placement(occupancy, app, {0, 1, 2});
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].find("link"), std::string::npos);
}

TEST(VerifyTest, DetectsZoneViolation) {
  topo::TopologyBuilder builder;
  builder.add_vm("a", {1.0, 1.0, 0.0});
  builder.add_vm("b", {1.0, 1.0, 0.0});
  builder.add_zone("z", topo::DiversityLevel::kRack,
                   std::vector<std::string>{"a", "b"});
  const auto app = builder.build();
  const auto datacenter = small_dc(2, 2);
  const dc::Occupancy occupancy(datacenter);
  const auto same_rack = verify_placement(occupancy, app, {0, 1});
  ASSERT_FALSE(same_rack.empty());
  EXPECT_NE(same_rack[0].find("zone"), std::string::npos);
  EXPECT_TRUE(verify_placement(occupancy, app, {0, 2}).empty());
}

TEST(VerifyTest, ReportsMultipleViolations) {
  topo::TopologyBuilder builder;
  builder.add_vm("a", {8.0, 1.0, 0.0});
  builder.add_vm("b", {8.0, 1.0, 0.0});
  builder.connect("a", "b", 2000.0);  // exceeds 1000 uplinks
  builder.add_zone("z", topo::DiversityLevel::kPod,
                   std::vector<std::string>{"a", "b"});
  const auto app = builder.build();
  const auto datacenter = small_dc(2, 2);  // single pod
  const dc::Occupancy occupancy(datacenter);
  const auto violations = verify_placement(occupancy, app, {0, 1});
  // bandwidth violation + pod-zone violation (capacity is fine: 8 each).
  EXPECT_GE(violations.size(), 2u);
}

TEST(VerifyTest, BackgroundLoadCounts) {
  const auto datacenter = small_dc(1, 2);
  dc::Occupancy occupancy(datacenter);
  reserve_link(occupancy, datacenter.host_link(0), 950.0);
  const auto app = tiny_app();  // web--db pipe 100 won't fit host0 uplink
  const auto violations = verify_placement(occupancy, app, {0, 1, 1});
  ASSERT_FALSE(violations.empty());
}

}  // namespace
}  // namespace ostro::core
