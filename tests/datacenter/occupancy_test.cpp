#include "datacenter/occupancy.h"

#include <gtest/gtest.h>

#include "helpers.h"

namespace ostro::dc {
namespace {

using ostro::testing::add_host_load;
using ostro::testing::release_link;
using ostro::testing::remove_host_load;
using ostro::testing::reserve_link;
using ostro::testing::small_dc;

TEST(OccupancyTest, StartsIdleAndEmpty) {
  const DataCenter dc = small_dc();
  const Occupancy occupancy(dc);
  EXPECT_EQ(occupancy.active_host_count(), 0u);
  EXPECT_FALSE(occupancy.is_active(0));
  EXPECT_EQ(occupancy.available(0), dc.host(0).capacity);
  EXPECT_DOUBLE_EQ(occupancy.link_available_mbps(dc.host_link(0)), 1000.0);
  EXPECT_DOUBLE_EQ(occupancy.total_reserved_mbps(), 0.0);
}

TEST(OccupancyTest, AddLoadActivatesAndConsumes) {
  const DataCenter dc = small_dc();
  Occupancy occupancy(dc);
  add_host_load(occupancy, 0, {2.0, 4.0, 50.0});
  EXPECT_TRUE(occupancy.is_active(0));
  EXPECT_EQ(occupancy.active_host_count(), 1u);
  EXPECT_EQ(occupancy.used(0), (topo::Resources{2.0, 4.0, 50.0}));
  EXPECT_EQ(occupancy.available(0), (topo::Resources{6.0, 12.0, 450.0}));
}

TEST(OccupancyTest, OvercommitThrowsAndLeavesStateIntact) {
  const DataCenter dc = small_dc();
  Occupancy occupancy(dc);
  add_host_load(occupancy, 0, {6.0, 10.0, 100.0});
  const Occupancy before = occupancy;
  EXPECT_THROW(add_host_load(occupancy, 0, {3.0, 1.0, 1.0}),
               std::invalid_argument);
  EXPECT_TRUE(occupancy == before);
}

TEST(OccupancyTest, RemoveLoadRestores) {
  const DataCenter dc = small_dc();
  Occupancy occupancy(dc);
  add_host_load(occupancy, 0, {2.0, 4.0, 50.0});
  remove_host_load(occupancy, 0, {2.0, 4.0, 50.0});
  EXPECT_TRUE(occupancy.used(0).is_zero());
  // Active flag is sticky by design.
  EXPECT_TRUE(occupancy.is_active(0));
}

TEST(OccupancyTest, RemoveMoreThanUsedThrows) {
  const DataCenter dc = small_dc();
  Occupancy occupancy(dc);
  add_host_load(occupancy, 0, {1.0, 1.0, 1.0});
  EXPECT_THROW(remove_host_load(occupancy, 0, {2.0, 1.0, 1.0}),
               std::invalid_argument);
}

TEST(OccupancyTest, LinkReserveAndRelease) {
  const DataCenter dc = small_dc();
  Occupancy occupancy(dc);
  const LinkId link = dc.host_link(0);
  reserve_link(occupancy, link, 400.0);
  EXPECT_DOUBLE_EQ(occupancy.link_used_mbps(link), 400.0);
  EXPECT_DOUBLE_EQ(occupancy.link_available_mbps(link), 600.0);
  reserve_link(occupancy, link, 600.0);  // exactly full
  EXPECT_THROW(reserve_link(occupancy, link, 0.1), std::invalid_argument);
  release_link(occupancy, link, 1000.0);
  EXPECT_DOUBLE_EQ(occupancy.link_used_mbps(link), 0.0);
  EXPECT_THROW(release_link(occupancy, link, 0.1), std::invalid_argument);
}

TEST(OccupancyTest, NegativeAmountsRejected) {
  const DataCenter dc = small_dc();
  Occupancy occupancy(dc);
  EXPECT_THROW(reserve_link(occupancy, dc.host_link(0), -1.0),
               std::invalid_argument);
  EXPECT_THROW(add_host_load(occupancy, 0, {-1.0, 0.0, 0.0}),
               std::invalid_argument);
}

TEST(OccupancyTest, MarkActiveWithoutLoad) {
  const DataCenter dc = small_dc();
  Occupancy occupancy(dc);
  occupancy.mark_active(2);
  EXPECT_TRUE(occupancy.is_active(2));
  EXPECT_EQ(occupancy.active_host_count(), 1u);
  occupancy.mark_active(2);  // idempotent
  EXPECT_EQ(occupancy.active_host_count(), 1u);
}

TEST(OccupancyTest, TotalReservedSumsLinks) {
  const DataCenter dc = small_dc();
  Occupancy occupancy(dc);
  reserve_link(occupancy, dc.host_link(0), 100.0);
  reserve_link(occupancy, dc.rack_link(0), 250.0);
  EXPECT_DOUBLE_EQ(occupancy.total_reserved_mbps(), 350.0);
}

TEST(OccupancyTest, BadIdsThrow) {
  const DataCenter dc = small_dc();
  Occupancy occupancy(dc);
  EXPECT_THROW((void)occupancy.available(99), std::out_of_range);
  EXPECT_THROW((void)occupancy.link_available_mbps(static_cast<LinkId>(
                   dc.link_count())),
               std::out_of_range);
  EXPECT_THROW(occupancy.mark_active(99), std::out_of_range);
}

TEST(OccupancyTest, CopySnapshotRestores) {
  const DataCenter dc = small_dc();
  Occupancy occupancy(dc);
  const Occupancy snapshot = occupancy;
  add_host_load(occupancy, 1, {2.0, 2.0, 10.0});
  reserve_link(occupancy, dc.host_link(1), 100.0);
  EXPECT_FALSE(occupancy == snapshot);
  occupancy = snapshot;
  EXPECT_TRUE(occupancy == snapshot);
  EXPECT_FALSE(occupancy.is_active(1));
}

TEST(OccupancyTest, VersionAdvancesOnEveryMutation) {
  const DataCenter dc = small_dc();
  Occupancy occupancy(dc);
  EXPECT_EQ(occupancy.version(), 0u);
  add_host_load(occupancy, 0, {2.0, 2.0, 10.0});
  EXPECT_EQ(occupancy.version(), 1u);
  reserve_link(occupancy, dc.host_link(0), 100.0);
  EXPECT_EQ(occupancy.version(), 2u);
  release_link(occupancy, dc.host_link(0), 100.0);
  remove_host_load(occupancy, 0, {2.0, 2.0, 10.0});
  EXPECT_EQ(occupancy.version(), 4u);
  occupancy.mark_active(1);
  EXPECT_EQ(occupancy.version(), 5u);
  occupancy.mark_active(1);  // already active: no state change, no bump
  EXPECT_EQ(occupancy.version(), 5u);
  EXPECT_TRUE(occupancy.deactivate_if_idle(1));
  EXPECT_EQ(occupancy.version(), 6u);
}

TEST(OccupancyTest, EqualityIgnoresVersionHistory) {
  const DataCenter dc = small_dc();
  Occupancy a(dc);
  Occupancy b(dc);
  // Same state via different mutation histories: equal, versions differ.
  add_host_load(a, 0, {2.0, 2.0, 10.0});
  remove_host_load(a, 0, {2.0, 2.0, 10.0});
  EXPECT_TRUE(a.deactivate_if_idle(0));
  EXPECT_NE(a.version(), b.version());
  EXPECT_TRUE(a == b);
}

TEST(OccupancyTest, CopyCarriesVersion) {
  const DataCenter dc = small_dc();
  Occupancy occupancy(dc);
  add_host_load(occupancy, 0, {1.0, 1.0, 0.0});
  const Occupancy snapshot = occupancy;
  EXPECT_EQ(snapshot.version(), occupancy.version());
  add_host_load(occupancy, 1, {1.0, 1.0, 0.0});
  EXPECT_GT(occupancy.version(), snapshot.version());
}

}  // namespace
}  // namespace ostro::dc
