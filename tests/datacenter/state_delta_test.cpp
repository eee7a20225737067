// OccupancyDelta: staging never touches the base, overlay queries reflect
// staged ops, and apply_delta yields an Occupancy bit-identical to applying
// the same op sequence directly.
#include <gtest/gtest.h>

#include <stdexcept>

#include "datacenter/occupancy.h"
#include "datacenter/state_delta.h"
#include "helpers.h"
#include "util/rng.h"

namespace ostro::dc {
namespace {

using ostro::testing::small_dc;

TEST(OccupancyDeltaTest, StagingLeavesBaseUntouched) {
  const auto datacenter = small_dc(2, 2);
  Occupancy occupancy(datacenter);
  const Occupancy pristine = occupancy;

  OccupancyDelta delta(occupancy);
  delta.add_host_load(0, {2.0, 4.0, 10.0});
  delta.reserve_link(datacenter.host_link(0), 300.0);
  delta.add_host_load(0, {1.0, 1.0, 0.0});

  EXPECT_TRUE(occupancy == pristine);
  EXPECT_FALSE(delta.empty());
  EXPECT_EQ(delta.host_op_count(), 2u);
  EXPECT_EQ(delta.link_op_count(), 1u);
}

TEST(OccupancyDeltaTest, OverlayQueriesSeeStagedState) {
  const auto datacenter = small_dc(2, 2);
  Occupancy occupancy(datacenter);
  occupancy.add_host_load(1, {3.0, 3.0, 0.0});

  OccupancyDelta delta(occupancy);
  EXPECT_EQ(delta.available(0), occupancy.available(0));

  delta.add_host_load(0, {2.0, 4.0, 10.0});
  const auto avail = delta.available(0);
  EXPECT_DOUBLE_EQ(avail.vcpus, 6.0);
  EXPECT_DOUBLE_EQ(avail.mem_gb, 12.0);
  EXPECT_DOUBLE_EQ(avail.disk_gb, 490.0);
  // The base still reports the host idle and untouched.
  EXPECT_FALSE(occupancy.is_active(0));
  EXPECT_DOUBLE_EQ(occupancy.available(0).vcpus, 8.0);

  const LinkId link = datacenter.host_link(0);
  delta.reserve_link(link, 250.0);
  EXPECT_DOUBLE_EQ(delta.link_available_mbps(link), 750.0);
  EXPECT_DOUBLE_EQ(occupancy.link_available_mbps(link), 1000.0);
}

TEST(OccupancyDeltaTest, ApplyDeltaMatchesDirectOpSequence) {
  const auto datacenter = small_dc(3, 3);
  util::Rng rng(20260806);
  for (int trial = 0; trial < 20; ++trial) {
    Occupancy via_delta(datacenter);
    Occupancy via_direct(datacenter);
    // Random pre-existing load so the delta snapshots non-zero base values.
    via_delta.add_host_load(2, {1.5, 2.5, 5.0});
    via_direct.add_host_load(2, {1.5, 2.5, 5.0});

    OccupancyDelta delta(via_delta);
    for (int op = 0; op < 12; ++op) {
      if (rng.chance(0.5)) {
        const auto h = static_cast<HostId>(
            rng.uniform_int(0, static_cast<int>(datacenter.host_count()) - 1));
        const topo::Resources load{
            static_cast<double>(rng.uniform_int(0, 2)) * 0.5,
            static_cast<double>(rng.uniform_int(0, 2)) * 0.5, 1.0};
        delta.add_host_load(h, load);
        via_direct.add_host_load(h, load);
      } else {
        const auto link = static_cast<LinkId>(
            rng.uniform_int(0, static_cast<int>(datacenter.link_count()) - 1));
        const double mbps = static_cast<double>(rng.uniform_int(1, 4)) * 10.0;
        delta.reserve_link(link, mbps);
        via_direct.reserve_link(link, mbps);
      }
    }
    via_delta.apply_delta(delta);
    EXPECT_TRUE(via_delta == via_direct) << "trial " << trial;
  }
}

TEST(OccupancyDeltaTest, CapacityChecksMatchDirectSemantics) {
  const auto datacenter = small_dc(1, 2);
  Occupancy occupancy(datacenter);
  OccupancyDelta delta(occupancy);

  // Exactly-full is accepted, just like Occupancy::add_host_load.
  delta.add_host_load(0, {8.0, 16.0, 500.0});
  EXPECT_THROW(delta.add_host_load(0, {0.5, 0.0, 0.0}),
               std::invalid_argument);

  const LinkId link = datacenter.host_link(1);
  delta.reserve_link(link, 1000.0);  // exactly the uplink capacity
  EXPECT_THROW(delta.reserve_link(link, 1.0), std::invalid_argument);

  // The failures above must not have left phantom staged ops behind.
  occupancy.apply_delta(delta);
  EXPECT_DOUBLE_EQ(occupancy.available(0).vcpus, 0.0);
  EXPECT_DOUBLE_EQ(occupancy.link_available_mbps(link), 0.0);
}

TEST(OccupancyDeltaTest, FailedStagingKeepsDeltaUsable) {
  const auto datacenter = small_dc(1, 2);
  Occupancy occupancy(datacenter);
  const Occupancy pristine = occupancy;

  OccupancyDelta delta(occupancy);
  delta.add_host_load(0, {4.0, 4.0, 0.0});
  EXPECT_THROW(delta.add_host_load(1, {100.0, 0.0, 0.0}),
               std::invalid_argument);
  EXPECT_TRUE(occupancy == pristine);

  // The successfully staged op is still there and flushes fine.
  delta.add_host_load(1, {2.0, 2.0, 0.0});
  occupancy.apply_delta(delta);
  EXPECT_DOUBLE_EQ(occupancy.used(0).vcpus, 4.0);
  EXPECT_DOUBLE_EQ(occupancy.used(1).vcpus, 2.0);
}

TEST(OccupancyDeltaTest, StaleDeltaIsRejectedUntouched) {
  const auto datacenter = small_dc(2, 2);
  Occupancy occupancy(datacenter);

  OccupancyDelta delta(occupancy);
  delta.add_host_load(0, {2.0, 2.0, 0.0});
  delta.reserve_link(datacenter.host_link(0), 100.0);

  // Mutating the base after staging invalidates the delta's snapshots.
  occupancy.add_host_load(0, {1.0, 1.0, 0.0});
  const Occupancy before = occupancy;
  EXPECT_THROW(occupancy.apply_delta(delta), std::logic_error);
  EXPECT_TRUE(occupancy == before);
}

TEST(OccupancyDeltaTest, WrongBaseIsRejected) {
  const auto datacenter = small_dc(2, 2);
  Occupancy a(datacenter);
  Occupancy b(datacenter);
  OccupancyDelta delta(a);
  delta.add_host_load(0, {1.0, 1.0, 0.0});
  EXPECT_THROW(b.apply_delta(delta), std::logic_error);
}

TEST(OccupancyDeltaTest, ClearMakesDeltaReusable) {
  const auto datacenter = small_dc(2, 2);
  Occupancy occupancy(datacenter);
  OccupancyDelta delta(occupancy);

  delta.add_host_load(0, {2.0, 2.0, 0.0});
  delta.clear();
  EXPECT_TRUE(delta.empty());
  EXPECT_EQ(delta.host_op_count(), 0u);

  // Re-stage after a base mutation: the snapshots must be taken fresh.
  occupancy.add_host_load(1, {1.0, 1.0, 0.0});
  delta.add_host_load(1, {2.0, 2.0, 0.0});
  occupancy.apply_delta(delta);
  EXPECT_DOUBLE_EQ(occupancy.used(1).vcpus, 3.0);
  EXPECT_DOUBLE_EQ(occupancy.used(0).vcpus, 0.0);
}

}  // namespace
}  // namespace ostro::dc
