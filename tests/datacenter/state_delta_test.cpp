// OccupancyDelta: staging never touches the base, overlay queries reflect
// staged ops, and one batch yields an Occupancy bit-identical to the same
// op sequence applied as one-op batches.
#include <gtest/gtest.h>

#include <stdexcept>

#include "datacenter/occupancy.h"
#include "datacenter/state_delta.h"
#include "helpers.h"
#include "util/rng.h"

namespace ostro::dc {
namespace {

using ostro::testing::add_host_load;
using ostro::testing::release_link;
using ostro::testing::remove_host_load;
using ostro::testing::reserve_link;
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
  add_host_load(occupancy, 1, {3.0, 3.0, 0.0});

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

// Batching never changes the result: a seeded random sequence of host and
// link reserves and releases, applied as one delta and as one-op deltas in
// sequence, leaves equal occupancies (operator== covers the index).  Amounts
// are multiples of 0.1, so sums are inexact in binary and releases land
// near zero; and a link is also released and re-reserved inside one delta,
// as a migration does on every host and link its stack keeps.
TEST(OccupancyDeltaTest, OneBatchMatchesOneOpBatches) {
  const auto datacenter = small_dc(3, 3);
  const auto hosts = static_cast<int>(datacenter.host_count());
  const auto links = static_cast<int>(datacenter.link_count());
  util::Rng rng(20260806);
  for (int trial = 0; trial < 40; ++trial) {
    Occupancy batched(datacenter);
    Occupancy one_op(datacenter);
    // Pre-existing state so the delta snapshots non-zero base values.
    for (Occupancy* occupancy : {&batched, &one_op}) {
      add_host_load(*occupancy, 2, {1.5, 2.5, 5.0});
      reserve_link(*occupancy, datacenter.host_link(2), 30.0);
    }

    OccupancyDelta delta(batched);
    // Stages one op and, when it is accepted, mirrors it as its own batch:
    // the staged running value is what `one_op` holds, so the mirror must
    // pass the same check.
    const auto both = [&](auto stage, auto mirror) {
      try {
        stage();
      } catch (const std::invalid_argument&) {
        return;
      }
      mirror();
    };
    for (int op = 0; op < 24; ++op) {
      const auto h = static_cast<HostId>(rng.uniform_int(0, hosts - 1));
      const double tenth = 0.1 * static_cast<double>(rng.uniform_int(1, 9));
      const topo::Resources load{tenth, 2.0 * tenth, 1.0};
      const auto link = static_cast<LinkId>(rng.uniform_int(0, links - 1));
      const double mbps = tenth * 100.0;
      switch (rng.uniform_int(0, 4)) {
        case 0:
          both([&] { delta.add_host_load(h, load); },
               [&] { add_host_load(one_op, h, load); });
          break;
        case 1:
          both([&] { delta.remove_host_load(h, load); },
               [&] { remove_host_load(one_op, h, load); });
          break;
        case 2:
          both([&] { delta.reserve_link(link, mbps); },
               [&] { reserve_link(one_op, link, mbps); });
          break;
        case 3:
          both([&] { delta.release_link(link, mbps); },
               [&] { release_link(one_op, link, mbps); });
          break;
        default:
          both([&] { delta.release_link(link, mbps); },
               [&] { release_link(one_op, link, mbps); });
          both([&] { delta.reserve_link(link, mbps); },
               [&] { reserve_link(one_op, link, mbps); });
          break;
      }
    }
    batched.apply_delta(delta);
    ASSERT_TRUE(batched == one_op) << "trial " << trial;
    ASSERT_TRUE(batched.feasibility().selfcheck(batched)) << "trial " << trial;
  }
}

TEST(OccupancyDeltaTest, CapacityChecksMatchDirectSemantics) {
  const auto datacenter = small_dc(1, 2);
  Occupancy occupancy(datacenter);
  OccupancyDelta delta(occupancy);

  // Exactly-full is accepted; a hair over is not.
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
  add_host_load(occupancy, 0, {1.0, 1.0, 0.0});
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
  add_host_load(occupancy, 1, {1.0, 1.0, 0.0});
  delta.add_host_load(1, {2.0, 2.0, 0.0});
  occupancy.apply_delta(delta);
  EXPECT_DOUBLE_EQ(occupancy.used(1).vcpus, 3.0);
  EXPECT_DOUBLE_EQ(occupancy.used(0).vcpus, 0.0);
}

}  // namespace
}  // namespace ostro::dc
