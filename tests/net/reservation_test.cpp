#include "net/reservation.h"

#include <gtest/gtest.h>

#include "helpers.h"

namespace ostro::net {
namespace {

using ostro::testing::add_host_load;
using ostro::testing::release_link;
using ostro::testing::reserve_link;
using ostro::testing::small_dc;
using ostro::testing::tiny_app;

TEST(ReservationTest, CommitConsumesHostAndLinkResources) {
  const dc::DataCenter dc = small_dc(2, 2);
  dc::Occupancy occupancy(dc);
  const topo::AppTopology app = tiny_app();
  // web->h0, db->h1 (same rack), data->h1 (co-located with db).
  const Assignment assignment{0, 1, 1};
  commit_placement(occupancy, app, assignment);

  EXPECT_EQ(occupancy.used(0), (topo::Resources{2.0, 2.0, 0.0}));
  EXPECT_EQ(occupancy.used(1), (topo::Resources{4.0, 4.0, 100.0}));
  // Only the web--db pipe (100) crosses hosts: both host uplinks.
  EXPECT_DOUBLE_EQ(occupancy.link_used_mbps(dc.host_link(0)), 100.0);
  EXPECT_DOUBLE_EQ(occupancy.link_used_mbps(dc.host_link(1)), 100.0);
  EXPECT_DOUBLE_EQ(occupancy.link_used_mbps(dc.rack_link(0)), 0.0);
}

TEST(ReservationTest, CrossRackReservesTorLinks) {
  const dc::DataCenter dc = small_dc(2, 2);
  dc::Occupancy occupancy(dc);
  const topo::AppTopology app = tiny_app();
  const Assignment assignment{0, 2, 2};  // web rack0, db+data rack1
  commit_placement(occupancy, app, assignment);
  EXPECT_DOUBLE_EQ(occupancy.link_used_mbps(dc.rack_link(0)), 100.0);
  EXPECT_DOUBLE_EQ(occupancy.link_used_mbps(dc.rack_link(1)), 100.0);
}

TEST(ReservationTest, FailureRollsBackEverything) {
  const dc::DataCenter dc = small_dc(1, 2);
  dc::Occupancy occupancy(dc);
  // Consume so much bandwidth that the web--db pipe cannot fit.
  reserve_link(occupancy, dc.host_link(1), 950.0);
  const dc::Occupancy before = occupancy;

  const topo::AppTopology app = tiny_app();
  const Assignment assignment{0, 1, 1};
  EXPECT_THROW(commit_placement(occupancy, app, assignment),
               std::invalid_argument);
  EXPECT_TRUE(occupancy == before);
}

TEST(ReservationTest, HostOverCapacityRollsBack) {
  const dc::DataCenter dc = small_dc(1, 2);
  dc::Occupancy occupancy(dc);
  add_host_load(occupancy, 1, {6.0, 14.0, 0.0});  // db (4,4) will not fit
  const dc::Occupancy before = occupancy;
  const topo::AppTopology app = tiny_app();
  EXPECT_THROW(commit_placement(occupancy, app, {0, 1, 0}),
               std::invalid_argument);
  EXPECT_TRUE(occupancy == before);
}

TEST(ReservationTest, MidEdgeFailureLeavesOccupancyBitIdentical) {
  const dc::DataCenter dc = small_dc(2, 2);
  dc::Occupancy occupancy(dc);
  // The web--db pipe (100 Mbps) of the cross-rack assignment {0, 2, 2}
  // traverses both hosts' uplinks and both ToR uplinks.  Leave only 50 Mbps
  // on rack1's uplink: the reservation fails partway through the edge's
  // link list, after the host loads and some links were already reserved.
  reserve_link(occupancy, dc.rack_link(1), 3950.0);
  const dc::Occupancy before = occupancy;

  EXPECT_THROW(commit_placement(occupancy, tiny_app(), {0, 2, 2}),
               std::invalid_argument);
  EXPECT_TRUE(occupancy == before);
  // Spell the invariant out field by field as well: host loads, active
  // flags, and link reservations all match the pre-apply snapshot.
  for (std::size_t h = 0; h < dc.host_count(); ++h) {
    const auto host = static_cast<dc::HostId>(h);
    EXPECT_EQ(occupancy.used(host), before.used(host)) << "host " << h;
    EXPECT_EQ(occupancy.is_active(host), before.is_active(host))
        << "host " << h;
  }
  for (std::size_t l = 0; l < dc.link_count(); ++l) {
    const auto link = static_cast<dc::LinkId>(l);
    EXPECT_DOUBLE_EQ(occupancy.link_used_mbps(link),
                     before.link_used_mbps(link))
        << "link " << l;
  }

  // Free the uplink and the same assignment goes through.
  release_link(occupancy, dc.rack_link(1), 3950.0);
  commit_placement(occupancy, tiny_app(), {0, 2, 2});
  EXPECT_DOUBLE_EQ(occupancy.link_used_mbps(dc.rack_link(0)), 100.0);
  EXPECT_DOUBLE_EQ(occupancy.link_used_mbps(dc.rack_link(1)), 100.0);
  EXPECT_EQ(occupancy.used(2), (topo::Resources{4.0, 4.0, 100.0}));
}

TEST(ReservationTest, StackOpsListHostsInNodeOrderThenPathsInEdgeOrder) {
  const dc::DataCenter dc = small_dc(2, 2);
  // web rack0, db+data rack1: web--db crosses racks, db--data stays on h2.
  const StackOps ops = stack_ops(dc, tiny_app(), {0, 2, 2});
  const std::vector<std::pair<dc::HostId, topo::Resources>> hosts{
      {0, {2.0, 2.0, 0.0}}, {2, {4.0, 4.0, 0.0}}, {2, {0.0, 0.0, 100.0}}};
  EXPECT_EQ(ops.host_loads, hosts);
  std::vector<std::pair<dc::LinkId, double>> links;
  for (const dc::LinkId link : dc.path_between(0, 2)) {
    links.emplace_back(link, 100.0);
  }
  EXPECT_EQ(ops.link_mbps, links);
}

TEST(ReservationTest, MalformedAssignmentsRejected) {
  const dc::DataCenter dc = small_dc(1, 2);
  dc::Occupancy occupancy(dc);
  const topo::AppTopology app = tiny_app();
  EXPECT_THROW(commit_placement(occupancy, app, {0, 1}),
               std::invalid_argument);  // size mismatch
  EXPECT_THROW(commit_placement(occupancy, app, {0, 1, dc::kInvalidHost}),
               std::invalid_argument);  // unplaced node
  EXPECT_THROW(commit_placement(occupancy, app, {0, 1, 77}),
               std::invalid_argument);  // bad host
}

TEST(ReservedBandwidthTest, HopWeightedSum) {
  const dc::DataCenter dc = small_dc(2, 2);
  const topo::AppTopology app = tiny_app();
  // All on one host: zero.
  EXPECT_DOUBLE_EQ(reserved_bandwidth_mbps(dc, app, {0, 0, 0}), 0.0);
  // web-db same rack (100*2), db-data co-located: 200.
  EXPECT_DOUBLE_EQ(reserved_bandwidth_mbps(dc, app, {0, 1, 1}), 200.0);
  // web-db cross rack (100*4), db-data cross rack (200*4): 1200.
  EXPECT_DOUBLE_EQ(reserved_bandwidth_mbps(dc, app, {0, 2, 1}), 1200.0);
}

TEST(ReservedBandwidthTest, SizeMismatchThrows) {
  const dc::DataCenter dc = small_dc();
  EXPECT_THROW((void)reserved_bandwidth_mbps(dc, tiny_app(), {0, 1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace ostro::net
