// Edge cases of the max-min fair solver: saturated (zero-available) links
// under an Occupancy, co-located flows with empty paths, equal-demand ties
// at the saturation level, and the progress guarantee of the freezing loop.
#include "net/maxmin.h"

#include <gtest/gtest.h>

#include "helpers.h"

namespace ostro::net {
namespace {

using ostro::testing::reserve_link;
using ostro::testing::small_dc;

TEST(MaxMinEdgeTest, SaturatedLinkStarvesOnlyItsFlows) {
  const dc::DataCenter dc = small_dc(2, 2);  // hosts 0,1 rack0; 2,3 rack1
  dc::Occupancy occupancy(dc);
  reserve_link(occupancy, dc.host_link(0), 1000.0);  // h0 uplink: 0 available

  const std::vector<Flow> flows = {{0, 1, 500.0}, {2, 3, 400.0}};
  const FairShareResult result = max_min_fair_rates(occupancy, flows);
  ASSERT_EQ(result.rate_mbps.size(), 2u);
  EXPECT_DOUBLE_EQ(result.rate_mbps[0], 0.0);
  EXPECT_DOUBLE_EQ(result.rate_mbps[1], 400.0);
  EXPECT_DOUBLE_EQ(result.total_mbps, 400.0);
}

TEST(MaxMinEdgeTest, AllFlowsThroughSaturatedLinksGetZero) {
  const dc::DataCenter dc = small_dc(2, 2);
  dc::Occupancy occupancy(dc);
  reserve_link(occupancy, dc.host_link(0), 1000.0);
  reserve_link(occupancy, dc.host_link(2), 1000.0);

  const std::vector<Flow> flows = {{0, 1, 500.0}, {2, 3, 400.0}};
  const FairShareResult result = max_min_fair_rates(occupancy, flows);
  EXPECT_DOUBLE_EQ(result.rate_mbps[0], 0.0);
  EXPECT_DOUBLE_EQ(result.rate_mbps[1], 0.0);
  EXPECT_DOUBLE_EQ(result.total_mbps, 0.0);
  // Zero-capacity flows must freeze immediately, not loop.
  EXPECT_LE(result.rounds, static_cast<int>(flows.size()));
}

TEST(MaxMinEdgeTest, CoLocatedFlowUnaffectedBySaturation) {
  const dc::DataCenter dc = small_dc(2, 2);
  dc::Occupancy occupancy(dc);
  reserve_link(occupancy, dc.host_link(0), 1000.0);

  // The co-located flow traverses no physical link; the cross-host flow
  // shares a fully reserved uplink.
  const std::vector<Flow> flows = {{0, 0, 250.0}, {0, 1, 500.0}};
  const FairShareResult result = max_min_fair_rates(occupancy, flows);
  EXPECT_DOUBLE_EQ(result.rate_mbps[0], 250.0);
  EXPECT_DOUBLE_EQ(result.rate_mbps[1], 0.0);
  EXPECT_DOUBLE_EQ(result.total_mbps, 250.0);
}

TEST(MaxMinEdgeTest, EqualDemandTieAtSaturationFreezesBoth) {
  const dc::DataCenter dc = small_dc(1, 2);
  // Both flows share h0's 1000 Mbps uplink; the fair share (500) equals the
  // demand of each flow, so demand-freezing and saturation-freezing
  // coincide — both must freeze in the same round.
  const std::vector<Flow> flows = {{0, 1, 500.0}, {0, 1, 500.0}};
  const FairShareResult result = max_min_fair_rates(dc, flows);
  EXPECT_DOUBLE_EQ(result.rate_mbps[0], 500.0);
  EXPECT_DOUBLE_EQ(result.rate_mbps[1], 500.0);
  EXPECT_DOUBLE_EQ(result.total_mbps, 1000.0);
  EXPECT_EQ(result.rounds, 1);
}

TEST(MaxMinEdgeTest, SaturationBelowEqualDemandsSplitsEvenly) {
  const dc::DataCenter dc = small_dc(1, 2);
  const std::vector<Flow> flows = {
      {0, 1, 300.0}, {0, 1, 300.0}, {0, 1, 300.0}, {0, 1, 300.0}};
  const FairShareResult result = max_min_fair_rates(dc, flows);
  for (double rate : result.rate_mbps) EXPECT_DOUBLE_EQ(rate, 250.0);
  EXPECT_DOUBLE_EQ(result.total_mbps, 1000.0);
  // One saturation event freezes everyone: a single round.
  EXPECT_EQ(result.rounds, 1);
}

// Guards the defensive stall branch: each round must freeze at least one
// flow (froze_any), so the round count is bounded by the flow count even on
// instances mixing zero-capacity links, co-located flows, ties, and
// demand-limited flows.
TEST(MaxMinEdgeTest, EveryRoundMakesProgress) {
  const dc::DataCenter dc = small_dc(2, 2);
  dc::Occupancy occupancy(dc);
  reserve_link(occupancy, dc.host_link(3), 1000.0);

  const std::vector<Flow> flows = {
      {0, 1, 800.0},   // bottlenecked on shared h0/h1 uplinks
      {0, 1, 800.0},   // ties with the flow above
      {2, 2, 50.0},    // co-located, demand-limited
      {2, 3, 400.0},   // h3 uplink fully reserved: rate 0
      {0, 2, 100.0},   // cross-rack, demand-limited
  };
  const FairShareResult result = max_min_fair_rates(occupancy, flows);
  ASSERT_EQ(result.rate_mbps.size(), flows.size());
  EXPECT_GE(result.rounds, 1);
  EXPECT_LE(result.rounds, static_cast<int>(flows.size()));
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_GE(result.rate_mbps[i], 0.0);
    EXPECT_LE(result.rate_mbps[i], flows[i].demand_mbps + 1e-9);
  }
  EXPECT_DOUBLE_EQ(result.rate_mbps[2], 50.0);
  EXPECT_DOUBLE_EQ(result.rate_mbps[3], 0.0);
  EXPECT_DOUBLE_EQ(result.rate_mbps[4], 100.0);
  // The tied pair splits h0's uplink after the cross-rack flow took its
  // share: (1000 - 100) / 2 each.
  EXPECT_DOUBLE_EQ(result.rate_mbps[0], 450.0);
  EXPECT_DOUBLE_EQ(result.rate_mbps[1], 450.0);
}

}  // namespace
}  // namespace ostro::net
