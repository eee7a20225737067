#include "net/maxmin.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "helpers.h"

namespace ostro::net {
namespace {

using ostro::testing::reserve_link;
using ostro::testing::small_dc;

TEST(MaxMinTest, EmptyFlows) {
  const dc::DataCenter dc = small_dc();
  const FairShareResult result = max_min_fair_rates(dc, {});
  EXPECT_TRUE(result.rate_mbps.empty());
  EXPECT_DOUBLE_EQ(result.total_mbps, 0.0);
}

TEST(MaxMinTest, SingleFlowLimitedByDemand) {
  const dc::DataCenter dc = small_dc();  // host uplinks 1000
  const FairShareResult result =
      max_min_fair_rates(dc, {{0, 1, 300.0}});
  ASSERT_EQ(result.rate_mbps.size(), 1u);
  EXPECT_NEAR(result.rate_mbps[0], 300.0, 1e-6);
}

TEST(MaxMinTest, SingleFlowLimitedByLink) {
  const dc::DataCenter dc = small_dc();
  const FairShareResult result =
      max_min_fair_rates(dc, {{0, 1, 5000.0}});
  EXPECT_NEAR(result.rate_mbps[0], 1000.0, 1e-6);  // host uplink cap
}

TEST(MaxMinTest, CoLocatedFlowGetsFullDemand) {
  const dc::DataCenter dc = small_dc();
  const FairShareResult result =
      max_min_fair_rates(dc, {{0, 0, 123456.0}});
  EXPECT_NEAR(result.rate_mbps[0], 123456.0, 1e-6);
}

TEST(MaxMinTest, EqualShareOnSharedBottleneck) {
  const dc::DataCenter dc = small_dc(2, 2);
  // Two flows out of host 0 share its 1000 Mbps uplink.
  const FairShareResult result = max_min_fair_rates(
      dc, {{0, 1, 10000.0}, {0, 2, 10000.0}});
  EXPECT_NEAR(result.rate_mbps[0], 500.0, 1e-6);
  EXPECT_NEAR(result.rate_mbps[1], 500.0, 1e-6);
}

TEST(MaxMinTest, SmallDemandReleasesShareToOthers) {
  const dc::DataCenter dc = small_dc(2, 2);
  const FairShareResult result = max_min_fair_rates(
      dc, {{0, 1, 100.0}, {0, 2, 10000.0}});
  EXPECT_NEAR(result.rate_mbps[0], 100.0, 1e-6);
  EXPECT_NEAR(result.rate_mbps[1], 900.0, 1e-6);
}

TEST(MaxMinTest, TorBottleneckAcrossRacks) {
  // 4 hosts in 2 racks; rack uplink 4000, host uplink 1000.  Eight
  // cross-rack flows from distinct sources saturate... host links first
  // (1000 each); with 2 flows per source host they get 500 each.
  const dc::DataCenter dc = small_dc(2, 2);
  std::vector<Flow> flows;
  for (int i = 0; i < 2; ++i) {
    flows.push_back({0, 2, 10000.0});
    flows.push_back({1, 3, 10000.0});
  }
  const FairShareResult result = max_min_fair_rates(dc, flows);
  for (const double rate : result.rate_mbps) EXPECT_NEAR(rate, 500.0, 1e-6);
  EXPECT_NEAR(result.total_mbps, 2000.0, 1e-6);
}

TEST(MaxMinTest, MaxMinProperty) {
  // No flow can be increased without decreasing a flow of smaller-or-equal
  // rate: verify every non-demand-capped flow crosses a saturated link.
  const dc::DataCenter dc = small_dc(2, 3);
  std::vector<Flow> flows = {
      {0, 3, 800.0}, {0, 4, 600.0}, {1, 3, 900.0},
      {2, 5, 400.0}, {1, 0, 200.0},
  };
  const FairShareResult result = max_min_fair_rates(dc, flows);
  // Recompute link usage.
  std::vector<double> used(dc.link_count(), 0.0);
  std::vector<dc::PathLinks> paths(flows.size());
  for (std::size_t f = 0; f < flows.size(); ++f) {
    paths[f] = dc.path_between(flows[f].src, flows[f].dst);
    for (const auto link : paths[f]) used[link] += result.rate_mbps[f];
  }
  for (std::size_t l = 0; l < used.size(); ++l) {
    EXPECT_LE(used[l],
              dc.link_capacity(static_cast<dc::LinkId>(l)) + 1e-6);
  }
  for (std::size_t f = 0; f < flows.size(); ++f) {
    if (result.rate_mbps[f] >= flows[f].demand_mbps - 1e-6) continue;
    bool crosses_saturated = false;
    for (const auto link : paths[f]) {
      if (used[link] >=
          dc.link_capacity(static_cast<dc::LinkId>(link)) - 1e-6) {
        crosses_saturated = true;
        break;
      }
    }
    EXPECT_TRUE(crosses_saturated) << "flow " << f << " is not bottlenecked";
  }
}

TEST(MaxMinTest, RatesNeverExceedDemand) {
  const dc::DataCenter dc = small_dc(2, 3);
  std::vector<Flow> flows;
  for (dc::HostId h = 0; h < 6; ++h) {
    flows.push_back({h, static_cast<dc::HostId>((h + 1) % 6),
                     100.0 * static_cast<double>(h + 1)});
  }
  const FairShareResult result = max_min_fair_rates(dc, flows);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    EXPECT_LE(result.rate_mbps[f], flows[f].demand_mbps + 1e-6);
    EXPECT_GE(result.rate_mbps[f], 0.0);
  }
}

TEST(MaxMinTest, NonPositiveDemandThrows) {
  const dc::DataCenter dc = small_dc();
  EXPECT_THROW((void)max_min_fair_rates(dc, {{0, 1, 0.0}}),
               std::invalid_argument);
  EXPECT_THROW((void)max_min_fair_rates(dc, {{0, 1, -5.0}}),
               std::invalid_argument);
}

TEST(MaxMinTest, OccupancyReducesCapacity) {
  const dc::DataCenter dc = small_dc();
  dc::Occupancy occupancy(dc);
  reserve_link(occupancy, dc.host_link(0), 800.0);  // 200 left
  const FairShareResult result =
      max_min_fair_rates(occupancy, {{0, 1, 10000.0}});
  EXPECT_NEAR(result.rate_mbps[0], 200.0, 1e-6);
}

TEST(MaxMinTest, FullyReservedLinkGivesZero) {
  const dc::DataCenter dc = small_dc();
  dc::Occupancy occupancy(dc);
  reserve_link(occupancy, dc.host_link(0), 1000.0);
  const FairShareResult result =
      max_min_fair_rates(occupancy, {{0, 1, 500.0}});
  EXPECT_NEAR(result.rate_mbps[0], 0.0, 1e-6);
}

}  // namespace
}  // namespace ostro::net
