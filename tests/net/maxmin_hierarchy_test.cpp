// Max-min fairness across the deeper hierarchy: ToR-, pod- and site-level
// bottlenecks, and conservation/monotonicity properties under randomized
// flow sets.
#include <gtest/gtest.h>

#include "helpers.h"
#include "net/maxmin.h"
#include "sim/clusters.h"

namespace ostro::net {
namespace {

using ostro::testing::two_site_dc;

/// 1 site, 2 pods x 2 racks x 2 hosts with a deliberately thin pod uplink.
dc::DataCenter thin_pod_dc(double pod_uplink) {
  dc::DataCenterBuilder builder;
  const auto site = builder.add_site("s", 100000.0);
  for (int p = 0; p < 2; ++p) {
    const auto pod =
        builder.add_pod(site, "p" + std::to_string(p), pod_uplink);
    for (int r = 0; r < 2; ++r) {
      const auto rack = builder.add_rack(
          pod, "p" + std::to_string(p) + "r" + std::to_string(r), 50000.0);
      for (int h = 0; h < 2; ++h) {
        builder.add_host(rack,
                         "p" + std::to_string(p) + "r" + std::to_string(r) +
                             "h" + std::to_string(h),
                         {8.0, 16.0, 500.0}, 50000.0);
      }
    }
  }
  return builder.build();
}

TEST(MaxMinHierarchyTest, PodUplinkIsTheBottleneck) {
  const auto dc = thin_pod_dc(1000.0);  // 1 Gbps pod uplinks
  // Four cross-pod flows from distinct hosts of pod 0 to pod 1: each pod
  // uplink carries all four, so each flow gets 250.
  std::vector<Flow> flows;
  for (dc::HostId h = 0; h < 4; ++h) {
    flows.push_back({h, static_cast<dc::HostId>(h + 4), 10000.0});
  }
  const FairShareResult result = max_min_fair_rates(dc, flows);
  for (const double rate : result.rate_mbps) {
    EXPECT_NEAR(rate, 250.0, 1e-6);
  }
}

TEST(MaxMinHierarchyTest, IntraPodTrafficIgnoresPodUplink) {
  const auto dc = thin_pod_dc(1000.0);
  // Cross-rack but intra-pod: only host + ToR links involved.
  const FairShareResult result =
      max_min_fair_rates(dc, {{0, 2, 30000.0}});
  EXPECT_NEAR(result.rate_mbps[0], 30000.0, 1e-6);  // demand-limited
}

TEST(MaxMinHierarchyTest, SiteInterconnectBottleneck) {
  const auto dc = two_site_dc(1, 2);  // site uplinks 8000
  std::vector<Flow> flows;
  for (int i = 0; i < 4; ++i) {
    flows.push_back({0, 2, 100000.0});  // host0 site0 -> host2 site1
    flows.push_back({1, 3, 100000.0});
  }
  const FairShareResult result = max_min_fair_rates(dc, flows);
  double total = 0.0;
  for (const double rate : result.rate_mbps) total += rate;
  // All eight flows share the two hosts' 1000-uplinks first: 4 flows per
  // host uplink -> 250 each.
  EXPECT_NEAR(total, 2000.0, 1e-6);
}

TEST(MaxMinHierarchyTest, RandomFlowsRespectEveryCapacity) {
  util::Rng rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    const auto dc = thin_pod_dc(2000.0 + 500.0 * trial);
    std::vector<Flow> flows;
    const int n = 3 + static_cast<int>(rng.next_below(10));
    for (int i = 0; i < n; ++i) {
      const auto src = static_cast<dc::HostId>(rng.next_below(8));
      auto dst = static_cast<dc::HostId>(rng.next_below(8));
      if (dst == src) dst = (dst + 1) % 8;
      flows.push_back({src, dst, 100.0 * static_cast<double>(rng.uniform_int(1, 400))});
    }
    const FairShareResult result = max_min_fair_rates(dc, flows);
    std::vector<double> used(dc.link_count(), 0.0);
    for (std::size_t f = 0; f < flows.size(); ++f) {
      EXPECT_GE(result.rate_mbps[f], -1e-9);
      EXPECT_LE(result.rate_mbps[f], flows[f].demand_mbps + 1e-6);
      for (const auto link : dc.path_between(flows[f].src, flows[f].dst)) {
        used[link] += result.rate_mbps[f];
      }
    }
    for (std::size_t l = 0; l < used.size(); ++l) {
      EXPECT_LE(used[l],
                dc.link_capacity(static_cast<dc::LinkId>(l)) + 1e-6)
          << "trial " << trial << " link " << l;
    }
  }
}

TEST(MaxMinHierarchyTest, AddingAFlowNeverHelpsExistingOnes) {
  const auto dc = thin_pod_dc(1000.0);
  std::vector<Flow> flows{{0, 4, 10000.0}, {1, 5, 10000.0}};
  const FairShareResult before = max_min_fair_rates(dc, flows);
  flows.push_back({2, 6, 10000.0});
  const FairShareResult after = max_min_fair_rates(dc, flows);
  for (std::size_t f = 0; f < 2; ++f) {
    EXPECT_LE(after.rate_mbps[f], before.rate_mbps[f] + 1e-6);
  }
}

}  // namespace
}  // namespace ostro::net
