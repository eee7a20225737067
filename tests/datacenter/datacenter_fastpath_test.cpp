// The precomputed topology tables (per-host ancestors, uplink chains) must
// reproduce a walk of the Host/Rack/Pod records exactly, across every scope
// pair and on single- and multi-datacenter hierarchies.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "datacenter/datacenter.h"
#include "helpers.h"
#include "util/string_util.h"

namespace ostro::dc {
namespace {

using ostro::testing::small_dc;
using ostro::testing::two_site_dc;

/// Two sites x two pods x two racks x two hosts: every scope from kSameHost
/// to kCrossSite occurs among its host pairs.
DataCenter deep_dc() {
  DataCenterBuilder builder;
  for (int s = 0; s < 2; ++s) {
    const auto site = builder.add_site(util::format("site%d", s), 32000.0);
    for (int p = 0; p < 2; ++p) {
      const auto pod =
          builder.add_pod(site, util::format("s%d-pod%d", s, p), 16000.0);
      for (int r = 0; r < 2; ++r) {
        const auto rack = builder.add_rack(
            pod, util::format("s%d-p%d-rack%d", s, p, r), 4000.0);
        for (int h = 0; h < 2; ++h) {
          builder.add_host(rack, util::format("s%d-p%d-r%d-h%d", s, p, r, h),
                           {8.0, 16.0, 500.0}, 1000.0);
        }
      }
    }
  }
  return builder.build();
}

/// Exhaustive pairwise comparison of the table-driven queries against a
/// tree walk computed inline; returns per-scope pair counts so callers can
/// assert which scopes the fixture actually exercised.
std::array<int, 5> expect_tables_match(const DataCenter& dc) {
  std::array<int, 5> scope_pairs{};
  const auto n = static_cast<HostId>(dc.host_count());
  for (HostId a = 0; a < n; ++a) {
    const Host& host = dc.host(a);
    const HostAncestors& anc = dc.ancestors(a);
    EXPECT_EQ(anc.rack, host.rack);
    EXPECT_EQ(anc.pod, host.pod);
    EXPECT_EQ(anc.site, host.datacenter);
    const auto chain = dc.uplink_chain(a);
    EXPECT_EQ(chain[0], dc.host_link(a));
    EXPECT_EQ(chain[1], dc.rack_link(host.rack));
    EXPECT_EQ(chain[2], dc.pod_link(host.pod));
    EXPECT_EQ(chain[3], dc.site_link(host.datacenter));

    for (HostId b = 0; b < n; ++b) {
      const Host& hb = dc.host(b);
      // Walk the Host records: climb until both hosts share a unit, and
      // collect both sides' uplinks on the way.
      Scope walk = Scope::kSameHost;
      std::vector<LinkId> via_walk;
      if (a != b) {
        walk = Scope::kSameRack;
        via_walk = {dc.host_link(a), dc.host_link(b)};
        if (host.rack != hb.rack) {
          walk = Scope::kSamePod;
          via_walk.insert(via_walk.end(),
                          {dc.rack_link(host.rack), dc.rack_link(hb.rack)});
        }
        if (host.pod != hb.pod) {
          walk = Scope::kSameSite;
          via_walk.insert(via_walk.end(),
                          {dc.pod_link(host.pod), dc.pod_link(hb.pod)});
        }
        if (host.datacenter != hb.datacenter) {
          walk = Scope::kCrossSite;
          via_walk.insert(via_walk.end(), {dc.site_link(host.datacenter),
                                           dc.site_link(hb.datacenter)});
        }
      }

      const Scope fast = dc.scope_between(a, b);
      EXPECT_EQ(fast, walk) << "hosts " << a << ", " << b;
      ++scope_pairs[static_cast<std::size_t>(fast)];

      std::vector<LinkId> via_table;
      dc.path_links(a, b, via_table);
      EXPECT_EQ(via_table, via_walk) << "hosts " << a << ", " << b;

      const PathLinks path = dc.path_between(a, b);
      EXPECT_EQ(path.size(), via_walk.size());
      EXPECT_EQ(std::vector<LinkId>(path.begin(), path.end()), via_walk)
          << "hosts " << a << ", " << b;
      EXPECT_EQ(static_cast<int>(path.size()), hop_count(fast));

      for (const auto level :
           {topo::DiversityLevel::kHost, topo::DiversityLevel::kRack,
            topo::DiversityLevel::kPod, topo::DiversityLevel::kDatacenter}) {
        bool walk_separated = false;
        switch (level) {
          case topo::DiversityLevel::kHost: walk_separated = a != b; break;
          case topo::DiversityLevel::kRack:
            walk_separated = host.rack != hb.rack;
            break;
          case topo::DiversityLevel::kPod:
            walk_separated = host.pod != hb.pod;
            break;
          case topo::DiversityLevel::kDatacenter:
            walk_separated = host.datacenter != hb.datacenter;
            break;
        }
        EXPECT_EQ(dc.separated_at(a, b, level), walk_separated)
            << "hosts " << a << ", " << b;
      }
    }
  }
  return scope_pairs;
}

TEST(DataCenterFastPathTest, SingleSiteSinglePodMatchesWalk) {
  const auto scope_pairs = expect_tables_match(small_dc(3, 3));
  EXPECT_GT(scope_pairs[static_cast<int>(Scope::kSameHost)], 0);
  EXPECT_GT(scope_pairs[static_cast<int>(Scope::kSameRack)], 0);
  EXPECT_GT(scope_pairs[static_cast<int>(Scope::kSamePod)], 0);
  EXPECT_EQ(scope_pairs[static_cast<int>(Scope::kSameSite)], 0);
  EXPECT_EQ(scope_pairs[static_cast<int>(Scope::kCrossSite)], 0);
}

TEST(DataCenterFastPathTest, TwoSiteMatchesWalk) {
  const auto scope_pairs = expect_tables_match(two_site_dc(2, 2));
  EXPECT_GT(scope_pairs[static_cast<int>(Scope::kCrossSite)], 0);
}

TEST(DataCenterFastPathTest, DeepHierarchyCoversEveryScope) {
  const auto scope_pairs = expect_tables_match(deep_dc());
  for (int s = 0; s <= static_cast<int>(Scope::kCrossSite); ++s) {
    EXPECT_GT(scope_pairs[static_cast<std::size_t>(s)], 0) << "scope " << s;
  }
}

TEST(DataCenterFastPathTest, SingleHostDataCenter) {
  DataCenterBuilder builder;
  const auto site = builder.add_site("s", 100.0);
  const auto pod = builder.add_pod(site, "p", 100.0);
  const auto rack = builder.add_rack(pod, "r", 100.0);
  builder.add_host(rack, "h", {1.0, 1.0, 1.0}, 100.0);
  const DataCenter dc = builder.build();
  EXPECT_EQ(dc.scope_between(0, 0), Scope::kSameHost);
  EXPECT_EQ(dc.path_between(0, 0).size(), 0u);
}

TEST(DataCenterFastPathTest, BadHostIdThrows) {
  const auto dc = small_dc(2, 2);
  EXPECT_THROW((void)dc.scope_between(0, 999), std::out_of_range);
  EXPECT_THROW((void)dc.scope_between(999, 0), std::out_of_range);
  EXPECT_THROW((void)dc.path_between(0, 999), std::out_of_range);
  EXPECT_THROW(
      (void)dc.separated_at(999, 0, topo::DiversityLevel::kHost),
      std::out_of_range);
}

}  // namespace
}  // namespace ostro::dc
