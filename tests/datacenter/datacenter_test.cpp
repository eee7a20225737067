#include "datacenter/datacenter.h"

#include <gtest/gtest.h>

#include "helpers.h"

namespace ostro::dc {
namespace {

using ostro::testing::small_dc;
using ostro::testing::two_site_dc;

TEST(DataCenterBuilderTest, BuildsHierarchy) {
  const DataCenter dc = small_dc(2, 2);
  EXPECT_EQ(dc.host_count(), 4u);
  EXPECT_EQ(dc.racks().size(), 2u);
  EXPECT_EQ(dc.pods().size(), 1u);
  EXPECT_EQ(dc.sites().size(), 1u);
  EXPECT_EQ(dc.racks()[0].hosts.size(), 2u);
  EXPECT_EQ(dc.host(0).rack, 0u);
  EXPECT_EQ(dc.host(3).rack, 1u);
}

TEST(DataCenterBuilderTest, RejectsInvalidReferences) {
  DataCenterBuilder builder;
  EXPECT_THROW((void)builder.add_pod(0, "pod", 100.0), std::invalid_argument);
  const auto site = builder.add_site("s", 100.0);
  EXPECT_THROW((void)builder.add_rack(5, "rack", 100.0),
               std::invalid_argument);
  const auto pod = builder.add_pod(site, "pod", 100.0);
  EXPECT_THROW(
      (void)builder.add_host(9, "h", {1.0, 1.0, 1.0}, 100.0),
      std::invalid_argument);
  const auto rack = builder.add_rack(pod, "rack", 100.0);
  EXPECT_THROW(
      (void)builder.add_host(rack, "h", {-1.0, 1.0, 1.0}, 100.0),
      std::invalid_argument);
  EXPECT_THROW((void)builder.add_host(rack, "h", {1.0, 1.0, 1.0}, -5.0),
               std::invalid_argument);
}

TEST(DataCenterBuilderTest, EmptyBuildThrows) {
  DataCenterBuilder builder;
  (void)builder.add_site("s", 100.0);
  EXPECT_THROW((void)builder.build(), std::invalid_argument);
}

TEST(DataCenterTest, ScopeBetween) {
  const DataCenter dc = two_site_dc(2, 2);  // 2 sites x 2 racks x 2 hosts
  EXPECT_EQ(dc.scope_between(0, 0), Scope::kSameHost);
  EXPECT_EQ(dc.scope_between(0, 1), Scope::kSameRack);
  EXPECT_EQ(dc.scope_between(0, 2), Scope::kSamePod);
  EXPECT_EQ(dc.scope_between(0, 4), Scope::kCrossSite);
}

TEST(DataCenterTest, HopCounts) {
  EXPECT_EQ(hop_count(Scope::kSameHost), 0);
  EXPECT_EQ(hop_count(Scope::kSameRack), 2);
  EXPECT_EQ(hop_count(Scope::kSamePod), 4);
  EXPECT_EQ(hop_count(Scope::kSameSite), 6);
  EXPECT_EQ(hop_count(Scope::kCrossSite), 8);
}

TEST(DataCenterTest, SeparatedAt) {
  const DataCenter dc = two_site_dc(2, 2);
  using topo::DiversityLevel;
  EXPECT_FALSE(dc.separated_at(0, 0, DiversityLevel::kHost));
  EXPECT_TRUE(dc.separated_at(0, 1, DiversityLevel::kHost));
  EXPECT_FALSE(dc.separated_at(0, 1, DiversityLevel::kRack));
  EXPECT_TRUE(dc.separated_at(0, 2, DiversityLevel::kRack));
  EXPECT_FALSE(dc.separated_at(0, 2, DiversityLevel::kDatacenter));
  EXPECT_TRUE(dc.separated_at(0, 4, DiversityLevel::kDatacenter));
}

TEST(DataCenterTest, PathLinksSameHostIsEmpty) {
  const DataCenter dc = small_dc();
  EXPECT_EQ(dc.path_between(0, 0).size(), 0u);
}

TEST(DataCenterTest, PathLinksSameRack) {
  const DataCenter dc = small_dc(2, 2);
  const PathLinks links = dc.path_between(0, 1);
  ASSERT_EQ(links.size(), 2u);
  EXPECT_EQ(links[0], dc.host_link(0));
  EXPECT_EQ(links[1], dc.host_link(1));
}

TEST(DataCenterTest, PathLinksCrossRack) {
  const DataCenter dc = small_dc(2, 2);
  const PathLinks links = dc.path_between(0, 2);
  ASSERT_EQ(links.size(), 4u);
  EXPECT_EQ(links[2], dc.rack_link(0));
  EXPECT_EQ(links[3], dc.rack_link(1));
}

TEST(DataCenterTest, PathLinksCrossSite) {
  const DataCenter dc = two_site_dc(1, 1);  // 2 hosts, one per site
  const PathLinks links = dc.path_between(0, 1);
  // host, host, tor, tor, pod, pod, site, site.
  ASSERT_EQ(links.size(), 8u);
  EXPECT_EQ(links[6], dc.site_link(0));
  EXPECT_EQ(links[7], dc.site_link(1));
}

TEST(DataCenterTest, LinkCapacityByLevel) {
  const DataCenter dc = small_dc(2, 2);
  EXPECT_DOUBLE_EQ(dc.link_capacity(dc.host_link(0)), 1000.0);
  EXPECT_DOUBLE_EQ(dc.link_capacity(dc.rack_link(1)), 4000.0);
  EXPECT_DOUBLE_EQ(dc.link_capacity(dc.pod_link(0)), 16000.0);
  EXPECT_DOUBLE_EQ(dc.link_capacity(dc.site_link(0)), 16000.0);
  EXPECT_THROW((void)dc.link_capacity(static_cast<LinkId>(dc.link_count())),
               std::out_of_range);
}

TEST(DataCenterTest, LinkNames) {
  const DataCenter dc = small_dc(1, 1);
  EXPECT_EQ(dc.link_name(dc.host_link(0)), "host:h0-0");
  EXPECT_EQ(dc.link_name(dc.rack_link(0)), "tor:rack0");
  EXPECT_EQ(dc.link_name(dc.pod_link(0)), "pod:pod0");
  EXPECT_EQ(dc.link_name(dc.site_link(0)), "site:site0");
}

TEST(DataCenterTest, LinkCountLayout) {
  const DataCenter dc = small_dc(2, 3);  // 6 hosts + 2 racks + 1 pod + 1 site
  EXPECT_EQ(dc.link_count(), 10u);
}

TEST(DataCenterTest, MaxHostCapacityIsComponentwiseMax) {
  DataCenterBuilder builder;
  const auto site = builder.add_site("s", 1000.0);
  const auto pod = builder.add_pod(site, "p", 1000.0);
  const auto rack = builder.add_rack(pod, "r", 1000.0);
  builder.add_host(rack, "big-cpu", {32.0, 8.0, 100.0}, 500.0);
  builder.add_host(rack, "big-mem", {4.0, 64.0, 200.0}, 800.0);
  const DataCenter dc = builder.build();
  EXPECT_EQ(dc.max_host_capacity(), (topo::Resources{32.0, 64.0, 200.0}));
  EXPECT_DOUBLE_EQ(dc.max_host_uplink_mbps(), 800.0);
}

TEST(DataCenterTest, MaxScopeByStructure) {
  EXPECT_EQ(small_dc(1, 1).max_scope(), Scope::kSameHost);
  EXPECT_EQ(small_dc(1, 2).max_scope(), Scope::kSameRack);
  EXPECT_EQ(small_dc(3, 2).max_scope(), Scope::kSamePod);
  EXPECT_EQ(two_site_dc().max_scope(), Scope::kCrossSite);
}

TEST(DataCenterTest, BadHostAccessThrows) {
  const DataCenter dc = small_dc();
  EXPECT_THROW((void)dc.host(999), std::out_of_range);
  EXPECT_THROW((void)dc.scope_between(0, 999), std::out_of_range);
}

}  // namespace
}  // namespace ostro::dc
