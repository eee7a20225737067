// dc::ShardLayout: the partitioning invariant (whole sites, or pods of one
// site), deterministic policy, id-mapping round trips, link-ownership
// totality, the single-shard identity mapping, and the overlay stitch.
#include "datacenter/shard.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <vector>

#include "datacenter/occupancy.h"
#include "helpers.h"
#include "sim/clusters.h"

namespace ostro::dc {
namespace {

using ostro::testing::add_host_load;
using ostro::testing::reserve_link;
using ostro::testing::small_dc;
using ostro::testing::two_site_dc;

/// True when the site's pods are spread over more than one shard.
bool split_across_shards(const ShardLayout& layout, const Site& site) {
  for (const std::uint32_t pod : site.pods) {
    if (layout.shard_of_pod(pod) != layout.shard_of_pod(site.pods.front())) {
      return true;
    }
  }
  return false;
}

// Every host maps into exactly one shard, round trips through the local id
// mapping, and lands in the shard of its pod.
void check_partition_invariants(const DataCenter& global,
                                std::uint32_t shard_count) {
  const ShardLayout layout(global, shard_count);
  ASSERT_EQ(layout.shard_count(), shard_count);

  std::size_t total_hosts = 0;
  for (std::uint32_t k = 0; k < shard_count; ++k) {
    const DataCenter& shard = layout.shard_datacenter(k);
    ASSERT_GT(shard.host_count(), 0u) << "empty shard " << k;
    total_hosts += shard.host_count();
    for (HostId local = 0; local < shard.host_count(); ++local) {
      const HostId g = layout.to_global_host(k, local);
      EXPECT_EQ(layout.shard_of_host(g), k);
      EXPECT_EQ(layout.to_local_host(g), local);
      // The rebuilt host carries the global host's physical identity.
      EXPECT_EQ(shard.host(local).name, global.host(g).name);
      EXPECT_EQ(shard.host(local).capacity.vcpus,
                global.host(g).capacity.vcpus);
      EXPECT_EQ(shard.host(local).uplink_mbps, global.host(g).uplink_mbps);
    }
  }
  EXPECT_EQ(total_hosts, global.host_count());

  // Pods never split, and each shard is whole-sites or pods-of-one-site.
  for (std::uint32_t k = 0; k < shard_count; ++k) {
    std::set<std::uint32_t> sites;
    bool any_split = false;
    for (const Pod& pod : global.pods()) {
      if (layout.shard_of_pod(pod.id) != k) continue;
      sites.insert(pod.datacenter);
      if (split_across_shards(layout, global.sites()[pod.datacenter])) {
        any_split = true;
      }
    }
    if (any_split) {
      // Pods of a split site: the shard must hold pods of that ONE site.
      EXPECT_EQ(sites.size(), 1u) << "shard " << k
                                  << " mixes a split site with others";
    }
  }

  // Link ownership is total: every global link has an owner shard whose
  // local copy round-trips and carries the same physical capacity.
  for (LinkId link = 0; link < global.link_count(); ++link) {
    const std::uint32_t owner = layout.link_owner(link);
    ASSERT_LT(owner, shard_count);
    const LinkId local = layout.to_local_link(link);
    EXPECT_EQ(layout.to_global_link(owner, local), link);
    EXPECT_EQ(layout.shard_datacenter(owner).link_capacity(local),
              global.link_capacity(link));
  }
  // And every local link of every shard maps to a global link.
  for (std::uint32_t k = 0; k < shard_count; ++k) {
    const DataCenter& shard = layout.shard_datacenter(k);
    for (LinkId local = 0; local < shard.link_count(); ++local) {
      const LinkId link = layout.to_global_link(k, local);
      ASSERT_LT(link, global.link_count());
      EXPECT_EQ(shard.link_capacity(local), global.link_capacity(link));
    }
  }
}

TEST(ShardLayoutTest, PartitionInvariantsAcrossShardCounts) {
  const DataCenter wan = sim::make_wan(3, 2, 2, 2);  // 3 sites x 2 pods
  for (const std::uint32_t n : {1u, 2u, 3u, 4u, 6u}) {
    SCOPED_TRACE(n);
    check_partition_invariants(wan, n);
  }
}

TEST(ShardLayoutTest, WholeSiteBinningSplitsNoSite) {
  const DataCenter wan = sim::make_wan(4, 2, 1, 2);
  const ShardLayout layout(wan, 2);  // 2 shards over 4 sites: whole sites
  for (const Site& site : wan.sites()) {
    EXPECT_FALSE(split_across_shards(layout, site));
    const std::uint32_t shard = layout.shard_of_pod(site.pods.front());
    EXPECT_EQ(layout.link_owner(wan.site_link(site.id)), shard);
  }
}

// Each shard of a split site holds a copy of the site uplink that maps to
// the same global link; the lowest of them owns it.
TEST(ShardLayoutTest, SplitSiteUplinkIsOwnedByItsLowestShard) {
  const DataCenter wan = sim::make_wan(2, 2, 1, 2);
  const ShardLayout layout(wan, 4);  // 4 shards over 2 sites: both split
  for (const Site& site : wan.sites()) {
    ASSERT_TRUE(split_across_shards(layout, site));
    const LinkId uplink = wan.site_link(site.id);
    std::set<std::uint32_t> holders;
    for (const std::uint32_t pod : site.pods) {
      holders.insert(layout.shard_of_pod(pod));
    }
    ASSERT_EQ(holders.size(), 2u);
    for (const std::uint32_t k : holders) {
      const DataCenter& shard = layout.shard_datacenter(k);
      std::size_t copies = 0;
      for (LinkId local = 0; local < shard.link_count(); ++local) {
        if (layout.to_global_link(k, local) == uplink) ++copies;
      }
      EXPECT_EQ(copies, 1u) << "shard " << k;
    }
    const std::uint32_t owner = *holders.begin();
    EXPECT_EQ(layout.link_owner(uplink), owner);
    EXPECT_EQ(layout.to_global_link(owner, layout.to_local_link(uplink)),
              uplink);
  }
}

TEST(ShardLayoutTest, SingleShardIsIdentityMapping) {
  const DataCenter global = two_site_dc(2, 3);
  const ShardLayout layout(global, 1);
  const DataCenter& shard = layout.shard_datacenter(0);
  ASSERT_EQ(shard.host_count(), global.host_count());
  ASSERT_EQ(shard.link_count(), global.link_count());
  for (HostId h = 0; h < global.host_count(); ++h) {
    EXPECT_EQ(layout.to_local_host(h), h);
    EXPECT_EQ(layout.to_global_host(0, h), h);
    EXPECT_EQ(shard.host(h).name, global.host(h).name);
  }
  for (LinkId l = 0; l < global.link_count(); ++l) {
    EXPECT_EQ(layout.link_owner(l), 0u);
    EXPECT_EQ(layout.to_local_link(l), l);
    EXPECT_EQ(shard.link_capacity(l), global.link_capacity(l));
  }
  // Same paths, link for link: placements plan identically.
  for (HostId a = 0; a < global.host_count(); ++a) {
    for (HostId b = 0; b < global.host_count(); ++b) {
      const PathLinks gp = global.path_between(a, b);
      const PathLinks sp = shard.path_between(a, b);
      ASSERT_EQ(gp.size(), sp.size());
      for (std::size_t i = 0; i < gp.size(); ++i) {
        EXPECT_EQ(gp[i], sp[i]);
      }
    }
  }
}

TEST(ShardLayoutTest, ConstructorRejectsBadShardCounts) {
  const DataCenter global = small_dc(2, 2);  // one site, one pod
  EXPECT_THROW(ShardLayout(global, 0), std::invalid_argument);
  EXPECT_THROW(ShardLayout(global, 2), std::invalid_argument);  // > pods
}

TEST(ShardLayoutTest, OverlayStitchesLoadsLinksAndActiveFlags) {
  const DataCenter global = two_site_dc(1, 2);  // 2 sites x 1 pod x 2 hosts
  const ShardLayout layout(global, 2);
  Occupancy shard0(layout.shard_datacenter(0));
  Occupancy shard1(layout.shard_datacenter(1));
  add_host_load(shard0, 0, {2.0, 4.0, 0.0});
  reserve_link(shard0, layout.shard_datacenter(0).host_link(0), 150.0);
  add_host_load(shard1, 1, {1.0, 1.0, 10.0});

  Occupancy stitched(global);
  layout.overlay(stitched, 0, shard0);
  layout.overlay(stitched, 1, shard1);

  const HostId g0 = layout.to_global_host(0, 0);
  const HostId g1 = layout.to_global_host(1, 1);
  EXPECT_EQ(stitched.used(g0).vcpus, 2.0);
  EXPECT_EQ(stitched.used(g0).mem_gb, 4.0);
  EXPECT_EQ(stitched.used(g1).disk_gb, 10.0);
  EXPECT_TRUE(stitched.is_active(g0));
  EXPECT_TRUE(stitched.is_active(g1));
  EXPECT_EQ(stitched.active_host_count(), 2u);
  EXPECT_EQ(stitched.link_used_mbps(global.host_link(g0)), 150.0);

  // Overlaying empty shard occupancies touches nothing.
  Occupancy pristine(global);
  layout.overlay(pristine, 0, Occupancy(layout.shard_datacenter(0)));
  layout.overlay(pristine, 1, Occupancy(layout.shard_datacenter(1)));
  EXPECT_EQ(pristine.active_host_count(), 0u);
  for (LinkId l = 0; l < global.link_count(); ++l) {
    EXPECT_EQ(pristine.link_used_mbps(l), 0.0);
  }
}

}  // namespace
}  // namespace ostro::dc
