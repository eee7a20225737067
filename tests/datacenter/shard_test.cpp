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
      if (layout.site_split(pod.datacenter)) any_split = true;
    }
    if (any_split) {
      // Pods of a split site: the shard must hold pods of that ONE site.
      EXPECT_EQ(sites.size(), 1u) << "shard " << k
                                  << " mixes a split site with others";
    }
  }

  // A site is marked split iff its pods are spread over >1 shard.
  for (const Site& site : global.sites()) {
    std::set<std::uint32_t> shards;
    for (const std::uint32_t pod : site.pods) {
      shards.insert(layout.shard_of_pod(pod));
    }
    EXPECT_EQ(layout.site_split(site.id), shards.size() > 1);
  }

  // Link ownership is total: every global link is either owned (with a
  // valid round-tripping local id) or ledger-owned (split-site uplink).
  std::size_t shared_seen = 0;
  for (LinkId link = 0; link < global.link_count(); ++link) {
    const std::uint32_t owner = layout.link_owner(link);
    if (owner == ShardLayout::kLedgerOwned) {
      ++shared_seen;
      continue;
    }
    ASSERT_LT(owner, shard_count);
    const LinkId local = layout.to_local_link(link);
    EXPECT_EQ(layout.to_global_link(owner, local), link);
    // Same physical capacity on both sides of the mapping.
    EXPECT_EQ(layout.shard_datacenter(owner).link_capacity(local),
              global.link_capacity(link));
  }
  EXPECT_EQ(shared_seen, layout.shared_links().size());
  for (const LinkId link : layout.shared_links()) {
    EXPECT_EQ(layout.link_owner(link), ShardLayout::kLedgerOwned);
  }
}

TEST(ShardLayoutTest, PartitionInvariantsAcrossShardCounts) {
  const DataCenter wan = sim::make_wan(3, 2, 2, 2);  // 3 sites x 2 pods
  for (const std::uint32_t n : {1u, 2u, 3u, 4u, 6u}) {
    SCOPED_TRACE(n);
    check_partition_invariants(wan, n);
  }
}

TEST(ShardLayoutTest, WholeSiteBinningLeavesNoSharedLinks) {
  const DataCenter wan = sim::make_wan(4, 2, 1, 2);
  const ShardLayout layout(wan, 2);  // 2 shards over 4 sites: whole sites
  EXPECT_TRUE(layout.shared_links().empty());
  for (const Site& site : wan.sites()) {
    EXPECT_FALSE(layout.site_split(site.id));
  }
}

TEST(ShardLayoutTest, SplitSiteUplinksAreLedgerOwned) {
  const DataCenter wan = sim::make_wan(2, 2, 1, 2);
  const ShardLayout layout(wan, 4);  // 4 shards over 2 sites: both split
  ASSERT_EQ(layout.shared_links().size(), 2u);
  for (const Site& site : wan.sites()) {
    EXPECT_TRUE(layout.site_split(site.id));
    EXPECT_EQ(layout.link_owner(wan.site_link(site.id)),
              ShardLayout::kLedgerOwned);
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
