// FeasibilityIndex invariants: every aggregate must equal a from-scratch
// rebuild after any sequence of Occupancy mutations (the incremental O(depth)
// maintenance is exact, not an upper bound), and the argmax-shrink rescan
// path must find the runner-up host.  The aggregates themselves are checked
// against an independent brute-force computation over Occupancy::available.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "datacenter/datacenter.h"
#include "datacenter/feasibility_index.h"
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
using ostro::testing::two_site_dc;

/// Independent reference: aggregates computed directly from Occupancy's
/// public queries, without going through FeasibilityIndex at all.
FeasibilityIndex::Aggregate brute_force(const Occupancy& occupancy,
                                        const std::vector<HostId>& hosts) {
  const DataCenter& dc = occupancy.datacenter();
  FeasibilityIndex::Aggregate agg;
  agg.max_free = {std::numeric_limits<double>::lowest(),
                  std::numeric_limits<double>::lowest(),
                  std::numeric_limits<double>::lowest()};
  agg.max_free_uplink_mbps = std::numeric_limits<double>::lowest();
  agg.host_count = static_cast<std::uint32_t>(hosts.size());
  for (const HostId h : hosts) {
    const topo::Resources free = occupancy.available(h);
    agg.max_free.vcpus = std::max(agg.max_free.vcpus, free.vcpus);
    agg.max_free.mem_gb = std::max(agg.max_free.mem_gb, free.mem_gb);
    agg.max_free.disk_gb = std::max(agg.max_free.disk_gb, free.disk_gb);
    agg.max_free_uplink_mbps =
        std::max(agg.max_free_uplink_mbps,
                 occupancy.link_available_mbps(dc.host_link(h)));
    if (free.vcpus > 0.0 && free.mem_gb > 0.0 && free.disk_gb > 0.0) {
      ++agg.feasible_hosts;
    }
    if (free.vcpus > 0.0 && free.mem_gb > 0.0) ++agg.compute_feasible_hosts;
  }
  return agg;
}

/// Every rack/pod/site aggregate plus the root against brute force.
void expect_aggregates_exact(const Occupancy& occupancy) {
  const DataCenter& dc = occupancy.datacenter();
  const FeasibilityIndex& index = occupancy.feasibility();
  std::vector<HostId> all_hosts;
  for (const Rack& rack : dc.racks()) {
    EXPECT_EQ(index.rack(rack.id), brute_force(occupancy, rack.hosts))
        << "rack " << rack.id;
    all_hosts.insert(all_hosts.end(), rack.hosts.begin(), rack.hosts.end());
  }
  for (const Pod& pod : dc.pods()) {
    std::vector<HostId> hosts;
    for (const std::uint32_t r : pod.racks) {
      const auto& rack_hosts = dc.racks()[r].hosts;
      hosts.insert(hosts.end(), rack_hosts.begin(), rack_hosts.end());
    }
    EXPECT_EQ(index.pod(pod.id), brute_force(occupancy, hosts))
        << "pod " << pod.id;
  }
  for (const Site& site : dc.sites()) {
    std::vector<HostId> hosts;
    for (const std::uint32_t p : site.pods) {
      for (const std::uint32_t r : dc.pods()[p].racks) {
        const auto& rack_hosts = dc.racks()[r].hosts;
        hosts.insert(hosts.end(), rack_hosts.begin(), rack_hosts.end());
      }
    }
    EXPECT_EQ(index.site(site.id), brute_force(occupancy, hosts))
        << "site " << site.id;
  }
  EXPECT_EQ(index.root(), brute_force(occupancy, all_hosts));
  EXPECT_TRUE(index.selfcheck(occupancy));
}

TEST(FeasibilityIndexTest, FreshOccupancyAggregatesMatchCapacities) {
  const auto dc = small_dc(2, 3);
  const Occupancy occupancy(dc);
  const FeasibilityIndex& index = occupancy.feasibility();
  // helpers.h hosts: 8 cores / 16 GB / 500 GB, 1000 Mbps uplink.
  EXPECT_EQ(index.root().max_free.vcpus, 8.0);
  EXPECT_EQ(index.root().max_free.mem_gb, 16.0);
  EXPECT_EQ(index.root().max_free.disk_gb, 500.0);
  EXPECT_EQ(index.root().max_free_uplink_mbps, 1000.0);
  EXPECT_EQ(index.root().feasible_hosts, 6u);
  EXPECT_EQ(index.root().host_count, 6u);
  expect_aggregates_exact(occupancy);
}

TEST(FeasibilityIndexTest, MaxMovesToRunnerUpWhenArgmaxShrinks) {
  const auto dc = small_dc(1, 3);  // hosts 0..2 in one rack
  Occupancy occupancy(dc);
  // Make host 1 the clear capacity argmax by loading the others first.
  add_host_load(occupancy, 0, {4.0, 8.0, 100.0});
  add_host_load(occupancy, 2, {2.0, 4.0, 50.0});
  EXPECT_EQ(occupancy.feasibility().rack(0).max_free.vcpus, 8.0);
  // Now shrink the argmax below the runner-up: the rack must rescan and
  // find host 2's 6 free cores, not keep a stale 8.
  add_host_load(occupancy, 1, {5.0, 2.0, 10.0});
  EXPECT_EQ(occupancy.feasibility().rack(0).max_free.vcpus, 6.0);
  EXPECT_EQ(occupancy.feasibility().rack(0).max_free.mem_gb, 14.0);
  expect_aggregates_exact(occupancy);
  // Releasing restores the old maximum exactly.
  remove_host_load(occupancy, 1, {5.0, 2.0, 10.0});
  EXPECT_EQ(occupancy.feasibility().rack(0).max_free.vcpus, 8.0);
  expect_aggregates_exact(occupancy);
}

TEST(FeasibilityIndexTest, FeasibleHostCountTracksExhaustedDimensions) {
  const auto dc = small_dc(1, 2);
  Occupancy occupancy(dc);
  EXPECT_EQ(occupancy.feasibility().rack(0).feasible_hosts, 2u);
  // Exhaust one dimension (all 8 cores) on host 0: no longer feasible even
  // though memory and disk remain.
  add_host_load(occupancy, 0, {8.0, 1.0, 1.0});
  EXPECT_EQ(occupancy.feasibility().rack(0).feasible_hosts, 1u);
  add_host_load(occupancy, 1, {0.0, 16.0, 0.0});
  EXPECT_EQ(occupancy.feasibility().rack(0).feasible_hosts, 0u);
  remove_host_load(occupancy, 0, {8.0, 1.0, 1.0});
  EXPECT_EQ(occupancy.feasibility().rack(0).feasible_hosts, 1u);
  expect_aggregates_exact(occupancy);
}

TEST(FeasibilityIndexTest, UplinkAggregateTracksLinkReservations) {
  const auto dc = small_dc(2, 2);
  Occupancy occupancy(dc);
  for (HostId h = 0; h < dc.host_count(); ++h) {
    reserve_link(occupancy, dc.host_link(h), 100.0 * (h + 1));
  }
  EXPECT_EQ(occupancy.feasibility().rack(0).max_free_uplink_mbps, 900.0);
  EXPECT_EQ(occupancy.feasibility().rack(1).max_free_uplink_mbps, 700.0);
  EXPECT_EQ(occupancy.feasibility().root().max_free_uplink_mbps, 900.0);
  // Rack-level (non-uplink) reservations must not disturb host aggregates.
  reserve_link(occupancy, dc.rack_link(0), 2000.0);
  EXPECT_EQ(occupancy.feasibility().rack(0).max_free_uplink_mbps, 900.0);
  release_link(occupancy, dc.host_link(0), 100.0);
  EXPECT_EQ(occupancy.feasibility().rack(0).max_free_uplink_mbps, 1000.0);
  expect_aggregates_exact(occupancy);
}

TEST(FeasibilityIndexTest, RandomizedOpSoakStaysExact) {
  util::Rng rng(20260806);
  for (int trial = 0; trial < 8; ++trial) {
    const auto dc = trial % 2 == 0 ? small_dc(3, 3) : two_site_dc(2, 3);
    Occupancy occupancy(dc);
    // Track per-host loads so removals never exceed what was added.
    std::vector<topo::Resources> added(dc.host_count(), {0.0, 0.0, 0.0});
    std::vector<double> reserved(dc.host_count(), 0.0);
    for (int op = 0; op < 120; ++op) {
      const auto h = static_cast<HostId>(
          rng.uniform_int(0, static_cast<int>(dc.host_count()) - 1));
      switch (rng.uniform_int(0, 3)) {
        case 0: {
          const topo::Resources load = {
              static_cast<double>(rng.uniform_int(0, 2)),
              static_cast<double>(rng.uniform_int(0, 4)),
              static_cast<double>(rng.uniform_int(0, 50))};
          if (load.fits_within(occupancy.available(h))) {
            add_host_load(occupancy, h, load);
            added[h] = added[h] + load;
          }
          break;
        }
        case 1:
          if (added[h].vcpus > 0.0 || added[h].mem_gb > 0.0 ||
              added[h].disk_gb > 0.0) {
            remove_host_load(occupancy, h, added[h]);
            added[h] = {0.0, 0.0, 0.0};
          }
          break;
        case 2: {
          const double mbps = static_cast<double>(rng.uniform_int(1, 4)) * 50.0;
          if (occupancy.link_available_mbps(dc.host_link(h)) >= mbps) {
            reserve_link(occupancy, dc.host_link(h), mbps);
            reserved[h] += mbps;
          }
          break;
        }
        default:
          if (reserved[h] > 0.0) {
            release_link(occupancy, dc.host_link(h), reserved[h]);
            reserved[h] = 0.0;
          }
          break;
      }
      ASSERT_TRUE(occupancy.feasibility().selfcheck(occupancy))
          << "trial " << trial << " op " << op;
    }
    expect_aggregates_exact(occupancy);
  }
}

TEST(FeasibilityIndexTest, ApplyDeltaMatchesDirectMutation) {
  util::Rng rng(777);
  for (int trial = 0; trial < 10; ++trial) {
    const auto dc = two_site_dc(2, 2);
    Occupancy staged(dc);
    Occupancy direct(dc);
    OccupancyDelta delta(staged);
    for (int op = 0; op < 20; ++op) {
      const auto h = static_cast<HostId>(
          rng.uniform_int(0, static_cast<int>(dc.host_count()) - 1));
      if (rng.chance(0.5)) {
        const topo::Resources load = {1.0, 2.0, 10.0};
        if (load.fits_within(delta.available(h))) {
          delta.add_host_load(h, load);
          add_host_load(direct, h, load);
        }
      } else {
        const LinkId link = dc.host_link(h);
        if (delta.link_available_mbps(link) >= 75.0) {
          delta.reserve_link(link, 75.0);
          reserve_link(direct, link, 75.0);
        }
      }
    }
    staged.apply_delta(delta);
    // Occupancy::operator== includes the index, so this checks both the
    // resource state and the aggregates in one shot.
    EXPECT_TRUE(staged == direct) << "trial " << trial;
    EXPECT_TRUE(staged.feasibility().selfcheck(staged))
        << "trial " << trial;
    expect_aggregates_exact(staged);
  }
}

}  // namespace
}  // namespace ostro::dc
