// net::release_placement as the exact inverse of commit_placement: a
// place-then-release roundtrip leaves the occupancy bit-identical to fresh
// (FeasibilityIndex included), double releases throw
// without touching anything, and a randomized place/release soak keeps the
// incremental un-index equal to a fresh rebuild.
#include "net/reservation.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "datacenter/occupancy.h"
#include "helpers.h"
#include "util/rng.h"

namespace ostro::net {
namespace {

using ostro::testing::small_dc;
using ostro::testing::tiny_app;

TEST(ReleasePlacementTest, RoundtripIsBitIdenticalToFresh) {
  const auto datacenter = small_dc(2, 2);
  dc::Occupancy occupancy(datacenter);
  const dc::Occupancy fresh = occupancy;

  const Assignment assignment{0, 1, 2};  // web, db, volume on three hosts
  commit_placement(occupancy, tiny_app(), assignment);
  EXPECT_FALSE(occupancy == fresh);
  EXPECT_TRUE(occupancy.is_active(0));

  release_placement(occupancy, tiny_app(), assignment);
  EXPECT_TRUE(occupancy == fresh);
  EXPECT_EQ(occupancy.active_host_count(), 0u);
  EXPECT_TRUE(occupancy.feasibility().selfcheck(occupancy));
}

TEST(ReleasePlacementTest, DoubleReleaseThrowsAndTouchesNothing) {
  const auto datacenter = small_dc(2, 2);
  dc::Occupancy occupancy(datacenter);
  const Assignment assignment{0, 1, 2};
  commit_placement(occupancy, tiny_app(), assignment);
  release_placement(occupancy, tiny_app(), assignment);

  const dc::Occupancy before = occupancy;
  EXPECT_THROW(release_placement(occupancy, tiny_app(), assignment),
               std::invalid_argument);
  EXPECT_TRUE(occupancy == before);
}

TEST(ReleasePlacementTest, SharedHostStaysActiveUntilLastTenantLeaves) {
  const auto datacenter = small_dc(1, 2);
  dc::Occupancy occupancy(datacenter);
  // Two stacks overlapping on host 0: releasing one must not deactivate
  // the host or disturb the other stack's reservations.
  const Assignment a{0, 0, 1};
  const Assignment b{0, 1, 1};
  commit_placement(occupancy, tiny_app(), a);
  const dc::Occupancy only_a = occupancy;
  commit_placement(occupancy, tiny_app(), b);

  release_placement(occupancy, tiny_app(), b);
  EXPECT_TRUE(occupancy == only_a);
  EXPECT_TRUE(occupancy.is_active(0));

  release_placement(occupancy, tiny_app(), a);
  EXPECT_TRUE(occupancy == dc::Occupancy(datacenter));
}

TEST(ReleasePlacementTest, DeactivateOptOutLeavesHostsActive) {
  const auto datacenter = small_dc(1, 2);
  dc::Occupancy occupancy(datacenter);
  const Assignment assignment{0, 1, 1};
  commit_placement(occupancy, tiny_app(), assignment);
  release_placement(occupancy, tiny_app(), assignment,
                    /*deactivate_emptied=*/false);
  // Hosts modeling untracked background tenants keep their active flag;
  // everything else is back to fresh.
  EXPECT_TRUE(occupancy.is_active(0));
  EXPECT_TRUE(occupancy.is_active(1));
  EXPECT_DOUBLE_EQ(occupancy.used(0).vcpus, 0.0);
  EXPECT_DOUBLE_EQ(occupancy.total_reserved_mbps(), 0.0);
}

TEST(ReleasePlacementTest, RandomizedPlacementSoakDrainsToFresh) {
  const auto datacenter = small_dc(2, 4);
  dc::Occupancy occupancy(datacenter);
  util::Rng rng(23);

  struct Live {
    topo::AppTopology topology;
    Assignment assignment;
  };
  std::vector<Live> live;
  for (int step = 0; step < 200; ++step) {
    if (!live.empty() && rng.chance(0.45)) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(live.size()) - 1));
      release_placement(occupancy, live[pick].topology,
                        live[pick].assignment);
      live.erase(live.begin() + static_cast<long>(pick));
    } else {
      // Random host pair for the tiny web/db/volume app; skip infeasible
      // draws — the soak only needs legal interleavings.
      Assignment assignment(3);
      for (auto& h : assignment) {
        h = static_cast<dc::HostId>(rng.uniform_int(
            0, static_cast<int>(datacenter.host_count()) - 1));
      }
      try {
        commit_placement(occupancy, tiny_app(), assignment);
      } catch (const std::invalid_argument&) {
        continue;
      }
      live.push_back({tiny_app(), assignment});
    }
    if (step % 40 == 0) {
      ASSERT_TRUE(occupancy.feasibility().selfcheck(occupancy));
    }
  }
  while (!live.empty()) {
    release_placement(occupancy, live.back().topology,
                      live.back().assignment);
    live.pop_back();
  }
  EXPECT_TRUE(occupancy == dc::Occupancy(datacenter));
}

}  // namespace
}  // namespace ostro::net
