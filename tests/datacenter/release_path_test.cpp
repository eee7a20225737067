// The release direction of OccupancyDelta and Occupancy::deactivate_if_idle:
// staged releases validate against the overlay, replay with the exact
// arithmetic of the direct mutators, never touch active flags, and a
// fill-then-release roundtrip leaves the occupancy (including its
// FeasibilityIndex) bit-identical to a fresh one.
#include <gtest/gtest.h>

#include <stdexcept>

#include "datacenter/occupancy.h"
#include "datacenter/state_delta.h"
#include "helpers.h"
#include "util/rng.h"

namespace ostro::dc {
namespace {

using ostro::testing::small_dc;

TEST(ReleasePathTest, ReleaseStagingLeavesBaseUntouched) {
  const auto datacenter = small_dc(2, 2);
  Occupancy occupancy(datacenter);
  occupancy.add_host_load(0, {4.0, 4.0, 0.0});
  occupancy.reserve_link(datacenter.host_link(0), 300.0);
  const Occupancy before = occupancy;

  OccupancyDelta delta(occupancy);
  delta.remove_host_load(0, {2.0, 2.0, 0.0});
  delta.release_link(datacenter.host_link(0), 100.0);

  EXPECT_TRUE(occupancy == before);
  const auto avail = delta.available(0);
  EXPECT_DOUBLE_EQ(avail.vcpus, 6.0);
  EXPECT_DOUBLE_EQ(delta.link_available_mbps(datacenter.host_link(0)), 800.0);
}

TEST(ReleasePathTest, OverReleaseThrowsAndStagesNothing) {
  const auto datacenter = small_dc(1, 2);
  Occupancy occupancy(datacenter);
  occupancy.add_host_load(0, {2.0, 2.0, 0.0});
  occupancy.reserve_link(datacenter.host_link(0), 100.0);

  OccupancyDelta delta(occupancy);
  EXPECT_THROW(delta.remove_host_load(0, {3.0, 1.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(delta.release_link(datacenter.host_link(0), 200.0),
               std::invalid_argument);
  EXPECT_TRUE(delta.empty());

  // Validation is against the *overlay*: a staged release frees room for a
  // later release of the remainder, and a staged add covers releases the
  // base alone could not.
  delta.remove_host_load(0, {1.0, 1.0, 0.0});
  delta.remove_host_load(0, {1.0, 1.0, 0.0});
  EXPECT_THROW(delta.remove_host_load(0, {1.0, 1.0, 0.0}),
               std::invalid_argument);
  delta.add_host_load(0, {4.0, 4.0, 0.0});
  delta.remove_host_load(0, {4.0, 4.0, 0.0});
  EXPECT_EQ(delta.host_op_count(), 4u);
}

TEST(ReleasePathTest, MixedAddReleaseReplayIsBitIdentical) {
  const auto datacenter = small_dc(2, 4);
  Occupancy staged(datacenter);
  Occupancy direct(datacenter);
  util::Rng rng(7);

  // Random interleaving of fills and releases, applied via one delta batch
  // on `staged` and op by op on `direct`.  Every op that stages cleanly is
  // mirrored directly (validation states coincide, so the direct op cannot
  // throw when the staged one succeeded); apply_delta's replay must then
  // reproduce the direct arithmetic exactly (operator== covers index and
  // labels too).
  for (int round = 0; round < 20; ++round) {
    OccupancyDelta delta(staged);
    for (int op = 0; op < 6; ++op) {
      const HostId h = static_cast<HostId>(
          rng.uniform_int(0, static_cast<int>(datacenter.host_count()) - 1));
      const double cpu = static_cast<double>(rng.uniform_int(1, 2));
      const topo::Resources load{cpu, cpu, 0.0};
      const LinkId link = datacenter.host_link(h);
      if (rng.chance(0.5)) {
        try {
          delta.add_host_load(h, load);
          direct.add_host_load(h, load);
        } catch (const std::invalid_argument&) {
        }
        try {
          delta.reserve_link(link, 50.0);
          direct.reserve_link(link, 50.0);
        } catch (const std::invalid_argument&) {
        }
      } else {
        try {
          delta.remove_host_load(h, load);
          direct.remove_host_load(h, load);
        } catch (const std::invalid_argument&) {
        }
        try {
          delta.release_link(link, 50.0);
          direct.release_link(link, 50.0);
        } catch (const std::invalid_argument&) {
        }
      }
    }
    staged.apply_delta(delta);
  }
  EXPECT_TRUE(staged == direct);
  EXPECT_TRUE(staged.feasibility().selfcheck(staged));
}

TEST(ReleasePathTest, ReleasesDoNotDeactivate) {
  const auto datacenter = small_dc(1, 2);
  Occupancy occupancy(datacenter);
  occupancy.add_host_load(0, {2.0, 2.0, 0.0});

  OccupancyDelta delta(occupancy);
  delta.remove_host_load(0, {2.0, 2.0, 0.0});
  occupancy.apply_delta(delta);

  // Activation is sticky through the release itself (mirrors the direct
  // remove_host_load contract); deactivation is a separate, explicit step.
  EXPECT_TRUE(occupancy.is_active(0));
  EXPECT_DOUBLE_EQ(occupancy.used(0).vcpus, 0.0);
  EXPECT_TRUE(occupancy.deactivate_if_idle(0));
  EXPECT_FALSE(occupancy.is_active(0));
}

TEST(ReleasePathTest, DeactivateIfIdleRequiresIdleAndActive) {
  const auto datacenter = small_dc(1, 2);
  Occupancy occupancy(datacenter);

  EXPECT_FALSE(occupancy.deactivate_if_idle(0));  // already idle
  occupancy.add_host_load(0, {1.0, 1.0, 0.0});
  EXPECT_FALSE(occupancy.deactivate_if_idle(0));  // still loaded
  occupancy.remove_host_load(0, {1.0, 1.0, 0.0});
  const std::uint64_t version = occupancy.version();
  EXPECT_TRUE(occupancy.deactivate_if_idle(0));
  EXPECT_GT(occupancy.version(), version);
  EXPECT_FALSE(occupancy.deactivate_if_idle(0));  // second call is a no-op
  EXPECT_EQ(occupancy.active_host_count(), 0u);
}

TEST(ReleasePathTest, StaleBaseRejectsReleaseDelta) {
  const auto datacenter = small_dc(1, 2);
  Occupancy occupancy(datacenter);
  occupancy.add_host_load(0, {4.0, 4.0, 0.0});

  // Staleness is tracked per touched entry: a concurrent change to a host
  // the delta never staged against does not invalidate it...
  OccupancyDelta untouched(occupancy);
  untouched.remove_host_load(0, {2.0, 2.0, 0.0});
  occupancy.add_host_load(1, {1.0, 1.0, 0.0});
  occupancy.apply_delta(untouched);
  EXPECT_DOUBLE_EQ(occupancy.used(0).vcpus, 2.0);

  // ...but a change to the staged host does: the snapshot taken at first
  // touch no longer matches, and the reject leaves the base untouched.
  OccupancyDelta delta(occupancy);
  delta.remove_host_load(0, {1.0, 1.0, 0.0});
  occupancy.add_host_load(0, {1.0, 1.0, 0.0});  // staged host moved on
  const Occupancy before = occupancy;
  EXPECT_THROW(occupancy.apply_delta(delta), std::logic_error);
  EXPECT_TRUE(occupancy == before);
}

TEST(ReleasePathTest, FloatingPointResidueClampsToZero) {
  const auto datacenter = small_dc(1, 2);
  Occupancy occupancy(datacenter);
  // 0.1 + 0.2 != 0.3 in binary; releasing the parts of a sum must not throw
  // for the eps-sized residue, and the residue itself clamps to exactly 0.
  occupancy.add_host_load(0, {0.3, 0.3, 0.0});
  OccupancyDelta delta(occupancy);
  delta.remove_host_load(0, {0.1, 0.1, 0.0});
  delta.remove_host_load(0, {0.2, 0.2, 0.0});
  occupancy.apply_delta(delta);
  EXPECT_EQ(occupancy.used(0).vcpus, 0.0);
  EXPECT_EQ(occupancy.used(0).mem_gb, 0.0);
  EXPECT_TRUE(occupancy.feasibility().selfcheck(occupancy));
}

TEST(ReleasePathTest, RandomizedFillReleaseSoakMatchesFreshRebuild) {
  const auto datacenter = small_dc(2, 4);
  Occupancy occupancy(datacenter);
  util::Rng rng(11);

  // Track exactly what is currently held so every release is legal, then
  // drain everything: the incremental un-index must land bit-identical to a
  // freshly built occupancy, index and labels included.
  struct Held {
    HostId host;
    topo::Resources load;
    double mbps;
  };
  std::vector<Held> held;
  for (int step = 0; step < 400; ++step) {
    const bool release = !held.empty() && rng.chance(0.45);
    if (release) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(held.size()) - 1));
      const Held h = held[pick];
      held.erase(held.begin() + static_cast<long>(pick));
      occupancy.release_link(datacenter.host_link(h.host), h.mbps);
      occupancy.remove_host_load(h.host, h.load);
      occupancy.deactivate_if_idle(h.host);
    } else {
      const HostId h = static_cast<HostId>(
          rng.uniform_int(0, static_cast<int>(datacenter.host_count()) - 1));
      const double cpu = static_cast<double>(rng.uniform_int(1, 2));
      const Held entry{h, {cpu, cpu, 0.0}, 25.0};
      try {
        occupancy.add_host_load(h, entry.load);
      } catch (const std::invalid_argument&) {
        continue;
      }
      occupancy.reserve_link(datacenter.host_link(h), entry.mbps);
      held.push_back(entry);
    }
    if (step % 50 == 0) {
      ASSERT_TRUE(occupancy.feasibility().selfcheck(occupancy));
    }
  }
  for (const Held& h : held) {
    occupancy.release_link(datacenter.host_link(h.host), h.mbps);
    occupancy.remove_host_load(h.host, h.load);
    occupancy.deactivate_if_idle(h.host);
  }
  EXPECT_TRUE(occupancy == Occupancy(datacenter));
}

}  // namespace
}  // namespace ostro::dc
