// The release direction of OccupancyDelta and Occupancy::deactivate_if_idle:
// staged releases validate against the overlay, give the same result in one
// batch as in one-op batches, never touch active flags, leave no residue
// near zero, and a fill-then-release roundtrip leaves the occupancy
// (including its FeasibilityIndex) bit-identical to a fresh one.
#include <gtest/gtest.h>

#include <stdexcept>

#include "datacenter/occupancy.h"
#include "datacenter/state_delta.h"
#include "helpers.h"
#include "net/reservation.h"
#include "topology/app_topology.h"
#include "util/rng.h"

namespace ostro::dc {
namespace {

using ostro::testing::add_host_load;
using ostro::testing::release_link;
using ostro::testing::remove_host_load;
using ostro::testing::reserve_link;
using ostro::testing::small_dc;

TEST(ReleasePathTest, ReleaseStagingLeavesBaseUntouched) {
  const auto datacenter = small_dc(2, 2);
  Occupancy occupancy(datacenter);
  add_host_load(occupancy, 0, {4.0, 4.0, 0.0});
  reserve_link(occupancy, datacenter.host_link(0), 300.0);
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
  add_host_load(occupancy, 0, {2.0, 2.0, 0.0});
  reserve_link(occupancy, datacenter.host_link(0), 100.0);

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
  // per round on `staged` and as one-op batches on `direct`.  Every op that
  // stages cleanly is mirrored (validation states coincide, so the one-op
  // batch cannot throw when the staged op succeeded); the results must
  // then agree exactly (operator== covers the index too).
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
          add_host_load(direct, h, load);
        } catch (const std::invalid_argument&) {
        }
        try {
          delta.reserve_link(link, 50.0);
          reserve_link(direct, link, 50.0);
        } catch (const std::invalid_argument&) {
        }
      } else {
        try {
          delta.remove_host_load(h, load);
          remove_host_load(direct, h, load);
        } catch (const std::invalid_argument&) {
        }
        try {
          delta.release_link(link, 50.0);
          release_link(direct, link, 50.0);
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
  add_host_load(occupancy, 0, {2.0, 2.0, 0.0});

  OccupancyDelta delta(occupancy);
  delta.remove_host_load(0, {2.0, 2.0, 0.0});
  occupancy.apply_delta(delta);

  // Activation is sticky through the release itself; deactivation is a
  // separate, explicit step.
  EXPECT_TRUE(occupancy.is_active(0));
  EXPECT_DOUBLE_EQ(occupancy.used(0).vcpus, 0.0);
  EXPECT_TRUE(occupancy.deactivate_if_idle(0));
  EXPECT_FALSE(occupancy.is_active(0));
}

TEST(ReleasePathTest, DeactivateIfIdleRequiresIdleAndActive) {
  const auto datacenter = small_dc(1, 2);
  Occupancy occupancy(datacenter);

  EXPECT_FALSE(occupancy.deactivate_if_idle(0));  // already idle
  add_host_load(occupancy, 0, {1.0, 1.0, 0.0});
  EXPECT_FALSE(occupancy.deactivate_if_idle(0));  // still loaded
  remove_host_load(occupancy, 0, {1.0, 1.0, 0.0});
  const std::uint64_t version = occupancy.version();
  EXPECT_TRUE(occupancy.deactivate_if_idle(0));
  EXPECT_GT(occupancy.version(), version);
  EXPECT_FALSE(occupancy.deactivate_if_idle(0));  // second call is a no-op
  EXPECT_EQ(occupancy.active_host_count(), 0u);
}

TEST(ReleasePathTest, StaleBaseRejectsReleaseDelta) {
  const auto datacenter = small_dc(1, 2);
  Occupancy occupancy(datacenter);
  add_host_load(occupancy, 0, {4.0, 4.0, 0.0});

  // Staleness is tracked per touched entry: a concurrent change to a host
  // the delta never staged against does not invalidate it...
  OccupancyDelta untouched(occupancy);
  untouched.remove_host_load(0, {2.0, 2.0, 0.0});
  add_host_load(occupancy, 1, {1.0, 1.0, 0.0});
  occupancy.apply_delta(untouched);
  EXPECT_DOUBLE_EQ(occupancy.used(0).vcpus, 2.0);

  // ...but a change to the staged host does: the snapshot taken at first
  // touch no longer matches, and the reject leaves the base untouched.
  OccupancyDelta delta(occupancy);
  delta.remove_host_load(0, {1.0, 1.0, 0.0});
  add_host_load(occupancy, 0, {1.0, 1.0, 0.0});  // staged host moved on
  const Occupancy before = occupancy;
  EXPECT_THROW(occupancy.apply_delta(delta), std::logic_error);
  EXPECT_TRUE(occupancy == before);
}

TEST(ReleasePathTest, FloatingPointResidueClampsToZero) {
  const auto datacenter = small_dc(1, 2);
  Occupancy occupancy(datacenter);
  // 0.1 + 0.2 != 0.3 in binary; releasing the parts of a sum must not throw
  // for the eps-sized residue, and the residue itself clamps to exactly 0.
  add_host_load(occupancy, 0, {0.3, 0.3, 0.0});
  OccupancyDelta delta(occupancy);
  delta.remove_host_load(0, {0.1, 0.1, 0.0});
  delta.remove_host_load(0, {0.2, 0.2, 0.0});
  occupancy.apply_delta(delta);
  EXPECT_EQ(occupancy.used(0).vcpus, 0.0);
  EXPECT_EQ(occupancy.used(0).mem_gb, 0.0);
  EXPECT_TRUE(occupancy.feasibility().selfcheck(occupancy));
}

// 0.1 + 0.2 - 0.1 - 0.2 is 2.8e-17 in binary, not 0.  Releasing both
// stacks must still leave the host at exactly zero load, so it goes idle
// and the occupancy equals a fresh one.
TEST(ReleasePathTest, FractionalHostLoadsReleaseToIdle) {
  const auto datacenter = small_dc(1, 2);
  Occupancy occupancy(datacenter);
  const auto one_node = [](double size) {
    topo::TopologyBuilder builder;
    builder.add_vm("vm", {size, size, 0.0});
    return builder.build();
  };
  const topo::AppTopology small = one_node(0.1);
  const topo::AppTopology large = one_node(0.2);
  const net::Assignment on_host0{0};
  net::commit_placement(occupancy, small, on_host0);
  net::commit_placement(occupancy, large, on_host0);
  net::release_placement(occupancy, small, on_host0);
  net::release_placement(occupancy, large, on_host0);
  EXPECT_TRUE(occupancy.used(0).is_zero());
  EXPECT_FALSE(occupancy.is_active(0));
  EXPECT_TRUE(occupancy == Occupancy(datacenter));
}

// The same residue on every link of a pipe's path.
TEST(ReleasePathTest, FractionalPipeReleasesToZero) {
  const auto datacenter = small_dc(2, 1);  // one host per rack
  Occupancy occupancy(datacenter);
  const auto pair = [](double mbps) {
    topo::TopologyBuilder builder;
    builder.add_vm("a", {1.0, 1.0, 0.0});
    builder.add_vm("b", {1.0, 1.0, 0.0});
    builder.connect("a", "b", mbps);
    return builder.build();
  };
  const topo::AppTopology thin = pair(0.1);
  const topo::AppTopology wide = pair(0.2);
  const net::Assignment across_racks{0, 1};
  net::commit_placement(occupancy, thin, across_racks);
  net::commit_placement(occupancy, wide, across_racks);
  net::release_placement(occupancy, thin, across_racks);
  net::release_placement(occupancy, wide, across_racks);
  for (const LinkId link : datacenter.path_between(0, 1)) {
    EXPECT_EQ(occupancy.link_used_mbps(link), 0.0) << link;
  }
  EXPECT_TRUE(occupancy == Occupancy(datacenter));
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
      release_link(occupancy, datacenter.host_link(h.host), h.mbps);
      remove_host_load(occupancy, h.host, h.load);
      occupancy.deactivate_if_idle(h.host);
    } else {
      const HostId h = static_cast<HostId>(
          rng.uniform_int(0, static_cast<int>(datacenter.host_count()) - 1));
      const double cpu = static_cast<double>(rng.uniform_int(1, 2));
      const Held entry{h, {cpu, cpu, 0.0}, 25.0};
      try {
        add_host_load(occupancy, h, entry.load);
      } catch (const std::invalid_argument&) {
        continue;
      }
      reserve_link(occupancy, datacenter.host_link(h), entry.mbps);
      held.push_back(entry);
    }
    if (step % 50 == 0) {
      ASSERT_TRUE(occupancy.feasibility().selfcheck(occupancy));
    }
  }
  for (const Held& h : held) {
    release_link(occupancy, datacenter.host_link(h.host), h.mbps);
    remove_host_load(occupancy, h.host, h.load);
    occupancy.deactivate_if_idle(h.host);
  }
  EXPECT_TRUE(occupancy == Occupancy(datacenter));
}

}  // namespace
}  // namespace ostro::dc
