// Incremental (pinned) placement coverage — the machinery behind online
// adaptation (Section IV-E) — across algorithms, zones and capacity edges.
#include <gtest/gtest.h>

#include "core/scheduler.h"
#include "core/brute_force.h"
#include "core/verify.h"
#include "helpers.h"
#include "sim/clusters.h"
#include "sim/workloads.h"

namespace ostro::core {
namespace {

using ostro::testing::small_dc;

topo::AppTopology chain(int n) {
  topo::TopologyBuilder builder;
  for (int i = 0; i < n; ++i) {
    builder.add_vm("vm" + std::to_string(i), {2.0, 2.0, 0.0});
  }
  for (int i = 0; i + 1 < n; ++i) {
    builder.connect(static_cast<topo::NodeId>(i),
                    static_cast<topo::NodeId>(i + 1), 50.0);
  }
  return builder.build();
}

TEST(IncrementalTest, AllAlgorithmsRespectPins) {
  const auto datacenter = small_dc(2, 3);
  const dc::Occupancy occupancy(datacenter);
  const auto app = chain(4);
  net::Assignment pins(app.node_count(), dc::kInvalidHost);
  pins[0] = 5;
  pins[3] = 0;
  for (const auto algorithm :
       {Algorithm::kEg, Algorithm::kEgC, Algorithm::kEgBw, Algorithm::kBaStar,
        Algorithm::kDbaStar}) {
    SearchConfig config;
    config.deadline_seconds = 0.2;
    const Placement placement = place_topology(occupancy, app, algorithm,
                                               config, &pins);
    ASSERT_TRUE(placement.feasible) << to_string(algorithm);
    EXPECT_EQ(placement.assignment[0], 5u) << to_string(algorithm);
    EXPECT_EQ(placement.assignment[3], 0u) << to_string(algorithm);
    EXPECT_TRUE(verify_placement(occupancy, app, placement.assignment).empty())
        << to_string(algorithm);
  }
}

TEST(IncrementalTest, AllPinnedIsValidationOnly) {
  const auto datacenter = small_dc(2, 2);
  const dc::Occupancy occupancy(datacenter);
  const auto app = chain(3);
  const net::Assignment pins{0, 0, 1};
  const Placement placement = place_topology(
      occupancy, app, Algorithm::kEg, SearchConfig{}, &pins);
  ASSERT_TRUE(placement.feasible);
  EXPECT_EQ(placement.assignment, pins);
  // Cost of the fully pinned placement is computed correctly: one 50 Mbps
  // pipe crosses two host links.
  EXPECT_DOUBLE_EQ(placement.reserved_bandwidth_mbps, 100.0);
}

TEST(IncrementalTest, ConflictingPinsReported) {
  const auto datacenter = small_dc(1, 2);
  const dc::Occupancy occupancy(datacenter);
  topo::TopologyBuilder builder;
  builder.add_vm("a", {6.0, 2.0, 0.0});
  builder.add_vm("b", {6.0, 2.0, 0.0});  // 12 cores > 8-core host
  const auto app = builder.build();
  const net::Assignment pins{0, 0};
  const Placement placement = place_topology(
      occupancy, app, Algorithm::kEg, SearchConfig{}, &pins);
  EXPECT_FALSE(placement.feasible);
  EXPECT_NE(placement.failure_reason.find("pinned"), std::string::npos);
}

TEST(IncrementalTest, PinViolatingZoneReported) {
  const auto datacenter = small_dc(2, 2);
  const dc::Occupancy occupancy(datacenter);
  topo::TopologyBuilder builder;
  builder.add_vm("a", {1.0, 1.0, 0.0});
  builder.add_vm("b", {1.0, 1.0, 0.0});
  builder.add_zone("z", topo::DiversityLevel::kHost,
                   std::vector<std::string>{"a", "b"});
  const auto app = builder.build();
  const net::Assignment pins{2, 2};  // same host despite the zone
  const Placement placement = place_topology(
      occupancy, app, Algorithm::kBaStar, SearchConfig{}, &pins);
  EXPECT_FALSE(placement.feasible);
}

TEST(IncrementalTest, GrowthReusesActiveHostsWhenRoomy) {
  // After a committed deployment, placing a small delta app should prefer
  // the already-active hosts (u_c pressure).
  const auto datacenter = small_dc(2, 3);
  OstroScheduler scheduler(datacenter);
  const auto app = chain(3);
  ASSERT_TRUE(scheduler.deploy(app, Algorithm::kEg).feasible);
  const auto active_before = scheduler.occupancy().active_host_count();

  topo::TopologyBuilder builder;
  builder.add_vm("extra", {1.0, 1.0, 0.0});
  const auto delta = builder.build();
  const Placement placement = scheduler.deploy(delta, Algorithm::kEg);
  ASSERT_TRUE(placement.feasible);
  EXPECT_EQ(placement.new_active_hosts, 0);
  EXPECT_EQ(scheduler.occupancy().active_host_count(), active_before);
}

TEST(IncrementalTest, BaStarOptimalGivenPins) {
  // With some nodes pinned, BA* must still match brute force over the free
  // remainder.
  util::Rng rng(9090);
  for (int trial = 0; trial < 8; ++trial) {
    const auto datacenter = small_dc(2, 2);
    const dc::Occupancy occupancy(datacenter);
    const auto app = ostro::testing::random_app(rng, 4);
    SearchConfig config;
    const Objective objective(app, datacenter, config);
    PartialPlacement seeded(app, occupancy, objective);
    // Pin node 0 to the first host it fits on.
    dc::HostId pin = dc::kInvalidHost;
    for (dc::HostId h = 0; h < datacenter.host_count(); ++h) {
      if (seeded.can_place(0, h)) {
        pin = h;
        break;
      }
    }
    if (pin == dc::kInvalidHost) continue;
    seeded.place(0, pin);
    const BruteForceResult best = brute_force_optimal(seeded, true);

    net::Assignment pins(app.node_count(), dc::kInvalidHost);
    pins[0] = pin;
    const Placement placement = place_topology(
        occupancy, app, Algorithm::kBaStar, config, &pins);
    ASSERT_EQ(placement.feasible, best.feasible) << trial;
    if (best.feasible) {
      EXPECT_NEAR(placement.utility, best.utility, 1e-9) << trial;
    }
  }
}

TEST(IncrementalTest, RepeatedDeploysFillTheTestbed) {
  // Deploy QFS stacks until the testbed runs out; every successful deploy
  // verifies, and the first failure reports a reason.
  const auto datacenter = sim::make_testbed();
  OstroScheduler scheduler(datacenter);
  const auto app = sim::make_qfs();
  int deployed = 0;
  for (int i = 0; i < 10; ++i) {
    const Placement placement = scheduler.plan(app, Algorithm::kEg);
    if (!placement.feasible) {
      EXPECT_FALSE(placement.failure_reason.empty());
      break;
    }
    EXPECT_TRUE(verify_placement(scheduler.occupancy(), app,
                                 placement.assignment)
                    .empty());
    scheduler.commit(app, placement);
    ++deployed;
  }
  EXPECT_GE(deployed, 2);   // the idle testbed holds at least a couple
  EXPECT_LT(deployed, 10);  // ... but not ten QFS stacks
}

}  // namespace
}  // namespace ostro::core
