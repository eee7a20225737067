// sim::Lifecycle: bit-exact determinism from one seed, the differential
// soak (randomized arrival/departure churn, then drain every live stack and
// compare against a fresh occupancy — proving the incremental release path
// un-indexes the FeasibilityIndex exactly), and the
// failure/repair accounting.
#include "sim/lifecycle.h"

#include <gtest/gtest.h>

#include "core/scheduler.h"
#include "core/service.h"
#include "datacenter/occupancy.h"
#include "helpers.h"

namespace ostro::sim {
namespace {

using ostro::testing::small_dc;

/// Churny-but-small config: 5-VM stacks (all-large tiers) on a 4-host
/// cluster, enough arrivals to cycle capacity several times over.
LifecycleConfig churn_config() {
  LifecycleConfig config;
  config.arrival_rate_per_s = 0.05;
  config.mean_lifetime_s = 120.0;
  config.duration_s = 600.0;
  config.stack_vms = 5;
  config.sample_interval_s = 50.0;
  config.seed = 7;
  return config;
}

TEST(LifecycleSimTest, SameSeedReproducesTheRunBitForBit) {
  const auto datacenter = small_dc(2, 2);
  LifecycleStats runs[2];
  dc::Occupancy finals[2] = {dc::Occupancy(datacenter),
                             dc::Occupancy(datacenter)};
  for (int i = 0; i < 2; ++i) {
    core::OstroScheduler scheduler(datacenter);
    core::PlacementService service(scheduler);
    Lifecycle lifecycle(service, churn_config());
    runs[i] = lifecycle.run();
    finals[i] = scheduler.occupancy();
  }

  EXPECT_EQ(runs[0].arrivals, runs[1].arrivals);
  EXPECT_EQ(runs[0].placements_committed, runs[1].placements_committed);
  EXPECT_EQ(runs[0].placements_failed, runs[1].placements_failed);
  EXPECT_EQ(runs[0].departures, runs[1].departures);
  ASSERT_EQ(runs[0].trajectory.size(), runs[1].trajectory.size());
  for (std::size_t i = 0; i < runs[0].trajectory.size(); ++i) {
    const TrajectoryPoint& a = runs[0].trajectory[i];
    const TrajectoryPoint& b = runs[1].trajectory[i];
    EXPECT_DOUBLE_EQ(a.time_s, b.time_s);
    EXPECT_DOUBLE_EQ(a.frag_index, b.frag_index);
    EXPECT_DOUBLE_EQ(a.unusable_free_cpu_fraction,
                     b.unusable_free_cpu_fraction);
    EXPECT_EQ(a.live_stacks, b.live_stacks);
    EXPECT_EQ(a.active_hosts, b.active_hosts);
  }
  EXPECT_TRUE(finals[0] == finals[1]);
  EXPECT_GT(runs[0].arrivals, 10u);  // the run actually exercised churn
}

TEST(LifecycleSimTest, SoakThenDrainMatchesFreshRebuild) {
  const auto datacenter = small_dc(2, 2);
  core::OstroScheduler scheduler(datacenter);
  core::PlacementService service(scheduler);

  LifecycleConfig config = churn_config();
  config.defrag = true;
  config.defrag_interval_s = 60.0;
  Lifecycle lifecycle(service, config);
  const LifecycleStats stats = lifecycle.run();

  // Arrival accounting: every arrival either committed or failed, and only
  // committed stacks can depart.
  EXPECT_EQ(stats.arrivals,
            stats.placements_committed + stats.placements_failed);
  EXPECT_LE(stats.departures, stats.placements_committed);
  EXPECT_GT(stats.departures, 0u);
  EXPECT_FALSE(stats.trajectory.empty());

  // The differential soak: after hundreds of interleaved placements,
  // releases, and defrag migrations, draining the survivors through the
  // same release path must land on a bit-identical fresh occupancy —
  // host loads, link reservations, active flags and the FeasibilityIndex
  // all compare.
  for (const core::DeployedStack& stack : lifecycle.registry().snapshot()) {
    EXPECT_TRUE(service.release_stack(lifecycle.registry(), stack.id));
  }
  EXPECT_EQ(lifecycle.registry().size(), 0u);
  EXPECT_TRUE(scheduler.occupancy() == dc::Occupancy(datacenter));
}

TEST(LifecycleSimTest, HostFailureAndRepairAccounting) {
  const auto datacenter = small_dc(2, 2);
  core::OstroScheduler scheduler(datacenter);
  core::PlacementService service(scheduler);

  LifecycleConfig config = churn_config();
  config.host_mtbf_s = 300.0;  // ~8 expected failures over the horizon
  config.host_repair_s = 100.0;
  Lifecycle lifecycle(service, config);
  const LifecycleStats stats = lifecycle.run();

  EXPECT_GT(stats.host_failures, 0u);
  EXPECT_LE(stats.host_repairs, stats.host_failures);
  EXPECT_EQ(stats.arrivals,
            stats.placements_committed + stats.placements_failed);
  // Killed stacks never depart on their lifetime timer.
  EXPECT_LE(stats.departures + stats.stacks_killed,
            stats.placements_committed);
}

}  // namespace
}  // namespace ostro::sim
