// Search-machinery observability: truncation reporting, host-symmetry
// rule effectiveness, EG re-bound reuse, and stats consistency.
#include <gtest/gtest.h>

#include "core/astar.h"
#include "core/greedy.h"
#include "core/scheduler.h"
#include "helpers.h"
#include "util/metrics.h"

namespace ostro::core {
namespace {

using ostro::testing::random_app;
using ostro::testing::small_dc;
using ostro::testing::tiny_app;

TEST(AStarStatsTest, TruncationFlagSetWhenQueueCapped) {
  util::Rng rng(808);
  const auto datacenter = small_dc(3, 3);
  const dc::Occupancy occupancy(datacenter);
  const auto app = random_app(rng, 8, 0.5);
  SearchConfig config;
  config.max_open_paths = 16;  // absurdly small
  const Placement placement = place_topology(
      occupancy, app, Algorithm::kBaStar, config);
  if (placement.feasible) {
    EXPECT_TRUE(placement.stats.truncated);
  }
}

TEST(AStarStatsTest, NoTruncationOnSmallInstances) {
  const auto datacenter = small_dc(2, 2);
  const dc::Occupancy occupancy(datacenter);
  const Placement placement = place_topology(
      occupancy, tiny_app(), Algorithm::kBaStar, SearchConfig{});
  ASSERT_TRUE(placement.feasible);
  EXPECT_FALSE(placement.stats.truncated);
}

TEST(AStarStatsTest, EquivalentHostsCollapseBranching) {
  // 12 identical idle hosts in one rack: children per expansion should be
  // tiny (one representative per distinct configuration), so generated
  // paths stay near-linear in |V| instead of |V| x |H|.
  dc::DataCenterBuilder builder;
  const auto site = builder.add_site("s", 64000.0);
  const auto pod = builder.add_pod(site, "p", 64000.0);
  const auto rack = builder.add_rack(pod, "r", 32000.0);
  for (int i = 0; i < 12; ++i) {
    builder.add_host(rack, "h" + std::to_string(i), {8.0, 16.0, 500.0},
                     2000.0);
  }
  const auto datacenter = builder.build();
  const dc::Occupancy occupancy(datacenter);

  topo::TopologyBuilder app_builder;
  for (int i = 0; i < 4; ++i) {
    app_builder.add_vm("vm" + std::to_string(i), {2.0, 2.0, 0.0});
  }
  app_builder.connect("vm0", "vm1", 100.0);
  app_builder.connect("vm2", "vm3", 100.0);
  const auto app = app_builder.build();

  SearchConfig config;
  config.symmetry_reduction = false;  // isolate the host-side reduction
  const Placement placement = place_topology(
      occupancy, app, Algorithm::kBaStar, config);
  ASSERT_TRUE(placement.feasible);
  // Without dedup the root alone would emit 12 children; with it, at most
  // a couple of distinct configurations exist at every level.
  EXPECT_LT(placement.stats.paths_generated, 60u);
}

TEST(AStarStatsTest, StatsAccumulateSensibly) {
  util::Rng rng(99);
  const auto datacenter = small_dc(2, 3);
  const dc::Occupancy occupancy(datacenter);
  const auto app = random_app(rng, 5);
  const Placement placement = place_topology(
      occupancy, app, Algorithm::kBaStar, SearchConfig{});
  if (!placement.feasible) return;
  EXPECT_GE(placement.stats.paths_generated, placement.stats.paths_expanded);
  EXPECT_GE(placement.stats.eg_reruns, 1u);
  EXPECT_GT(placement.stats.runtime_seconds, 0.0);
  EXPECT_LE(placement.stats.max_depth, app.node_count());
}

TEST(AStarStatsTest, DiveAlongEgAnswersItsReboundsWithoutRunningEg) {
  // Three 3-vCPU VMs in a chain a - b - c on 8-vCPU hosts: any two fit one
  // host, all three do not.  EG places b (the heaviest) first, a beside it
  // and c in b's rack: 200 Mbps·links on two new hosts, the optimum.  DBA*
  // ranks siblings by EG's own estimate, so its dive takes EG's decisions,
  // and every re-bound along it (one per depth here) starts from a state
  // on the root completion's path: EG would only return it again.
  const auto datacenter = small_dc(2, 2);
  const dc::Occupancy occupancy(datacenter);
  topo::TopologyBuilder builder;
  for (const char* name : {"a", "b", "c"}) {
    builder.add_vm(name, {3.0, 3.0, 0.0});
  }
  builder.connect("a", "b", 100.0);
  builder.connect("b", "c", 100.0);
  const auto app = builder.build();
  SearchConfig config;
  config.deadline_seconds = 0.0;  // deterministic, drains the open queue
  const Objective objective(app, datacenter, config);
  const GreedyOutcome eg =
      run_greedy(Algorithm::kEg, PartialPlacement(app, occupancy, objective),
                 eg_sort_order(app));
  ASSERT_TRUE(eg.feasible);

  const auto& reused = util::metrics::counter("astar.eg_reruns_reused");
  const std::uint64_t reused_before = reused.value();
  const AStarOutcome dba = run_astar(
      PartialPlacement(app, occupancy, objective), config, true);
  ASSERT_TRUE(dba.feasible);
  EXPECT_EQ(dba.state.assignment(), eg.state.assignment());
  EXPECT_EQ(dba.stats.eg_reruns, 1u);  // the root run only
  EXPECT_GT(reused.value(), reused_before);
}

TEST(AStarStatsTest, DiveOffEveryKnownCompletionStillRerunsEg) {
  // On this instance DBA* returns a strictly better placement than EG, so
  // its search leaves EG's decisions; a re-bound from a state off every
  // known completion must run EG again.
  util::Rng rng(33);
  const auto datacenter = small_dc(2, 3);
  const dc::Occupancy occupancy(datacenter);
  const auto app = random_app(rng, 5);
  SearchConfig config;
  config.deadline_seconds = 0.0;
  const Objective objective(app, datacenter, config);
  const GreedyOutcome eg =
      run_greedy(Algorithm::kEg, PartialPlacement(app, occupancy, objective),
                 eg_sort_order(app));
  ASSERT_TRUE(eg.feasible);
  const AStarOutcome dba = run_astar(
      PartialPlacement(app, occupancy, objective), config, true);
  ASSERT_TRUE(dba.feasible);
  EXPECT_LT(dba.state.utility_committed(),
            eg.state.utility_committed() - 1e-9);
  EXPECT_GE(dba.stats.eg_reruns, 2u);
}

TEST(AStarStatsTest, DbaRandomPruningCountsUnderPressure) {
  util::Rng rng(5);
  const auto datacenter = small_dc(3, 3);
  const dc::Occupancy occupancy(datacenter);
  const auto app = random_app(rng, 8, 0.5);
  SearchConfig config;
  config.deadline_seconds = 0.0;       // no clock dependence
  config.initial_prune_range = 0.4;    // fixed pruning pressure
  const Placement placement = place_topology(
      occupancy, app, Algorithm::kDbaStar, config);
  ASSERT_TRUE(placement.feasible);
  EXPECT_GT(placement.stats.paths_pruned_random, 0u);
}

}  // namespace
}  // namespace ostro::core
