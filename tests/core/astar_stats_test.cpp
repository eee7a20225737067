// Search-machinery observability: truncation reporting, host-symmetry
// rule effectiveness, and stats consistency.
#include <gtest/gtest.h>

#include "core/astar.h"
#include "core/scheduler.h"
#include "helpers.h"

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
      occupancy, app, Algorithm::kBaStar, config, nullptr, nullptr);
  if (placement.feasible) {
    EXPECT_TRUE(placement.stats.truncated);
  }
}

TEST(AStarStatsTest, NoTruncationOnSmallInstances) {
  const auto datacenter = small_dc(2, 2);
  const dc::Occupancy occupancy(datacenter);
  const Placement placement = place_topology(
      occupancy, tiny_app(), Algorithm::kBaStar, SearchConfig{}, nullptr,
      nullptr);
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
      occupancy, app, Algorithm::kBaStar, config, nullptr, nullptr);
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
      occupancy, app, Algorithm::kBaStar, SearchConfig{}, nullptr, nullptr);
  if (!placement.feasible) return;
  EXPECT_GE(placement.stats.paths_generated, placement.stats.paths_expanded);
  EXPECT_GE(placement.stats.eg_reruns, 1u);
  EXPECT_GT(placement.stats.runtime_seconds, 0.0);
  EXPECT_LE(placement.stats.max_depth, app.node_count());
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
      occupancy, app, Algorithm::kDbaStar, config, nullptr, nullptr);
  ASSERT_TRUE(placement.feasible);
  EXPECT_GT(placement.stats.paths_pruned_random, 0u);
}

}  // namespace
}  // namespace ostro::core
