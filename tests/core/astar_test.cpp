#include "core/astar.h"

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "core/greedy.h"
#include "core/verify.h"
#include "helpers.h"

namespace ostro::core {
namespace {

using ostro::testing::add_host_load;
using ostro::testing::random_app;
using ostro::testing::small_dc;
using ostro::testing::tiny_app;

PartialPlacement initial_state(const topo::AppTopology& app,
                               const dc::Occupancy& occupancy,
                               const Objective& objective) {
  return {app, occupancy, objective};
}

TEST(BaStarTest, SolvesTinyAppOptimally) {
  const auto datacenter = small_dc(2, 2);
  const dc::Occupancy occupancy(datacenter);
  const auto app = tiny_app();
  SearchConfig config;
  const Objective objective(app, datacenter, config);
  const AStarOutcome outcome = run_astar(
      initial_state(app, occupancy, objective), config, false, nullptr);
  ASSERT_TRUE(outcome.feasible) << outcome.failure;
  EXPECT_TRUE(
      verify_placement(occupancy, app, outcome.state.assignment()).empty());
  const BruteForceResult best =
      brute_force_optimal(initial_state(app, occupancy, objective));
  EXPECT_NEAR(outcome.state.utility_committed(), best.utility, 1e-9);
}

TEST(BaStarTest, MatchesBruteForceOnRandomInstances) {
  util::Rng rng(90210);
  int checked = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const auto datacenter = small_dc(2, 2);
    const dc::Occupancy occupancy(datacenter);
    const auto app = random_app(rng, 4);
    SearchConfig config;
    config.symmetry_reduction = false;  // exercised separately
    const Objective objective(app, datacenter, config);
    const BruteForceResult best =
        brute_force_optimal(initial_state(app, occupancy, objective), false);
    const AStarOutcome outcome = run_astar(
        initial_state(app, occupancy, objective), config, false, nullptr);
    ASSERT_EQ(outcome.feasible, best.feasible) << "trial " << trial;
    if (!best.feasible) continue;
    ++checked;
    EXPECT_NEAR(outcome.state.utility_committed(), best.utility, 1e-9)
        << "trial " << trial;
    EXPECT_TRUE(
        verify_placement(occupancy, app, outcome.state.assignment()).empty());
  }
  EXPECT_GT(checked, 10);
}

TEST(BaStarTest, SymmetryReductionPreservesOptimality) {
  util::Rng rng(31415);
  for (int trial = 0; trial < 12; ++trial) {
    const auto datacenter = small_dc(2, 2);
    const dc::Occupancy occupancy(datacenter);
    // Symmetric workload: identical VMs in one host-level zone + a hub.
    topo::TopologyBuilder builder;
    builder.add_vm("hub", {2.0, 2.0, 0.0});
    std::vector<std::string> members;
    const int twins = 2 + static_cast<int>(rng.next_below(2));
    for (int i = 0; i < twins; ++i) {
      const std::string name = "twin" + std::to_string(i);
      builder.add_vm(name, {1.0, 1.0, 0.0});
      builder.connect("hub", name, 50.0);
      members.push_back(name);
    }
    builder.add_zone("z", topo::DiversityLevel::kHost, members);
    const auto app = builder.build();

    SearchConfig with;
    with.symmetry_reduction = true;
    SearchConfig without;
    without.symmetry_reduction = false;
    const Objective objective(app, datacenter, with);
    const AStarOutcome a = run_astar(
        initial_state(app, occupancy, objective), with, false, nullptr);
    const AStarOutcome b = run_astar(
        initial_state(app, occupancy, objective), without, false, nullptr);
    ASSERT_TRUE(a.feasible);
    ASSERT_TRUE(b.feasible);
    EXPECT_NEAR(a.state.utility_committed(), b.state.utility_committed(),
                1e-9)
        << "trial " << trial;
  }
}

TEST(BaStarTest, NeverWorseThanEg) {
  util::Rng rng(2718);
  for (int trial = 0; trial < 15; ++trial) {
    const auto datacenter = small_dc(2, 3);
    const dc::Occupancy occupancy(datacenter);
    const auto app = random_app(rng, 5);
    SearchConfig config;
    const Objective objective(app, datacenter, config);
    const GreedyOutcome eg = run_greedy(
        Algorithm::kEg, initial_state(app, occupancy, objective),
        eg_sort_order(app), nullptr);
    const AStarOutcome ba = run_astar(
        initial_state(app, occupancy, objective), config, false, nullptr);
    if (!eg.feasible) continue;
    ASSERT_TRUE(ba.feasible);
    EXPECT_LE(ba.state.utility_committed(),
              eg.state.utility_committed() + 1e-9)
        << "trial " << trial;
  }
}

TEST(BaStarTest, InfeasibleInstanceReported) {
  const auto datacenter = small_dc(1, 1);
  dc::Occupancy occupancy(datacenter);
  add_host_load(occupancy, 0, {7.0, 0.0, 0.0});
  const auto app = tiny_app();
  SearchConfig config;
  const Objective objective(app, datacenter, config);
  const AStarOutcome outcome = run_astar(
      initial_state(app, occupancy, objective), config, false, nullptr);
  EXPECT_FALSE(outcome.feasible);
  EXPECT_FALSE(outcome.failure.empty());
}

TEST(BaStarTest, RespectsPinnedNodes) {
  const auto datacenter = small_dc(2, 2);
  const dc::Occupancy occupancy(datacenter);
  const auto app = tiny_app();
  SearchConfig config;
  const Objective objective(app, datacenter, config);
  PartialPlacement initial(app, occupancy, objective);
  initial.place(0, 3);
  const AStarOutcome outcome =
      run_astar(std::move(initial), config, false, nullptr);
  ASSERT_TRUE(outcome.feasible);
  EXPECT_EQ(outcome.state.host_of(0), 3u);
}

TEST(BaStarTest, OpenQueueLimitFallsBackToIncumbent) {
  const auto datacenter = small_dc(2, 3);
  const dc::Occupancy occupancy(datacenter);
  util::Rng rng(11);
  const auto app = random_app(rng, 6);
  SearchConfig config;
  config.max_open_paths = 8;  // absurdly small: trip immediately
  const Objective objective(app, datacenter, config);
  const AStarOutcome outcome = run_astar(
      initial_state(app, occupancy, objective), config, false, nullptr);
  // EG incumbent exists, so the search still reports a feasible placement.
  ASSERT_TRUE(outcome.feasible);
  EXPECT_TRUE(
      verify_placement(occupancy, app, outcome.state.assignment()).empty());
  EXPECT_TRUE(outcome.stats.truncated);
  EXPECT_TRUE(outcome.stats.hit_open_limit);
}

TEST(BaStarTest, OpenQueueLimitWithoutIncumbentFails) {
  // EG dead-ends here: its sort order places the pipe pair x--y first and
  // co-locates both on the big host (zero bandwidth, lowest host id), which
  // strands the 12-core z.  BA* would keep the big host free for z by
  // pairing x,y on h1, but with max_open_paths = 1 the valve fires on the
  // first expansion, before any path completes.  The valve is a hard bound:
  // with no incumbent the search fails.
  dc::DataCenterBuilder builder;
  const auto site = builder.add_site("site", 64000.0);
  const auto pod = builder.add_pod(site, "pod", 64000.0);
  const auto rack = builder.add_rack(pod, "rack", 32000.0);
  builder.add_host(rack, "big", {16.0, 32.0, 500.0}, 4000.0);
  builder.add_host(rack, "h1", {8.0, 16.0, 500.0}, 4000.0);
  builder.add_host(rack, "h2", {8.0, 16.0, 500.0}, 4000.0);
  const auto datacenter = builder.build();
  const dc::Occupancy occupancy(datacenter);

  topo::TopologyBuilder app_builder;
  app_builder.add_vm("x", {4.0, 4.0, 0.0});
  app_builder.add_vm("y", {4.0, 4.0, 0.0});
  app_builder.add_vm("z", {12.0, 2.0, 0.0});
  app_builder.connect("x", "y", 500.0);
  const auto app = app_builder.build();

  SearchConfig config;
  config.max_open_paths = 1;
  const Objective objective(app, datacenter, config);
  const AStarOutcome outcome = run_astar(
      initial_state(app, occupancy, objective), config, false, nullptr);
  EXPECT_FALSE(outcome.feasible);
  EXPECT_FALSE(outcome.failure.empty());
  EXPECT_TRUE(outcome.stats.truncated);
  EXPECT_TRUE(outcome.stats.hit_open_limit);

  // Without the valve the same search finds the placement EG missed.
  config.max_open_paths = 0;
  const AStarOutcome unbounded = run_astar(
      initial_state(app, occupancy, objective), config, false, nullptr);
  ASSERT_TRUE(unbounded.feasible) << unbounded.failure;
  EXPECT_FALSE(unbounded.stats.truncated);
  EXPECT_TRUE(
      verify_placement(occupancy, app, unbounded.state.assignment()).empty());
}

TEST(BaStarTest, ExpansionBudgetTruncatesDeterministically) {
  const auto datacenter = small_dc(2, 3);
  const dc::Occupancy occupancy(datacenter);
  util::Rng rng(11);
  const auto app = random_app(rng, 6);
  SearchConfig config;
  config.max_expansions = 2;
  const Objective objective(app, datacenter, config);
  const AStarOutcome outcome = run_astar(
      initial_state(app, occupancy, objective), config, false, nullptr);
  // The EG incumbent survives the truncation, and the budget is exact.
  ASSERT_TRUE(outcome.feasible);
  EXPECT_TRUE(
      verify_placement(occupancy, app, outcome.state.assignment()).empty());
  EXPECT_EQ(outcome.stats.paths_expanded, 2u);
  EXPECT_TRUE(outcome.stats.truncated);
  // The expansion cap, not the open-queue valve, stopped the search.
  EXPECT_FALSE(outcome.stats.hit_open_limit);

  // A rerun stops at the same point of the same search.
  const AStarOutcome rerun = run_astar(
      initial_state(app, occupancy, objective), config, false, nullptr);
  EXPECT_EQ(rerun.state.assignment(), outcome.state.assignment());
  EXPECT_EQ(rerun.stats.paths_expanded, outcome.stats.paths_expanded);
}

TEST(BaStarTest, HostsOfDifferentRacksAreNeverMerged) {
  // Rack 0 holds a 4-vCPU and a 1-vCPU host, rack 1 two 4-vCPU hosts.  Two
  // 3-vCPU VMs joined by a pipe cannot share a host, so the optimum puts
  // them side by side in rack 1 (a 2-link pipe).  Rack 0's big host matches
  // rack 1's in its own residual and uplinks, but it has no big sibling:
  // merging it with them leaves only 4-link, cross-rack completions.
  dc::DataCenterBuilder builder;
  const auto site = builder.add_site("site", 16000.0);
  const auto pod = builder.add_pod(site, "pod", 16000.0);
  const auto rack0 = builder.add_rack(pod, "rack0", 4000.0);
  builder.add_host(rack0, "big0", {4.0, 8.0, 100.0}, 1000.0);
  builder.add_host(rack0, "small0", {1.0, 8.0, 100.0}, 1000.0);
  const auto rack1 = builder.add_rack(pod, "rack1", 4000.0);
  builder.add_host(rack1, "big1", {4.0, 8.0, 100.0}, 1000.0);
  builder.add_host(rack1, "big2", {4.0, 8.0, 100.0}, 1000.0);
  const auto datacenter = builder.build();
  const dc::Occupancy occupancy(datacenter);

  topo::TopologyBuilder app_builder;
  app_builder.add_vm("a", {3.0, 3.0, 0.0});
  app_builder.add_vm("b", {3.0, 3.0, 0.0});
  app_builder.connect("a", "b", 100.0);
  const auto app = app_builder.build();

  for (const bool symmetry_reduction : {true, false}) {
    SearchConfig config;
    config.symmetry_reduction = symmetry_reduction;
    const Objective objective(app, datacenter, config);
    const BruteForceResult best =
        brute_force_optimal(initial_state(app, occupancy, objective), false);
    ASSERT_TRUE(best.feasible);
    EXPECT_NEAR(best.utility, 0.7, 1e-9);
    const AStarOutcome outcome = run_astar(
        initial_state(app, occupancy, objective), config, false, nullptr);
    ASSERT_TRUE(outcome.feasible) << outcome.failure;
    EXPECT_NEAR(outcome.state.utility_committed(), best.utility, 1e-9)
        << "symmetry_reduction=" << symmetry_reduction;
    EXPECT_EQ(datacenter.host(outcome.state.host_of(0)).rack, rack1);
    EXPECT_EQ(datacenter.host(outcome.state.host_of(1)).rack, rack1);
  }
}

TEST(BaStarTest, StatsArePopulated) {
  const auto datacenter = small_dc(2, 2);
  const dc::Occupancy occupancy(datacenter);
  const auto app = tiny_app();
  SearchConfig config;
  const Objective objective(app, datacenter, config);
  const AStarOutcome outcome = run_astar(
      initial_state(app, occupancy, objective), config, false, nullptr);
  ASSERT_TRUE(outcome.feasible);
  EXPECT_GT(outcome.stats.paths_generated, 0u);
  EXPECT_GE(outcome.stats.eg_reruns, 1u);
  EXPECT_GT(outcome.stats.runtime_seconds, 0.0);
}

}  // namespace
}  // namespace ostro::core
