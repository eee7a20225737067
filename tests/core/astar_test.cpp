#include "core/astar.h"

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "core/greedy.h"
#include "core/verify.h"
#include "helpers.h"

namespace ostro::core {
namespace {

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
  occupancy.add_host_load(0, {7.0, 0.0, 0.0});
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
  // The budget is not a valve fire: the kAuto controller must not treat it
  // as a widen-retry signal.
  EXPECT_FALSE(outcome.stats.hit_open_limit);

  // A rerun stops at the same point of the same search.
  const AStarOutcome rerun = run_astar(
      initial_state(app, occupancy, objective), config, false, nullptr);
  EXPECT_EQ(rerun.state.assignment(), outcome.state.assignment());
  EXPECT_EQ(rerun.stats.paths_expanded, outcome.stats.paths_expanded);
}

TEST(BaStarTest, GreedyEstimateModeStillValid) {
  util::Rng rng(999);
  const auto datacenter = small_dc(2, 2);
  const dc::Occupancy occupancy(datacenter);
  const auto app = random_app(rng, 4);
  SearchConfig config;
  config.greedy_estimate_in_astar = true;
  const Objective objective(app, datacenter, config);
  const AStarOutcome outcome = run_astar(
      initial_state(app, occupancy, objective), config, false, nullptr);
  if (outcome.feasible) {
    EXPECT_TRUE(
        verify_placement(occupancy, app, outcome.state.assignment()).empty());
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
