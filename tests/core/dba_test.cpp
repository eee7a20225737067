#include <gtest/gtest.h>

#include "util/timer.h"
#include "core/astar.h"
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

TEST(DbaStarTest, FindsValidPlacement) {
  const auto datacenter = small_dc(2, 2);
  const dc::Occupancy occupancy(datacenter);
  const auto app = tiny_app();
  SearchConfig config;
  config.deadline_seconds = 0.5;
  const Objective objective(app, datacenter, config);
  const AStarOutcome outcome = run_astar(
      initial_state(app, occupancy, objective), config, true);
  ASSERT_TRUE(outcome.feasible) << outcome.failure;
  EXPECT_TRUE(
      verify_placement(occupancy, app, outcome.state.assignment()).empty());
}

TEST(DbaStarTest, WithoutDeadlineMatchesBaStarUtility) {
  // deadline <= 0 disables pruning pressure: DBA* becomes a deterministic
  // depth-first, estimate-ordered search that drains its open queue, and on
  // instances this small it reaches BA*'s optimum.
  util::Rng rng(606);
  for (int trial = 0; trial < 10; ++trial) {
    const auto datacenter = small_dc(2, 2);
    const dc::Occupancy occupancy(datacenter);
    const auto app = random_app(rng, 4);
    SearchConfig config;
    config.deadline_seconds = 0.0;
    config.initial_prune_range = 0.0;
    const Objective objective(app, datacenter, config);
    const AStarOutcome dba = run_astar(
        initial_state(app, occupancy, objective), config, true);
    const AStarOutcome ba = run_astar(
        initial_state(app, occupancy, objective), config, false);
    ASSERT_EQ(dba.feasible, ba.feasible) << "trial " << trial;
    if (ba.feasible) {
      EXPECT_NEAR(dba.state.utility_committed(),
                  ba.state.utility_committed(), 1e-9)
          << "trial " << trial;
      EXPECT_TRUE(
          verify_placement(occupancy, app, dba.state.assignment()).empty())
          << "trial " << trial;
    }
  }
}

TEST(DbaStarTest, RespectsDeadlineOnLargeInstance) {
  // A deliberately heavy instance; DBA* must come back around T, not after
  // exploring the whole space.
  util::Rng rng(7777);
  const auto datacenter = small_dc(4, 4);  // 16 hosts
  const dc::Occupancy occupancy(datacenter);
  const auto app = random_app(rng, 10, 0.5);
  SearchConfig config;
  config.deadline_seconds = 0.3;
  const Objective objective(app, datacenter, config);
  const util::WallTimer timer;
  const AStarOutcome outcome = run_astar(
      initial_state(app, occupancy, objective), config, true);
  const double elapsed = timer.elapsed_seconds();
  // Bounded slack: pops are fast; allow generous margin for CI noise.
  EXPECT_LT(elapsed, config.deadline_seconds + 1.0);
  if (outcome.feasible) {
    EXPECT_TRUE(
        verify_placement(occupancy, app, outcome.state.assignment()).empty());
  }
}

TEST(DbaStarTest, NeverWorseThanEgIncumbent) {
  // DBA* returns either a completed path or the EG incumbent, so it can
  // never report something worse than plain EG.
  util::Rng rng(2020);
  for (int trial = 0; trial < 10; ++trial) {
    const auto datacenter = small_dc(2, 3);
    const dc::Occupancy occupancy(datacenter);
    const auto app = random_app(rng, 5);
    SearchConfig config;
    config.deadline_seconds = 0.2;
    const Objective objective(app, datacenter, config);
    const GreedyOutcome eg = run_greedy(
        Algorithm::kEg, initial_state(app, occupancy, objective),
        eg_sort_order(app));
    const AStarOutcome dba = run_astar(
        initial_state(app, occupancy, objective), config, true);
    if (!eg.feasible) continue;
    ASSERT_TRUE(dba.feasible);
    EXPECT_LE(dba.state.utility_committed(),
              eg.state.utility_committed() + 1e-9);
  }
}

TEST(DbaStarTest, AggressiveInitialPruningStillReturnsSolution) {
  const auto datacenter = small_dc(2, 2);
  const dc::Occupancy occupancy(datacenter);
  const auto app = tiny_app();
  SearchConfig config;
  config.deadline_seconds = 0.2;
  config.initial_prune_range = 10.0;  // prune almost every shallow path
  const Objective objective(app, datacenter, config);
  const AStarOutcome outcome = run_astar(
      initial_state(app, occupancy, objective), config, true);
  // The EG incumbent guarantees an answer even when the search implodes.
  ASSERT_TRUE(outcome.feasible);
  EXPECT_TRUE(
      verify_placement(occupancy, app, outcome.state.assignment()).empty());
}

TEST(DbaStarTest, PruningStatisticsRecorded) {
  util::Rng rng(3030);
  const auto datacenter = small_dc(3, 3);
  const dc::Occupancy occupancy(datacenter);
  const auto app = random_app(rng, 8, 0.5);
  SearchConfig config;
  config.deadline_seconds = 0.2;
  config.initial_prune_range = 0.5;
  const Objective objective(app, datacenter, config);
  const AStarOutcome outcome = run_astar(
      initial_state(app, occupancy, objective), config, true);
  (void)outcome;
  // With a positive prune range, random pruning happens with overwhelming
  // probability on an instance of this size.
  EXPECT_GT(outcome.stats.paths_generated, 0u);
}

TEST(DbaStarTest, SeedReproducibility) {
  util::Rng rng(4545);
  const auto datacenter = small_dc(2, 3);
  const dc::Occupancy occupancy(datacenter);
  const auto app = random_app(rng, 6);
  SearchConfig config;
  config.deadline_seconds = 0.0;  // no wall-clock dependence
  config.initial_prune_range = 0.3;
  config.seed = 1234;
  const Objective objective(app, datacenter, config);
  const AStarOutcome a = run_astar(
      initial_state(app, occupancy, objective), config, true);
  const AStarOutcome b = run_astar(
      initial_state(app, occupancy, objective), config, true);
  ASSERT_EQ(a.feasible, b.feasible);
  if (a.feasible) {
    EXPECT_EQ(a.state.assignment(), b.state.assignment());
  }
}

}  // namespace
}  // namespace ostro::core
