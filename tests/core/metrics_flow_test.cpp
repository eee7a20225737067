// End-to-end checks of the observability layer: planning through
// OstroScheduler must leave the expected counters in the global metrics
// registry and populate the per-run SearchStats carried by the Placement.
#include <gtest/gtest.h>

#include "core/scheduler.h"
#include "helpers.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace ostro::core {
namespace {

using ostro::testing::random_app;
using ostro::testing::small_dc;
using ostro::testing::tiny_app;

class MetricsFlowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::metrics::set_enabled(true);
    util::metrics::Registry::global().reset();
  }
};

TEST_F(MetricsFlowTest, GreedyPlanPopulatesRegistryAndStats) {
  const dc::DataCenter dc = small_dc(2, 2);
  const OstroScheduler scheduler(dc);
  const Placement placement = scheduler.plan(tiny_app(), Algorithm::kEg);
  ASSERT_TRUE(placement.feasible);

  const auto& registry = util::metrics::Registry::global();
  EXPECT_GT(registry.counter_value("greedy.candidates_evaluated"), 0u);
  EXPECT_GT(registry.counter_value("greedy.runs"), 0u);
  EXPECT_GT(registry.counter_value("greedy.nodes_placed"), 0u);
  EXPECT_EQ(registry.counter_value("estimator.candidate_estimates"),
            placement.stats.heuristic_calls);
  EXPECT_EQ(registry.counter_value("scheduler.plans"), 1u);
  EXPECT_EQ(registry.summary_snapshot("scheduler.plan_seconds").count, 1u);

  // The per-run view travels with the placement.
  EXPECT_GT(placement.stats.candidates_evaluated, 0u);
  EXPECT_GT(placement.stats.heuristic_calls, 0u);
  EXPECT_GT(placement.stats.runtime_seconds, 0.0);

  // The estimate fans count once per fan, not once per estimate; the
  // registry total must still move by exactly the run's heuristic calls,
  // whichever loop ran them: EG's fan (16 candidates per VM), EG without
  // the per-node context, BA* (its EG completions) and DBA* (its EG
  // completions and its sibling ranking).
  const SearchConfig defaults{};
  const dc::DataCenter wide = small_dc(4, 4);
  const OstroScheduler wide_scheduler(wide, defaults);
  SearchConfig no_context = defaults;
  no_context.use_estimate_context = false;
  const topo::AppTopology tiny = tiny_app();
  // On tiny_app EG is optimal, so DBA* bound-prunes every child and ranks
  // no siblings; this 8-VM app leaves it 328 sibling estimates.
  util::Rng rng(5);
  const topo::AppTopology mesh = random_app(rng, 8, 0.5);
  const struct {
    const char* label;
    Algorithm algorithm;
    const topo::AppTopology* app;
    const SearchConfig* config;
  } runs[] = {
      {"eg", Algorithm::kEg, &tiny, &defaults},
      {"eg without context", Algorithm::kEg, &tiny, &no_context},
      {"ba*", Algorithm::kBaStar, &tiny, &defaults},
      {"dba*", Algorithm::kDbaStar, &mesh, &defaults},
  };
  for (const auto& run : runs) {
    const std::uint64_t before =
        registry.counter_value("estimator.candidate_estimates");
    const Placement p =
        wide_scheduler.plan(*run.app, run.algorithm, *run.config);
    ASSERT_TRUE(p.feasible) << run.label;
    EXPECT_GT(p.stats.heuristic_calls, 0u) << run.label;
    EXPECT_EQ(registry.counter_value("estimator.candidate_estimates") -
                  before,
              p.stats.heuristic_calls)
        << run.label;
    if (run.algorithm == Algorithm::kDbaStar) {
      // Calls beyond its EG runs' candidates are the sibling ranking.
      EXPECT_GT(p.stats.heuristic_calls, p.stats.candidates_evaluated);
    }
  }
}

TEST_F(MetricsFlowTest, AStarPlanCountsNodeExpansions) {
  const dc::DataCenter dc = small_dc(2, 2);
  const OstroScheduler scheduler(dc);
  const Placement placement = scheduler.plan(tiny_app(), Algorithm::kBaStar);
  ASSERT_TRUE(placement.feasible);

  const auto& registry = util::metrics::Registry::global();
  EXPECT_GT(registry.counter_value("astar.nodes_expanded"), 0u);
  EXPECT_GT(registry.counter_value("astar.paths_generated"), 0u);
  EXPECT_EQ(registry.counter_value("astar.runs"), 1u);
  // Exactly one run after reset: the registry total and the per-run stats
  // must agree.
  EXPECT_EQ(registry.counter_value("astar.nodes_expanded"),
            placement.stats.paths_expanded);
  EXPECT_GT(placement.stats.open_queue_peak, 0u);
  EXPECT_GE(registry.summary_snapshot("astar.open_queue_size").count, 1u);
}

TEST_F(MetricsFlowTest, DbaPlanCountsNodeExpansions) {
  const dc::DataCenter dc = small_dc(2, 2);
  const OstroScheduler scheduler(dc);
  SearchConfig config;
  config.deadline_seconds = 5.0;
  const Placement placement =
      scheduler.plan(tiny_app(), Algorithm::kDbaStar, config);
  ASSERT_TRUE(placement.feasible);
  EXPECT_GT(util::metrics::Registry::global().counter_value(
                "astar.nodes_expanded"),
            0u);
}

TEST_F(MetricsFlowTest, DeployCountsCommitAndReservationChurn) {
  const dc::DataCenter dc = small_dc(2, 2);
  OstroScheduler scheduler(dc);
  const Placement placement = scheduler.deploy(tiny_app(), Algorithm::kEg);
  ASSERT_TRUE(placement.feasible);

  const auto& registry = util::metrics::Registry::global();
  EXPECT_EQ(registry.counter_value("scheduler.commits"), 1u);
  EXPECT_GT(registry.counter_value("reservation.applies"), 0u);
}

TEST_F(MetricsFlowTest, DisabledCollectionLeavesRegistryUntouched) {
  const dc::DataCenter dc = small_dc(2, 2);
  const OstroScheduler scheduler(dc);
  util::metrics::set_enabled(false);
  const Placement placement = scheduler.plan(tiny_app(), Algorithm::kEg);
  util::metrics::set_enabled(true);
  ASSERT_TRUE(placement.feasible);
  const auto& registry = util::metrics::Registry::global();
  EXPECT_EQ(registry.counter_value("greedy.candidates_evaluated"), 0u);
  EXPECT_EQ(registry.counter_value("scheduler.plans"), 0u);
  // Per-run SearchStats are part of the result, not observability: they are
  // still populated.
  EXPECT_GT(placement.stats.candidates_evaluated, 0u);
}

}  // namespace
}  // namespace ostro::core
