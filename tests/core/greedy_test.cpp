#include "core/greedy.h"

#include <gtest/gtest.h>

#include "core/verify.h"
#include "helpers.h"

namespace ostro::core {
namespace {

using ostro::testing::add_host_load;
using ostro::testing::random_app;
using ostro::testing::small_dc;
using ostro::testing::tiny_app;

GreedyOutcome place_with(Algorithm algorithm, const topo::AppTopology& app,
                         const dc::Occupancy& occupancy,
                         const Objective& objective) {
  PartialPlacement state(app, occupancy, objective);
  const auto order = (algorithm == Algorithm::kEgBw)
                         ? bandwidth_sort_order(app)
                         : eg_sort_order(app);
  return run_greedy(algorithm, std::move(state), order, nullptr);
}

TEST(SortOrderTest, EgOrderFavorsHeavyNodes) {
  topo::TopologyBuilder builder;
  builder.add_vm("light", {1.0, 1.0, 0.0});
  builder.add_vm("heavy", {8.0, 16.0, 0.0});
  builder.add_vm("mid", {2.0, 2.0, 0.0});
  builder.connect("light", "mid", 10.0);
  const auto app = builder.build();
  const auto order = eg_sort_order(app);
  EXPECT_EQ(order.front(), app.node_id("heavy"));
}

TEST(SortOrderTest, BandwidthOrderFavorsConnectedNodes) {
  topo::TopologyBuilder builder;
  builder.add_vm("quiet", {4.0, 4.0, 0.0});
  builder.add_vm("chatty", {1.0, 1.0, 0.0});
  builder.add_vm("peer", {1.0, 1.0, 0.0});
  builder.connect("chatty", "peer", 500.0);
  const auto app = builder.build();
  const auto order = bandwidth_sort_order(app);
  EXPECT_TRUE(order.front() == app.node_id("chatty") ||
              order.front() == app.node_id("peer"));
  EXPECT_EQ(order.back(), app.node_id("quiet"));
}

TEST(SortOrderTest, OrdersArePermutations) {
  util::Rng rng(9);
  const auto app = random_app(rng, 6);
  for (const auto& order : {eg_sort_order(app), bandwidth_sort_order(app)}) {
    ASSERT_EQ(order.size(), app.node_count());
    std::vector<bool> seen(app.node_count(), false);
    for (const auto v : order) {
      ASSERT_LT(v, app.node_count());
      ASSERT_FALSE(seen[v]);
      seen[v] = true;
    }
  }
}

TEST(GreedyTest, AllVariantsProduceValidPlacements) {
  const auto datacenter = small_dc(2, 3);
  const dc::Occupancy occupancy(datacenter);
  const auto app = tiny_app();
  const Objective objective(app, datacenter, SearchConfig{});
  for (const auto algorithm :
       {Algorithm::kEg, Algorithm::kEgC, Algorithm::kEgBw}) {
    const GreedyOutcome outcome =
        place_with(algorithm, app, occupancy, objective);
    ASSERT_TRUE(outcome.feasible) << to_string(algorithm);
    if (!outcome.state.has_link_overcommit()) {
      EXPECT_TRUE(
          verify_placement(occupancy, app, outcome.state.assignment()).empty())
          << to_string(algorithm);
    }
  }
}

TEST(GreedyTest, EgCoLocatesTinyApp) {
  // With everything fitting one host and theta_bw dominating, EG should
  // end with zero reserved bandwidth.
  const auto datacenter = small_dc(2, 2);
  const dc::Occupancy occupancy(datacenter);
  const auto app = tiny_app();
  SearchConfig config;
  config.theta_bw = 0.99;
  config.theta_c = 0.01;
  const Objective objective(app, datacenter, config);
  const GreedyOutcome outcome =
      place_with(Algorithm::kEg, app, occupancy, objective);
  ASSERT_TRUE(outcome.feasible);
  EXPECT_DOUBLE_EQ(outcome.state.ubw(), 0.0);
  EXPECT_EQ(outcome.state.new_active_hosts(), 1);
}

TEST(GreedyTest, EgPrefersActiveHostsOnTies) {
  const auto datacenter = small_dc(2, 2);
  dc::Occupancy occupancy(datacenter);
  add_host_load(occupancy, 2, {1.0, 1.0, 0.0});  // host 2 already active
  const auto app = tiny_app();
  const Objective objective(app, datacenter, SearchConfig{});
  const GreedyOutcome outcome =
      place_with(Algorithm::kEg, app, occupancy, objective);
  ASSERT_TRUE(outcome.feasible);
  EXPECT_EQ(outcome.state.new_active_hosts(), 0);
  for (const auto host : outcome.state.assignment()) EXPECT_EQ(host, 2u);
}

TEST(GreedyTest, EgcBinPacksIgnoringPipes) {
  // EG_C picks the host with the least remaining compute: pre-loading host 1
  // makes it the best fit even when that splits a pipe.
  const auto datacenter = small_dc(2, 2);
  dc::Occupancy occupancy(datacenter);
  add_host_load(occupancy, 1, {4.0, 4.0, 0.0});  // 4 cores left
  const auto app = tiny_app();                  // db needs exactly 4
  const Objective objective(app, datacenter, SearchConfig{});
  const GreedyOutcome outcome =
      place_with(Algorithm::kEgC, app, occupancy, objective);
  ASSERT_TRUE(outcome.feasible);
  // db (first in EG order: heaviest) lands on host 1 (tightest fit).
  EXPECT_EQ(outcome.state.host_of(app.node_id("db")), 1u);
}

TEST(GreedyTest, EgbwMinimizesBandwidthOverHosts) {
  const auto datacenter = small_dc(2, 2);
  const dc::Occupancy occupancy(datacenter);
  const auto app = tiny_app();
  const Objective objective(app, datacenter, SearchConfig{});
  const GreedyOutcome outcome =
      place_with(Algorithm::kEgBw, app, occupancy, objective);
  ASSERT_TRUE(outcome.feasible);
  EXPECT_DOUBLE_EQ(outcome.state.ubw(), 0.0);  // all co-located
}

TEST(GreedyTest, InfeasibleReportsNodeName) {
  const auto datacenter = small_dc(1, 1);
  dc::Occupancy occupancy(datacenter);
  add_host_load(occupancy, 0, {5.0, 0.0, 0.0});  // 3 cores left: db needs 4
  const auto app = tiny_app();
  const Objective objective(app, datacenter, SearchConfig{});
  const GreedyOutcome outcome =
      place_with(Algorithm::kEg, app, occupancy, objective);
  EXPECT_FALSE(outcome.feasible);
  EXPECT_NE(outcome.failure.find("db"), std::string::npos);
}

TEST(GreedyTest, RunGreedyRejectsAStarVariants) {
  const auto datacenter = small_dc();
  const dc::Occupancy occupancy(datacenter);
  const auto app = tiny_app();
  const Objective objective(app, datacenter, SearchConfig{});
  PartialPlacement state(app, occupancy, objective);
  const auto order = eg_sort_order(app);
  EXPECT_THROW(
      (void)run_greedy(Algorithm::kBaStar, std::move(state), order, nullptr),
      std::invalid_argument);
}

TEST(GreedyTest, CompletesFromPartialState) {
  // RunEG semantics: pre-placed nodes are respected and skipped.
  const auto datacenter = small_dc(2, 2);
  const dc::Occupancy occupancy(datacenter);
  const auto app = tiny_app();
  const Objective objective(app, datacenter, SearchConfig{});
  PartialPlacement state(app, occupancy, objective);
  state.place(0, 3);  // pin web on the last host
  const GreedyOutcome outcome = run_greedy(Algorithm::kEg, std::move(state),
                                           eg_sort_order(app), nullptr);
  ASSERT_TRUE(outcome.feasible);
  EXPECT_EQ(outcome.state.host_of(0), 3u);
  EXPECT_TRUE(
      verify_placement(occupancy, app, outcome.state.assignment()).empty());
}

TEST(GreedyTest, ParallelAndSequentialEgAgree) {
  util::Rng rng(31337);
  util::ThreadPool pool(3);
  for (int trial = 0; trial < 10; ++trial) {
    const auto datacenter = small_dc(2, 3);
    const dc::Occupancy occupancy(datacenter);
    const auto app = random_app(rng, 6);
    const Objective objective(app, datacenter, SearchConfig{});
    const auto order = eg_sort_order(app);
    const GreedyOutcome seq = run_greedy(
        Algorithm::kEg, PartialPlacement(app, occupancy, objective), order,
        nullptr);
    const GreedyOutcome par = run_greedy(
        Algorithm::kEg, PartialPlacement(app, occupancy, objective), order,
        &pool);
    ASSERT_EQ(seq.feasible, par.feasible);
    if (seq.feasible) {
      EXPECT_EQ(seq.state.assignment(), par.state.assignment());
    }
  }
}

TEST(GreedyTest, DeterministicAcrossRuns) {
  util::Rng rng(555);
  const auto datacenter = small_dc(2, 3);
  const dc::Occupancy occupancy(datacenter);
  const auto app = random_app(rng, 7);
  const Objective objective(app, datacenter, SearchConfig{});
  const auto order = eg_sort_order(app);
  const GreedyOutcome a = run_greedy(
      Algorithm::kEg, PartialPlacement(app, occupancy, objective), order,
      nullptr);
  const GreedyOutcome b = run_greedy(
      Algorithm::kEg, PartialPlacement(app, occupancy, objective), order,
      nullptr);
  ASSERT_EQ(a.feasible, b.feasible);
  if (a.feasible) {
    EXPECT_EQ(a.state.assignment(), b.state.assignment());
  }
}

}  // namespace
}  // namespace ostro::core
