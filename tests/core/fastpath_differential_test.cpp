// Differential tests for the hot-path accelerations: the hoisted estimate
// context and the precomputed topology tables must produce bit-identical
// results to the reference paths — identical assignments and identical
// objective values (exact double equality, not EXPECT_NEAR) — and the
// staged reservation transaction must leave the same Occupancy state as
// reserving every host load and link directly.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/astar.h"
#include "core/estimator.h"
#include "core/greedy.h"
#include "core/scheduler.h"
#include "net/reservation.h"
#include "helpers.h"
#include "util/rng.h"

namespace ostro::core {
namespace {

using ostro::testing::add_host_load;
using ostro::testing::random_app;
using ostro::testing::reserve_link;
using ostro::testing::small_dc;
using ostro::testing::tiny_app;
using ostro::testing::two_site_dc;

PartialPlacement initial_state(const topo::AppTopology& app,
                               const dc::Occupancy& occupancy,
                               const Objective& objective) {
  return {app, occupancy, objective};
}

/// Exact (bitwise) outcome comparison: feasibility, assignment, committed
/// utility and u_bw must all match between the fast and the reference path.
void expect_identical(const GreedyOutcome& fast, const GreedyOutcome& ref,
                      int trial) {
  ASSERT_EQ(fast.feasible, ref.feasible) << "trial " << trial;
  if (!ref.feasible) return;
  EXPECT_EQ(fast.state.assignment(), ref.state.assignment())
      << "trial " << trial;
  EXPECT_EQ(fast.state.utility_committed(), ref.state.utility_committed())
      << "trial " << trial;
  EXPECT_EQ(fast.state.ubw(), ref.state.ubw()) << "trial " << trial;
}

void expect_identical(const AStarOutcome& fast, const AStarOutcome& ref,
                      int trial) {
  ASSERT_EQ(fast.feasible, ref.feasible) << "trial " << trial;
  if (!ref.feasible) return;
  EXPECT_EQ(fast.state.assignment(), ref.state.assignment())
      << "trial " << trial;
  EXPECT_EQ(fast.state.utility_committed(), ref.state.utility_committed())
      << "trial " << trial;
  EXPECT_EQ(fast.state.ubw(), ref.state.ubw()) << "trial " << trial;
}

TEST(FastPathDifferentialTest, CandidateEstimateMatchesContextExactly) {
  util::Rng rng(4711);
  for (int trial = 0; trial < 15; ++trial) {
    const auto datacenter =
        trial % 2 == 0 ? small_dc(2, 3) : two_site_dc(2, 2);
    const dc::Occupancy occupancy(datacenter);
    const auto app = random_app(rng, 6);
    SearchConfig config;
    const Objective objective(app, datacenter, config);
    PartialPlacement state = initial_state(app, occupancy, objective);

    // Place a random prefix so the context sees placed neighbors, open
    // pipes, and partially placed zones.
    const auto placed_count =
        static_cast<std::size_t>(rng.uniform_int(0, 4));
    for (std::size_t i = 0; i < placed_count; ++i) {
      const auto node = static_cast<topo::NodeId>(i);
      const auto host = static_cast<dc::HostId>(rng.uniform_int(
          0, static_cast<int>(datacenter.host_count()) - 1));
      if (state.can_place(node, host)) state.place(node, host);
    }

    EstimateScratch scratch;
    for (topo::NodeId node = 0; node < app.node_count(); ++node) {
      if (state.is_placed(node)) continue;
      const double rest = Estimator::rest_bound(state, node);
      const NodeEstimateContext context(state, node, rest);
      for (dc::HostId host = 0; host < datacenter.host_count(); ++host) {
        const Estimate reference =
            Estimator::candidate_estimate(state, node, host, rest);
        const Estimate fast = context.estimate(host, scratch);
        EXPECT_EQ(fast.ubw, reference.ubw)
            << "trial " << trial << " node " << node << " host " << host;
        EXPECT_EQ(fast.uc, reference.uc)
            << "trial " << trial << " node " << node << " host " << host;
      }
    }
  }
}

TEST(FastPathDifferentialTest, GreedyEgMatchesReferencePath) {
  util::Rng rng(8001);
  for (int trial = 0; trial < 25; ++trial) {
    const auto datacenter =
        trial % 2 == 0 ? small_dc(3, 3) : two_site_dc(2, 3);
    const dc::Occupancy occupancy(datacenter);
    const auto app = random_app(rng, 7);
    SearchConfig config;
    const Objective objective(app, datacenter, config);
    const auto order = eg_sort_order(app);

    const GreedyOutcome reference =
        run_greedy(Algorithm::kEg, initial_state(app, occupancy, objective),
                   order, /*use_estimate_context=*/false);
    const GreedyOutcome fast =
        run_greedy(Algorithm::kEg, initial_state(app, occupancy, objective),
                   order, /*use_estimate_context=*/true);
    expect_identical(fast, reference, trial);
  }
}

TEST(FastPathDifferentialTest, BaStarMatchesReferencePath) {
  util::Rng rng(8002);
  for (int trial = 0; trial < 12; ++trial) {
    const auto datacenter = small_dc(2, 2);
    const dc::Occupancy occupancy(datacenter);
    const auto app = random_app(rng, 5);
    SearchConfig fast_config;
    fast_config.use_estimate_context = true;
    SearchConfig ref_config = fast_config;
    ref_config.use_estimate_context = false;
    const Objective objective(app, datacenter, fast_config);

    const AStarOutcome fast = run_astar(
        initial_state(app, occupancy, objective), fast_config, false);
    const AStarOutcome reference = run_astar(
        initial_state(app, occupancy, objective), ref_config, false);
    expect_identical(fast, reference, trial);
  }
}

TEST(FastPathDifferentialTest, DeadlineBoundedAStarMatchesReferencePath) {
  util::Rng rng(8003);
  for (int trial = 0; trial < 12; ++trial) {
    const auto datacenter = trial % 2 == 0 ? small_dc(2, 2) : two_site_dc(1, 2);
    const dc::Occupancy occupancy(datacenter);
    const auto app = random_app(rng, 5);
    SearchConfig fast_config;
    // deadline_seconds == 0 disables the deadline: no prune pressure, so
    // DBA* is deterministic and the two runs are comparable.  DBA*'s
    // estimate-ranked siblings exercise the context in the expansion fan.
    fast_config.deadline_seconds = 0.0;
    fast_config.use_estimate_context = true;
    SearchConfig ref_config = fast_config;
    ref_config.use_estimate_context = false;
    const Objective objective(app, datacenter, fast_config);

    const AStarOutcome fast = run_astar(
        initial_state(app, occupancy, objective), fast_config, true);
    const AStarOutcome reference = run_astar(
        initial_state(app, occupancy, objective), ref_config, true);
    expect_identical(fast, reference, trial);
  }
}

TEST(FastPathDifferentialTest, StagedTransactionMatchesDirectMode) {
  util::Rng rng(8004);
  int committed = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const auto datacenter =
        trial % 2 == 0 ? small_dc(2, 3) : two_site_dc(2, 2);
    dc::Occupancy staged_occupancy(datacenter);
    dc::Occupancy direct_occupancy(datacenter);
    const auto app = random_app(rng, 6);
    SearchConfig config;
    const Objective objective(app, datacenter, config);
    const GreedyOutcome outcome = run_greedy(
        Algorithm::kEg, initial_state(app, staged_occupancy, objective),
        eg_sort_order(app));
    if (!outcome.feasible) continue;
    ++committed;

    const net::Assignment& assignment = outcome.state.assignment();
    net::commit_placement(staged_occupancy, app, assignment);

    // The same reservations made op by op on the occupancy itself.
    for (const auto& node : app.nodes()) {
      add_host_load(direct_occupancy, assignment[node.id], node.requirements);
    }
    for (const auto& edge : app.edges()) {
      for (const dc::LinkId link :
           datacenter.path_between(assignment[edge.a], assignment[edge.b])) {
        reserve_link(direct_occupancy, link, edge.bandwidth_mbps);
      }
    }

    EXPECT_TRUE(staged_occupancy == direct_occupancy) << "trial " << trial;
  }
  EXPECT_GT(committed, 10);
}

TEST(FastPathDifferentialTest, FailedStagedApplyLeavesOccupancyPristine) {
  const auto datacenter = small_dc(1, 2);
  dc::Occupancy occupancy(datacenter);
  dc::Occupancy pristine = occupancy;
  const auto app = tiny_app();

  // Pile every node onto host 0 repeatedly until bandwidth or compute must
  // give out; the failing commit must cause zero base churn.
  net::Assignment overload(app.node_count(), 0);
  bool threw = false;
  for (int round = 0; round < 50 && !threw; ++round) {
    pristine = occupancy;
    try {
      net::commit_placement(occupancy, app, overload);
    } catch (const std::invalid_argument&) {
      threw = true;
    }
  }
  ASSERT_TRUE(threw);
  EXPECT_TRUE(occupancy == pristine);
}

}  // namespace
}  // namespace ostro::core
