// Differential tests for the precomputed prune labels (DESIGN.md section
// 12): with SearchConfig::use_prune_labels on, the tightened admissible
// bounds and subtree tag pruning must produce bit-identical final results
// to the reference heuristic — identical assignments, identical objective
// values (exact double equality), identical reserved bandwidth — while
// never expanding more BA* paths than the reference.  The sweeps cover
// empty and near-full data centers: labels only fire once capacity drains,
// so the loaded scenarios are where a soundness bug would surface as a
// wrongly pruned optimum.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/astar.h"
#include "core/greedy.h"
#include "core/scheduler.h"
#include "helpers.h"
#include "util/rng.h"

namespace ostro::core {
namespace {

using ostro::testing::random_app;
using ostro::testing::small_dc;
using ostro::testing::two_site_dc;

/// Consumes most of a few hosts so the base feasibility counts drop below
/// the multi-feasible thresholds and the label ladder has something to
/// escalate.  Host capacity in the fixtures is (8, 16, 500).
void drain_hosts(dc::Occupancy& occupancy, util::Rng& rng, int count) {
  const auto hosts = static_cast<int>(occupancy.datacenter().host_count());
  for (int i = 0; i < count; ++i) {
    const auto h = static_cast<dc::HostId>(rng.uniform_int(0, hosts - 1));
    const topo::Resources free = occupancy.available(h);
    if (free.vcpus > 7.5) {
      occupancy.add_host_load(h, {7.5, 15.0, 490.0});
    }
  }
}

void expect_identical(const GreedyOutcome& labeled, const GreedyOutcome& ref,
                      int trial) {
  ASSERT_EQ(labeled.feasible, ref.feasible) << "trial " << trial;
  if (!ref.feasible) return;
  EXPECT_EQ(labeled.state.assignment(), ref.state.assignment())
      << "trial " << trial;
  EXPECT_EQ(labeled.state.utility_committed(), ref.state.utility_committed())
      << "trial " << trial;
  EXPECT_EQ(labeled.state.ubw(), ref.state.ubw()) << "trial " << trial;
}

void expect_identical(const AStarOutcome& labeled, const AStarOutcome& ref,
                      int trial) {
  ASSERT_EQ(labeled.feasible, ref.feasible) << "trial " << trial;
  if (!ref.feasible) return;
  EXPECT_EQ(labeled.state.assignment(), ref.state.assignment())
      << "trial " << trial;
  EXPECT_EQ(labeled.state.utility_committed(), ref.state.utility_committed())
      << "trial " << trial;
  EXPECT_EQ(labeled.state.ubw(), ref.state.ubw()) << "trial " << trial;
}

TEST(LabelsDifferentialTest, EgMatchesReferenceBounds) {
  // The labels enter EG only through Estimator::rest_bound, which shifts
  // every candidate of a node by the same constant — the argmin, and thus
  // the whole greedy trajectory, must be exactly preserved.
  util::Rng rng(12001);
  for (int trial = 0; trial < 25; ++trial) {
    const auto datacenter =
        trial % 2 == 0 ? small_dc(3, 3) : two_site_dc(2, 2);
    dc::Occupancy occupancy(datacenter);
    if (trial % 3 == 0) drain_hosts(occupancy, rng, 3);
    const auto app = random_app(rng, 6);
    SearchConfig config;
    const Objective objective(app, datacenter, config);
    const auto order = eg_sort_order(app);

    const GreedyOutcome labeled = run_greedy(
        Algorithm::kEg,
        PartialPlacement(app, occupancy, objective, /*use_prune_labels=*/true),
        order, nullptr);
    const GreedyOutcome reference = run_greedy(
        Algorithm::kEg,
        PartialPlacement(app, occupancy, objective, /*use_prune_labels=*/false),
        order, nullptr);
    expect_identical(labeled, reference, trial);
  }
}

TEST(LabelsDifferentialTest, BaStarMatchesReferenceAndNeverExpandsMore) {
  util::Rng rng(12002);
  std::uint64_t expanded_on = 0;
  std::uint64_t expanded_off = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const auto datacenter =
        trial % 2 == 0 ? small_dc(2, 3) : two_site_dc(2, 2);
    dc::Occupancy occupancy(datacenter);
    if (trial % 2 == 1) drain_hosts(occupancy, rng, 2);
    const auto app = random_app(rng, 6);
    SearchConfig config;
    const Objective objective(app, datacenter, config);

    const AStarOutcome labeled = run_astar(
        PartialPlacement(app, occupancy, objective, /*use_prune_labels=*/true),
        config, false, nullptr);
    const AStarOutcome reference = run_astar(
        PartialPlacement(app, occupancy, objective, /*use_prune_labels=*/false),
        config, false, nullptr);
    expect_identical(labeled, reference, trial);
    expanded_on += labeled.stats.paths_expanded;
    expanded_off += reference.stats.paths_expanded;
  }
  // A tighter admissible bound can only prune harder.  Aggregated across
  // the sweep to be robust against per-trial tie-break noise.
  EXPECT_LE(expanded_on, expanded_off);
}

TEST(LabelsDifferentialTest, DbaStarMatchesReference) {
  util::Rng rng(12003);
  for (int trial = 0; trial < 15; ++trial) {
    const auto datacenter =
        trial % 2 == 0 ? small_dc(2, 2) : two_site_dc(1, 3);
    dc::Occupancy occupancy(datacenter);
    if (trial % 2 == 0) drain_hosts(occupancy, rng, 1);
    const auto app = random_app(rng, 5);
    SearchConfig config;
    // deadline_seconds == 0 disables the probabilistic pruning, so DBA*
    // (sharp sibling ordering, depth-first pops) is deterministic and the
    // two runs are comparable.
    config.deadline_seconds = 0.0;
    config.greedy_estimate_in_astar = true;
    const Objective objective(app, datacenter, config);

    const AStarOutcome labeled = run_astar(
        PartialPlacement(app, occupancy, objective, /*use_prune_labels=*/true),
        config, true, nullptr);
    const AStarOutcome reference = run_astar(
        PartialPlacement(app, occupancy, objective, /*use_prune_labels=*/false),
        config, true, nullptr);
    expect_identical(labeled, reference, trial);
  }
}

TEST(LabelsDifferentialTest, SchedulerFlagMatrixMatches) {
  // End to end through place_topology: the config knob must reach the
  // search state for every algorithm, and flipping it must not change any
  // observable placement output.
  util::Rng rng(12005);
  const Algorithm algorithms[] = {Algorithm::kEg, Algorithm::kBaStar,
                                  Algorithm::kDbaStar};
  for (int trial = 0; trial < 12; ++trial) {
    const auto datacenter =
        trial % 2 == 0 ? small_dc(2, 3) : two_site_dc(2, 2);
    dc::Occupancy occupancy(datacenter);
    if (trial % 2 == 1) drain_hosts(occupancy, rng, 2);
    const auto app = random_app(rng, 5);
    for (const Algorithm algorithm : algorithms) {
      SearchConfig on_config;
      on_config.use_prune_labels = true;
      if (algorithm == Algorithm::kDbaStar) {
        on_config.deadline_seconds = 0.0;
        on_config.greedy_estimate_in_astar = true;
      }
      SearchConfig off_config = on_config;
      off_config.use_prune_labels = false;

      const Placement labeled = place_topology(
          occupancy, app, algorithm, on_config, nullptr, nullptr, nullptr);
      const Placement reference = place_topology(
          occupancy, app, algorithm, off_config, nullptr, nullptr, nullptr);
      ASSERT_EQ(labeled.feasible, reference.feasible)
          << "trial " << trial << " algorithm " << static_cast<int>(algorithm);
      if (!reference.feasible) continue;
      EXPECT_EQ(labeled.assignment, reference.assignment)
          << "trial " << trial << " algorithm " << static_cast<int>(algorithm);
      EXPECT_EQ(labeled.utility, reference.utility)
          << "trial " << trial << " algorithm " << static_cast<int>(algorithm);
      EXPECT_EQ(labeled.reserved_bandwidth_mbps,
                reference.reserved_bandwidth_mbps)
          << "trial " << trial << " algorithm " << static_cast<int>(algorithm);
    }
  }
}

TEST(LabelsDifferentialTest, NearFullDcStillMatchesReference) {
  // Drain almost the entire fleet: this is the regime where every label
  // family (separation ladder, host climb, co-location escalate) fires on
  // most edges, and where an unsound tightening would prune the only
  // remaining completion.
  util::Rng rng(12006);
  int feasible_trials = 0;
  for (int trial = 0; trial < 15; ++trial) {
    const auto datacenter = small_dc(3, 3);
    dc::Occupancy occupancy(datacenter);
    // Leave roughly two hosts untouched so some placements stay feasible.
    const auto hosts = static_cast<int>(datacenter.host_count());
    for (int h = 0; h + 2 < hosts; ++h) {
      if (rng.chance(0.8)) {
        occupancy.add_host_load(static_cast<dc::HostId>(h),
                                {7.5, 15.0, 490.0});
      }
    }
    const auto app = random_app(rng, 4, 0.5, /*with_zone=*/false);
    SearchConfig config;
    const Objective objective(app, datacenter, config);

    const AStarOutcome labeled = run_astar(
        PartialPlacement(app, occupancy, objective, /*use_prune_labels=*/true),
        config, false, nullptr);
    const AStarOutcome reference = run_astar(
        PartialPlacement(app, occupancy, objective, /*use_prune_labels=*/false),
        config, false, nullptr);
    expect_identical(labeled, reference, trial);
    EXPECT_LE(labeled.stats.paths_expanded, reference.stats.paths_expanded)
        << "trial " << trial;
    if (reference.feasible) ++feasible_trials;
  }
  EXPECT_GT(feasible_trials, 3);
}

}  // namespace
}  // namespace ostro::core
