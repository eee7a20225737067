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
#include "datacenter/state_delta.h"
#include "helpers.h"
#include "sim/clusters.h"
#include "sim/workloads.h"
#include "util/rng.h"

namespace ostro::core {
namespace {

using ostro::testing::add_host_load;
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
      add_host_load(occupancy, h, {7.5, 15.0, 490.0});
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

/// BA* from the same state with labels on and off: identical outcome, and
/// the labelled search expands no more paths.  Returns the labelled run.
AStarOutcome expect_ba_matches_reference(const topo::AppTopology& app,
                                         const dc::Occupancy& occupancy,
                                         const Objective& objective,
                                         const SearchConfig& config,
                                         int trial) {
  AStarOutcome labeled = run_astar(
      PartialPlacement(app, occupancy, objective, /*use_prune_labels=*/true),
      config, false);
  const AStarOutcome reference = run_astar(
      PartialPlacement(app, occupancy, objective, /*use_prune_labels=*/false),
      config, false);
  expect_identical(labeled, reference, trial);
  EXPECT_LE(labeled.stats.paths_expanded, reference.stats.paths_expanded)
      << "trial " << trial;
  return labeled;
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
        order);
    const GreedyOutcome reference = run_greedy(
        Algorithm::kEg,
        PartialPlacement(app, occupancy, objective, /*use_prune_labels=*/false),
        order);
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
        config, false);
    const AStarOutcome reference = run_astar(
        PartialPlacement(app, occupancy, objective, /*use_prune_labels=*/false),
        config, false);
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
    // (estimate-ranked siblings, depth-first pops) is deterministic and the
    // two runs are comparable.
    config.deadline_seconds = 0.0;
    const Objective objective(app, datacenter, config);

    const AStarOutcome labeled = run_astar(
        PartialPlacement(app, occupancy, objective, /*use_prune_labels=*/true),
        config, true);
    const AStarOutcome reference = run_astar(
        PartialPlacement(app, occupancy, objective, /*use_prune_labels=*/false),
        config, true);
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
      }
      SearchConfig off_config = on_config;
      off_config.use_prune_labels = false;

      const Placement labeled = place_topology(
          occupancy, app, algorithm, on_config);
      const Placement reference = place_topology(
          occupancy, app, algorithm, off_config);
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
        add_host_load(occupancy, static_cast<dc::HostId>(h),
                      {7.5, 15.0, 490.0});
      }
    }
    const auto app = random_app(rng, 4, 0.5, /*with_zone=*/false);
    SearchConfig config;
    const Objective objective(app, datacenter, config);
    if (expect_ba_matches_reference(app, occupancy, objective, config, trial)
            .feasible) {
      ++feasible_trials;
    }
  }
  EXPECT_GT(feasible_trials, 3);

  // Figure-7 scale (150 racks x 16 hosts): every host is full except the
  // first host of every 15th rack, which keeps (5 vCPU, 10 GB, 300 GB) free.
  // That fits any single sim VM (at most 4 vCPUs) but not most pairs, so
  // the reference bound's co-location optimism is wrong on most edges and
  // the labels correct it to the cross-rack distance.  The labelled search
  // must finish inside the expansion budget that stops the reference one.
  SCOPED_TRACE("2400-host near-full fleet");
  const auto datacenter = sim::make_sim_datacenter(150, 16);
  dc::Occupancy occupancy(datacenter);
  dc::OccupancyDelta fill(occupancy);
  for (const dc::Rack& rack : datacenter.racks()) {
    for (std::size_t i = 0; i < rack.hosts.size(); ++i) {
      const dc::HostId h = rack.hosts[i];
      const topo::Resources free = occupancy.available(h);
      if (i == 0 && rack.id % 15 == 0) {
        fill.add_host_load(
            h, {free.vcpus - 5.0, free.mem_gb - 10.0, free.disk_gb - 300.0});
      } else {
        fill.add_host_load(h, free);
      }
    }
  }
  occupancy.apply_delta(fill);
  util::Rng app_rng(13);
  const auto app =
      sim::make_multitier(10, sim::RequirementMix::kHeterogeneous, app_rng);
  SearchConfig config;
  config.max_expansions = 3000;
  const Objective objective(app, datacenter, config);
  const AStarOutcome labeled =
      expect_ba_matches_reference(app, occupancy, objective, config, 15);
  EXPECT_TRUE(labeled.feasible);
  EXPECT_FALSE(labeled.stats.truncated);
}

}  // namespace
}  // namespace ostro::core
