// Golden fixtures for BA*/DBA*: on fixed seeds and scenarios, every run must
// reproduce the recorded feasibility, assignment and SearchStats work
// counters exactly, and the recorded utility within 1e-12.  The counters
// are pop-order sensitive (open_queue_peak, paths_deduped, heuristic_calls
// diverge on the first expansion that differs), so these fixtures pin the
// whole search trajectory, not just its answer.  BA* optimality itself is
// covered by the brute-force tests; this suite guards against any change
// to how the search explores.
//
// The fixtures were recorded with the search as it stood when the pooled
// arena core was retired, which the differential suite of that time proved
// bit-identical to the std-container core that remains.  A deliberate
// behaviour change re-records them: a mismatching suite prints every run
// in fixture syntax.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/astar.h"
#include "core/scheduler.h"
#include "helpers.h"
#include "util/rng.h"

namespace ostro::core {
namespace {

using ostro::testing::random_app;
using ostro::testing::small_dc;
using ostro::testing::two_site_dc;

/// One recorded search run.  `counters` holds, in order: paths_expanded,
/// paths_generated, paths_pruned_bound, paths_pruned_random, paths_deduped,
/// symmetry_pruned, open_queue_peak, max_depth, eg_reruns, heuristic_calls,
/// truncated, budget_retries.
struct GoldenRun {
  bool feasible = false;
  std::vector<dc::HostId> assignment;
  double utility = 0.0;  ///< compared only for feasible runs
  std::array<std::uint64_t, 12> counters{};
};

std::array<std::uint64_t, 12> counters_of(const SearchStats& s) {
  return {s.paths_expanded,     s.paths_generated, s.paths_pruned_bound,
          s.paths_pruned_random, s.paths_deduped,  s.symmetry_pruned,
          s.open_queue_peak,    s.max_depth,       s.eg_reruns,
          s.heuristic_calls,    s.truncated ? 1u : 0u,
          s.budget_retries};
}

GoldenRun golden_of(const AStarOutcome& outcome) {
  return {outcome.feasible, outcome.state.assignment(),
          outcome.feasible ? outcome.state.utility_committed() : 0.0,
          counters_of(outcome.stats)};
}

GoldenRun golden_of(const Placement& placement) {
  return {placement.feasible, placement.assignment,
          placement.feasible ? placement.utility : 0.0,
          counters_of(placement.stats)};
}

/// Unplaced node in a fixture assignment.
constexpr dc::HostId kNone = dc::kInvalidHost;

/// Fixture syntax of one run (what a re-recording pastes back).
std::string format(const GoldenRun& run) {
  std::string out = run.feasible ? "{true, {" : "{false, {";
  for (std::size_t i = 0; i < run.assignment.size(); ++i) {
    if (i > 0) out += ", ";
    out += run.assignment[i] == kNone ? "kNone"
                                      : std::to_string(run.assignment[i]);
  }
  char utility[32];
  std::snprintf(utility, sizeof utility, "%.17g", run.utility);
  out += "}, ";
  out += utility;
  out += ",\n {";
  for (std::size_t i = 0; i < run.counters.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(run.counters[i]);
  }
  return out + "}},";
}

std::string dump(const std::vector<GoldenRun>& runs) {
  std::string out;
  for (const GoldenRun& run : runs) out += format(run) + "\n";
  return out;
}

void expect_golden(const std::vector<GoldenRun>& actual,
                   const std::vector<GoldenRun>& expected) {
  ASSERT_EQ(actual.size(), expected.size()) << dump(actual);
  bool all_match = true;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const GoldenRun& got = actual[i];
    const GoldenRun& want = expected[i];
    const bool match =
        got.feasible == want.feasible && got.assignment == want.assignment &&
        got.counters == want.counters &&
        (!want.feasible || std::abs(got.utility - want.utility) <= 1e-12);
    EXPECT_TRUE(match) << "trial " << i << ": got\n"
                       << format(got) << "\nwant\n"
                       << format(want);
    all_match = all_match && match;
  }
  if (!all_match) ADD_FAILURE() << "re-recorded fixtures:\n" << dump(actual);
}

/// Consumes most of a few hosts so the prune labels have something to
/// escalate (fixture hosts are (8, 16, 500)).
void drain_hosts(dc::Occupancy& occupancy, util::Rng& rng, int count) {
  const auto hosts = static_cast<int>(occupancy.datacenter().host_count());
  for (int i = 0; i < count; ++i) {
    const auto h = static_cast<dc::HostId>(rng.uniform_int(0, hosts - 1));
    if (occupancy.available(h).vcpus > 7.5) {
      occupancy.add_host_load(h, {7.5, 15.0, 490.0});
    }
  }
}

// ---- scenarios -----------------------------------------------------------

std::vector<GoldenRun> ba_star_runs() {
  util::Rng rng(9001);
  std::vector<GoldenRun> runs;
  for (int trial = 0; trial < 20; ++trial) {
    const auto datacenter =
        trial % 2 == 0 ? small_dc(2, 3) : two_site_dc(2, 2);
    const dc::Occupancy occupancy(datacenter);
    const auto app = random_app(rng, 6);
    const SearchConfig config;
    const Objective objective(app, datacenter, config);
    runs.push_back(golden_of(run_astar(
        PartialPlacement(app, occupancy, objective), config, false,
        nullptr)));
  }
  return runs;
}

std::vector<GoldenRun> dba_star_runs() {
  util::Rng rng(9002);
  std::vector<GoldenRun> runs;
  for (int trial = 0; trial < 20; ++trial) {
    const auto datacenter =
        trial % 2 == 0 ? small_dc(2, 2) : two_site_dc(1, 3);
    const dc::Occupancy occupancy(datacenter);
    const auto app = random_app(rng, 6);
    SearchConfig config;
    // deadline_seconds == 0 disables the prune pressure, so DBA* (sharp
    // ordering, beam, depth-first pops) is deterministic.
    config.deadline_seconds = 0.0;
    config.greedy_estimate_in_astar = true;
    const Objective objective(app, datacenter, config);
    runs.push_back(golden_of(run_astar(
        PartialPlacement(app, occupancy, objective), config, true,
        nullptr)));
  }
  return runs;
}

std::vector<GoldenRun> pinned_prefix_runs() {
  // A placed prefix makes the root a non-empty state, so the search starts
  // from accumulated deltas instead of the empty placement.
  util::Rng rng(9003);
  std::vector<GoldenRun> runs;
  for (int trial = 0; trial < 15; ++trial) {
    const auto datacenter = small_dc(2, 3);
    const dc::Occupancy occupancy(datacenter);
    const auto app = random_app(rng, 6);
    const SearchConfig config;
    const Objective objective(app, datacenter, config);
    PartialPlacement initial(app, occupancy, objective);
    const auto prefix = static_cast<std::size_t>(rng.uniform_int(1, 3));
    for (std::size_t i = 0; i < prefix && i < app.node_count(); ++i) {
      const auto node = static_cast<topo::NodeId>(i);
      const auto host = static_cast<dc::HostId>(rng.uniform_int(
          0, static_cast<int>(datacenter.host_count()) - 1));
      if (initial.can_place(node, host)) initial.place(node, host);
    }
    runs.push_back(golden_of(run_astar(initial, config, false, nullptr)));
  }
  return runs;
}

std::vector<GoldenRun> auto_budget_runs() {
  // Through the scheduler with budget_mode=kAuto, so the valve/retry ladder
  // runs over the search's stats.  A fresh scheduler per run keeps the
  // BudgetController's warm-start history out of the comparison.
  util::Rng rng(9004);
  std::vector<GoldenRun> runs;
  for (int trial = 0; trial < 8; ++trial) {
    const auto datacenter =
        trial % 2 == 0 ? small_dc(2, 3) : two_site_dc(2, 2);
    const auto app = random_app(rng, 6);
    SearchConfig config;
    config.budget_mode = BudgetMode::kAuto;
    const OstroScheduler scheduler(datacenter, config);
    runs.push_back(golden_of(scheduler.plan(app, Algorithm::kBaStar)));
  }
  return runs;
}

std::vector<GoldenRun> random_topology_runs() {
  // Alternating fleet shapes, app sizes, estimate paths and algorithms.
  util::Rng rng(9005);
  std::vector<GoldenRun> runs;
  for (int trial = 0; trial < 30; ++trial) {
    const auto datacenter = trial % 3 == 0   ? small_dc(2, 2)
                            : trial % 3 == 1 ? small_dc(3, 2)
                                             : two_site_dc(1, 2);
    const dc::Occupancy occupancy(datacenter);
    const auto app = random_app(rng, 4 + trial % 4);
    SearchConfig config;
    config.use_estimate_context = trial % 2 == 0;
    const Objective objective(app, datacenter, config);
    const bool dba = trial % 5 == 0;
    if (dba) {
      config.deadline_seconds = 0.0;
      config.greedy_estimate_in_astar = true;
    }
    runs.push_back(golden_of(run_astar(
        PartialPlacement(app, occupancy, objective), config, dba,
        nullptr)));
  }
  return runs;
}

std::vector<GoldenRun> prune_label_runs() {
  // Labels on, over empty and partly drained fleets.
  util::Rng rng(12004);
  std::vector<GoldenRun> runs;
  for (int trial = 0; trial < 15; ++trial) {
    const auto datacenter =
        trial % 2 == 0 ? small_dc(2, 3) : two_site_dc(2, 2);
    dc::Occupancy occupancy(datacenter);
    if (trial % 3 == 1) drain_hosts(occupancy, rng, 2);
    const auto app = random_app(rng, 6);
    const SearchConfig config;
    const Objective objective(app, datacenter, config);
    runs.push_back(golden_of(run_astar(
        PartialPlacement(app, occupancy, objective, /*use_prune_labels=*/true),
        config, false, nullptr)));
  }
  return runs;
}

std::vector<GoldenRun> expansion_budget_runs() {
  const auto datacenter = small_dc(2, 3);
  const dc::Occupancy occupancy(datacenter);
  util::Rng rng(11);
  const auto app = random_app(rng, 6);
  SearchConfig config;
  config.max_expansions = 2;
  const Objective objective(app, datacenter, config);
  return {golden_of(run_astar(PartialPlacement(app, occupancy, objective),
                              config, false, nullptr))};
}

// ---- fixtures ------------------------------------------------------------

const std::vector<GoldenRun> kBaStarGolden = {
    {true, {0, 1, 1, 0, 2, 0}, 0.291304347826087,
     {11, 12, 19, 0, 0, 27, 4, 4, 5, 107, 0, 0}},
    {true, {1, 1, 0, 1, 0, 0}, 0.16761904761904761,
     {9, 12, 28, 0, 0, 33, 5, 3, 4, 133, 0, 0}},
    {true, {0, 1, 1, 1, 1, 0}, 0.17424242424242425,
     {5, 11, 5, 0, 0, 15, 7, 3, 4, 98, 0, 0}},
    {true, {1, 1, 1, 0, 0, 0}, 0.18476190476190477,
     {9, 12, 23, 0, 0, 36, 5, 5, 6, 162, 0, 0}},
    {true, {0, 0, 0, 0, 0, 1}, 0.20000000000000001,
     {3, 3, 4, 0, 0, 11, 1, 2, 3, 87, 0, 0}},
    {true, {0, 0, 0, 1, 0, 1}, 0.13850574712643679,
     {18, 21, 66, 0, 0, 60, 6, 4, 5, 152, 0, 0}},
    {true, {1, 0, 0, 0, 1, 1}, 0.22083333333333333,
     {8, 9, 17, 0, 0, 21, 3, 4, 5, 108, 0, 0}},
    {true, {2, 2, 1, 0, 0, 3}, 0.41014492753623188,
     {12, 12, 32, 0, 0, 37, 6, 4, 5, 140, 0, 0}},
    {true, {2, 0, 4, 3, 1, 1}, 0.60933333333333328,
     {24, 38, 15, 0, 0, 35, 22, 5, 6, 79, 0, 0}},
    {true, {2, 1, 3, 1, 1, 0}, 0.38854166666666667,
     {25, 25, 72, 0, 0, 67, 14, 5, 6, 145, 0, 0}},
    {true, {3, 0, 1, 3, 0, 2}, 0.47666666666666668,
     {35, 50, 44, 0, 0, 62, 23, 5, 6, 96, 0, 0}},
    {true, {0, 1, 0, 0, 1, 0}, 0.18154761904761904,
     {19, 30, 52, 0, 0, 72, 14, 5, 6, 157, 0, 0}},
    {true, {2, 0, 1, 1, 2, 0}, 0.38181818181818183,
     {12, 16, 16, 0, 0, 29, 7, 5, 6, 97, 0, 0}},
    {true, {0, 3, 1, 2, 2, 0}, 0.38030303030303031,
     {39, 51, 84, 0, 0, 113, 22, 5, 6, 139, 0, 0}},
    {true, {3, 4, 0, 0, 1, 2}, 0.64190476190476187,
     {46, 58, 29, 0, 0, 57, 25, 5, 6, 76, 0, 0}},
    {true, {1, 0, 0, 1, 1, 0}, 0.16333333333333333,
     {4, 4, 9, 0, 0, 19, 1, 3, 4, 132, 0, 0}},
    {true, {0, 0, 0, 1, 1, 0}, 0.20833333333333331,
     {7, 7, 14, 0, 0, 21, 2, 4, 5, 110, 0, 0}},
    {true, {0, 0, 1, 1, 0, 1}, 0.17471264367816092,
     {16, 19, 51, 0, 0, 61, 6, 5, 6, 165, 0, 0}},
    {true, {3, 0, 2, 1, 0, 2}, 0.48095238095238091,
     {9, 9, 12, 0, 0, 20, 4, 4, 5, 97, 0, 0}},
    {true, {1, 0, 3, 2, 0, 0}, 0.4303030303030303,
     {22, 23, 39, 0, 0, 72, 12, 4, 5, 134, 0, 0}},
};

const std::vector<GoldenRun> kDbaStarGolden = {
    {true, {2, 1, 0, 0, 1, 1}, 0.25769230769230772,
     {12, 13, 18, 0, 0, 10, 5, 5, 6, 80, 0, 0}},
    {true, {0, 0, 1, 1, 1, 0}, 0.18106060606060606,
     {3, 3, 4, 0, 0, 11, 1, 2, 3, 83, 0, 0}},
    {false, {kNone, kNone, kNone, kNone, kNone, kNone}, 0,
     {10, 10, 0, 0, 0, 5, 2, 4, 5, 29, 0, 0}},
    {true, {1, 0, 0, 1, 0, 1}, 0.17948717948717949,
     {14, 16, 35, 0, 0, 35, 4, 5, 6, 131, 0, 0}},
    {true, {0, 0, 0, 0, 0, 1}, 0.19333333333333333,
     {11, 11, 22, 0, 0, 11, 3, 5, 6, 88, 0, 0}},
    {true, {4, 2, 3, 0, 1, 0}, 0.55151515151515151,
     {42, 45, 37, 0, 0, 53, 5, 5, 6, 120, 0, 0}},
    {false, {kNone, kNone, kNone, kNone, kNone, kNone}, 0,
     {36, 36, 0, 0, 0, 8, 5, 5, 6, 69, 0, 0}},
    {true, {0, 0, 3, 0, 1, 2}, 0.37916666666666665,
     {34, 34, 37, 0, 0, 71, 6, 5, 6, 127, 0, 0}},
    {true, {1, 0, 0, 2, 0, 0}, 0.24736842105263163,
     {10, 12, 15, 0, 0, 9, 3, 5, 6, 76, 0, 0}},
    {true, {0, 0, 1, 0, 1, 1}, 0.19583333333333333,
     {12, 15, 27, 0, 0, 30, 4, 5, 6, 125, 0, 0}},
    {true, {0, 0, 2, 2, 3, 0}, 0.32500000000000007,
     {20, 23, 29, 0, 0, 11, 5, 5, 6, 86, 0, 0}},
    {true, {1, 0, 0, 1, 0, 0}, 0.13958333333333334,
     {3, 3, 4, 0, 0, 11, 1, 2, 3, 86, 0, 0}},
    {true, {1, 1, 1, 0, 0, 0}, 0.25641025641025639,
     {12, 17, 23, 0, 0, 13, 4, 5, 6, 89, 0, 0}},
    {true, {0, 0, 0, 1, 1, 1}, 0.15333333333333332,
     {13, 17, 29, 0, 0, 32, 4, 5, 6, 130, 0, 0}},
    {false, {kNone, kNone, kNone, kNone, kNone, kNone}, 0,
     {36, 36, 0, 0, 0, 8, 4, 5, 6, 69, 0, 0}},
    {true, {1, 1, 0, 1, 1, 0}, 0.17572463768115942,
     {12, 15, 29, 0, 0, 30, 5, 5, 6, 127, 0, 0}},
    {true, {1, 1, 0, 0, 0, 0}, 0.26190476190476186,
     {22, 24, 42, 0, 0, 19, 7, 5, 6, 98, 0, 0}},
    {true, {0, 3, 2, 1, 1, 0}, 0.36845238095238098,
     {40, 44, 44, 0, 0, 78, 7, 5, 6, 137, 0, 0}},
    {true, {1, 0, 1, 0, 1, 0}, 0.23010752688172043,
     {19, 26, 40, 0, 0, 14, 7, 5, 6, 100, 0, 0}},
    {true, {0, 1, 1, 1, 0, 0}, 0.19149659863945578,
     {20, 31, 43, 0, 0, 46, 8, 5, 6, 139, 0, 0}},
};

const std::vector<GoldenRun> kPinnedPrefixGolden = {
    {true, {5, 1, 5, 3, 5, 5}, 0.38157894736842113,
     {6, 6, 16, 0, 0, 10, 4, 2, 3, 47, 0, 0}},
    {true, {5, 5, 5, 3, 0, 4}, 0.58666666666666667,
     {8, 10, 9, 0, 0, 13, 4, 3, 4, 46, 0, 0}},
    {true, {0, 2, 4, 4, 4, 2}, 0.30434782608695654,
     {0, 1, 0, 0, 0, 0, 1, 0, 1, 18, 0, 0}},
    {true, {2, 1, 1, 2, 2, 1}, 0.15208333333333332,
     {2, 3, 7, 0, 0, 4, 1, 1, 2, 38, 0, 0}},
    {true, {5, 5, 5, 3, 3, 5}, 0.15833333333333333,
     {7, 8, 15, 0, 0, 17, 2, 4, 5, 82, 0, 0}},
    {true, {0, 2, 0, 2, 1, 2}, 0.41136363636363638,
     {5, 5, 10, 0, 0, 10, 2, 2, 3, 28, 0, 0}},
    {true, {3, 3, 5, 3, 4, 4}, 0.27500000000000002,
     {15, 19, 31, 0, 0, 29, 11, 4, 5, 79, 0, 0}},
    {true, {5, 1, 0, 1, 0, 0}, 0.36923076923076925,
     {14, 16, 47, 0, 0, 20, 9, 3, 4, 60, 0, 0}},
    {true, {5, 5, 3, 5, 3, 3}, 0.26781609195402301,
     {4, 6, 9, 0, 0, 9, 3, 3, 4, 57, 0, 0}},
    {true, {2, 0, 2, 2, 0, 0}, 0.21159420289855074,
     {4, 7, 7, 0, 0, 10, 3, 2, 3, 66, 0, 0}},
    {true, {5, 3, 3, 3, 5, 5}, 0.15904761904761905,
     {9, 21, 12, 0, 0, 21, 12, 4, 5, 82, 0, 0}},
    {true, {4, 3, 4, 4, 5, 3}, 0.36829268292682932,
     {11, 18, 21, 0, 0, 23, 11, 3, 4, 64, 0, 0}},
    {true, {5, 3, 3, 3, 3, 5}, 0.20476190476190476,
     {6, 6, 19, 0, 0, 12, 3, 2, 3, 51, 0, 0}},
    {true, {5, 0, 4, 4, 3, 0}, 0.66979166666666667,
     {12, 14, 21, 0, 0, 13, 8, 3, 4, 46, 0, 0}},
    {true, {3, 5, 4, 5, 5, 5}, 0.29473684210526319,
     {5, 5, 16, 0, 0, 10, 3, 2, 3, 36, 0, 0}},
};

const std::vector<GoldenRun> kAutoBudgetGolden = {
    {true, {0, 0, 0, 0, 0, 0}, 0.066666666666666666,
     {1, 1, 1, 0, 0, 5, 1, 0, 1, 36, 0, 0}},
    {true, {1, 0, 0, 0, 0, 1}, 0.17861635220125785,
     {11, 22, 19, 0, 0, 47, 11, 5, 6, 158, 0, 0}},
    {true, {0, 0, 1, 0, 0, 0}, 0.13333333333333333,
     {4, 8, 4, 0, 0, 13, 5, 3, 4, 99, 0, 0}},
    {true, {0, 0, 1, 0, 1, 1}, 0.16111111111111109,
     {12, 14, 37, 0, 0, 42, 5, 4, 5, 153, 0, 0}},
    {true, {1, 1, 1, 1, 0, 1}, 0.1717948717948718,
     {10, 15, 18, 0, 0, 26, 6, 5, 6, 117, 0, 0}},
    {true, {1, 0, 0, 0, 1, 1}, 0.13933333333333334,
     {4, 4, 9, 0, 0, 19, 1, 3, 4, 132, 0, 0}},
    {true, {0, 1, 1, 0, 0, 0}, 0.16794871794871796,
     {6, 6, 12, 0, 0, 18, 2, 4, 5, 111, 0, 0}},
    {true, {0, 0, 1, 0, 0, 0}, 0.13333333333333333,
     {7, 13, 12, 0, 0, 31, 7, 5, 6, 162, 0, 0}},
};

const std::vector<GoldenRun> kRandomTopologyGolden = {
    {true, {1, 0, 0, 0}, 0.20000000000000001,
     {4, 4, 6, 0, 0, 6, 1, 3, 4, 39, 0, 0}},
    {true, {0, 0, 1, 2, 0}, 0.49000000000000005,
     {8, 9, 10, 0, 0, 22, 4, 4, 5, 79, 0, 0}},
    {false, {kNone, kNone, kNone, kNone, kNone, kNone}, 0,
     {36, 36, 0, 0, 0, 8, 12, 5, 6, 34, 0, 0}},
    {false, {kNone, kNone, kNone, kNone, kNone, kNone, kNone}, 0,
     {35, 35, 0, 0, 0, 7, 12, 5, 6, 35, 0, 0}},
    {true, {0, 0, 0, 0}, 0.10000000000000001,
     {1, 1, 1, 0, 0, 5, 1, 0, 1, 24, 0, 0}},
    {true, {0, 0, 1, 0, 0}, 0.18307692307692308,
     {14, 20, 26, 0, 0, 13, 5, 4, 5, 70, 0, 0}},
    {true, {0, 1, 0, 0, 0, 1}, 0.20000000000000001,
     {3, 3, 4, 0, 0, 5, 1, 2, 3, 54, 0, 0}},
    {true, {1, 0, 0, 1, 2, 1, 0}, 0.41260504201680676,
     {52, 53, 127, 0, 0, 73, 27, 5, 6, 140, 0, 0}},
    {true, {0, 0, 0, 1}, 0.20000000000000001,
     {4, 4, 6, 0, 0, 6, 1, 3, 4, 36, 0, 0}},
    {true, {0, 2, 0, 1, 0}, 0.45818181818181825,
     {9, 9, 9, 0, 0, 8, 4, 3, 4, 45, 0, 0}},
    {true, {0, 1, 0, 1, 2, 0}, 0.33783783783783788,
     {22, 32, 45, 0, 0, 44, 9, 5, 6, 144, 0, 0}},
    {true, {3, 1, 0, 0, 0, 1, 2}, 0.39523809523809528,
     {28, 28, 18, 0, 0, 12, 8, 5, 6, 73, 0, 0}},
    {true, {0, 0, 0, 1}, 0.20000000000000001,
     {4, 4, 6, 0, 0, 6, 1, 3, 4, 36, 0, 0}},
    {true, {2, 4, 1, 0, 3}, 0.88571428571428568,
     {15, 15, 13, 0, 0, 18, 7, 4, 5, 50, 0, 0}},
    {true, {0, 1, 0, 2, 1, 0}, 0.39375000000000004,
     {22, 39, 16, 0, 0, 11, 19, 5, 6, 67, 0, 0}},
    {false, {kNone, kNone, kNone, kNone, kNone, kNone, kNone}, 0,
     {10, 10, 0, 0, 0, 5, 2, 4, 5, 29, 0, 0}},
    {true, {0, 0, 0, 1}, 0.23333333333333334,
     {3, 3, 4, 0, 0, 11, 1, 2, 3, 51, 0, 0}},
    {true, {1, 0, 0, 1, 1}, 0.21000000000000002,
     {7, 7, 11, 0, 0, 9, 2, 4, 5, 51, 0, 0}},
    {true, {1, 0, 0, 0, 0, 2}, 0.21875000000000003,
     {11, 11, 15, 0, 0, 11, 4, 5, 6, 67, 0, 0}},
    {true, {3, 0, 0, 1, 2, 2, 0}, 0.40669642857142863,
     {89, 93, 239, 0, 0, 105, 40, 6, 7, 133, 0, 0}},
    {true, {0, 1, 0, 0}, 0.20000000000000001,
     {3, 3, 4, 0, 0, 5, 1, 2, 3, 35, 0, 0}},
    {true, {0, 0, 0, 0, 1}, 0.16,
     {5, 5, 8, 0, 0, 7, 1, 4, 5, 55, 0, 0}},
    {true, {0, 0, 1, 0, 2, 1}, 0.40487804878048783,
     {11, 19, 10, 0, 0, 25, 9, 4, 5, 109, 0, 0}},
    {true, {0, 1, 2, 0, 1, 0, 2}, 0.33642857142857147,
     {71, 75, 116, 0, 0, 26, 23, 6, 7, 91, 0, 0}},
    {true, {0, 0, 0, 0}, 0.10000000000000001,
     {1, 1, 1, 0, 0, 3, 1, 0, 1, 16, 0, 0}},
    {true, {0, 2, 0, 2, 3}, 0.39000000000000001,
     {11, 16, 23, 0, 0, 23, 6, 4, 5, 95, 0, 0}},
    {true, {0, 1, 0, 2, 3, 0}, 0.42222222222222222,
     {24, 31, 24, 0, 0, 11, 13, 5, 6, 54, 0, 0}},
    {true, {0, 0, 1, 2, 2, 0, 0}, 0.23458646616541357,
     {8, 8, 10, 0, 0, 10, 2, 5, 6, 93, 0, 0}},
    {true, {0, 0, 1, 0}, 0.26666666666666666,
     {3, 3, 4, 0, 0, 11, 1, 2, 3, 51, 0, 0}},
    {true, {0, 0, 0, 0, 0}, 0.080000000000000002,
     {1, 1, 1, 0, 0, 3, 1, 0, 1, 20, 0, 0}},
};

const std::vector<GoldenRun> kPruneLabelGolden = {
    {true, {0, 1, 0, 1, 0, 0}, 0.16933333333333334,
     {7, 8, 17, 0, 0, 19, 3, 4, 5, 120, 0, 0}},
    {true, {2, 0, 1, 2, 3, 2}, 0.38563218390804599,
     {61, 86, 103, 0, 0, 74, 45, 5, 6, 94, 0, 0}},
    {true, {0, 1, 0, 0, 0, 1}, 0.243859649122807,
     {7, 8, 14, 0, 0, 20, 3, 4, 5, 111, 0, 0}},
    {true, {1, 0, 1, 1, 1, 1}, 0.15208333333333332,
     {17, 18, 53, 0, 0, 65, 5, 5, 6, 162, 0, 0}},
    {true, {1, 0, 0, 0, 1, 0}, 0.19333333333333333,
     {6, 7, 10, 0, 0, 8, 2, 4, 5, 68, 0, 0}},
    {true, {0, 1, 0, 0, 0, 1}, 0.14015151515151514,
     {13, 15, 40, 0, 0, 49, 6, 5, 6, 162, 0, 0}},
    {true, {0, 0, 1, 0, 0, 0}, 0.14912280701754385,
     {4, 6, 6, 0, 0, 13, 3, 3, 4, 99, 0, 0}},
    {true, {1, 0, 2, 2, 4, 0}, 0.4311827956989247,
     {40, 40, 63, 0, 0, 70, 15, 5, 6, 98, 0, 0}},
    {true, {2, 0, 3, 0, 1, 1}, 0.51333333333333331,
     {45, 64, 73, 0, 0, 69, 27, 5, 6, 98, 0, 0}},
    {true, {1, 0, 0, 2, 0, 0}, 0.27333333333333337,
     {19, 25, 43, 0, 0, 67, 11, 5, 6, 155, 0, 0}},
    {true, {0, 2, 0, 1, 0, 1}, 0.31666666666666671,
     {13, 17, 17, 0, 0, 8, 8, 5, 6, 70, 0, 0}},
    {true, {0, 0, 1, 0, 1, 0}, 0.13333333333333333,
     {5, 5, 12, 0, 0, 23, 1, 4, 5, 150, 0, 0}},
    {true, {0, 0, 2, 1, 0, 2}, 0.32857142857142863,
     {17, 30, 18, 0, 0, 40, 16, 5, 6, 105, 0, 0}},
    {true, {0, 1, 0, 0, 0, 0}, 0.13333333333333333,
     {7, 9, 16, 0, 0, 17, 4, 5, 6, 116, 0, 0}},
    {true, {0, 0, 1, 0, 0, 1}, 0.243859649122807,
     {5, 7, 7, 0, 0, 16, 4, 3, 4, 101, 0, 0}},
};

const std::vector<GoldenRun> kExpansionBudgetGolden = {
    {true, {1, 1, 2, 0, 3, 1}, 0.5373983739837398,
     {2, 4, 0, 0, 0, 8, 1, 1, 2, 54, 1, 0}},
};

TEST(SearchGoldenTest, BaStar) { expect_golden(ba_star_runs(), kBaStarGolden); }

TEST(SearchGoldenTest, DbaStarWithoutDeadline) {
  expect_golden(dba_star_runs(), kDbaStarGolden);
}

TEST(SearchGoldenTest, PinnedPrefix) {
  expect_golden(pinned_prefix_runs(), kPinnedPrefixGolden);
}

TEST(SearchGoldenTest, AutoBudgetThroughScheduler) {
  expect_golden(auto_budget_runs(), kAutoBudgetGolden);
}

TEST(SearchGoldenTest, RandomTopologySweep) {
  expect_golden(random_topology_runs(), kRandomTopologyGolden);
}

TEST(SearchGoldenTest, PruneLabels) {
  expect_golden(prune_label_runs(), kPruneLabelGolden);
}

TEST(SearchGoldenTest, ExpansionBudgetTruncation) {
  expect_golden(expansion_budget_runs(), kExpansionBudgetGolden);
}

}  // namespace
}  // namespace ostro::core
