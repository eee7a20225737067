// Golden fixtures for BA*/DBA*: on fixed seeds and scenarios, every run must
// reproduce the recorded feasibility, assignment and SearchStats work
// counters exactly, and the recorded utility within 1e-12.  The counters
// are pop-order sensitive (open_queue_peak, paths_generated, heuristic_calls
// diverge on the first expansion that differs), so these fixtures pin the
// whole search trajectory, not just its answer.  BA* optimality itself is
// covered by the brute-force tests; this suite guards against any change
// to how the search explores.
//
// The fixtures were recorded with the search as it stood when the pooled
// arena core was retired, which the differential suite of that time proved
// bit-identical to the std-container core that remains.  They were
// re-recorded when the exact same-rack host rule replaced the fleet-wide
// host hash and the closed set: every run kept its feasibility, assignment
// and utility, and only work counters moved.  They were re-recorded again
// when a re-bound from a state on the path of a known EG completion
// stopped running EG: only eg_reruns and heuristic_calls moved (98 of 109
// runs), because the skipped runs could only re-offer a completion the
// incumbent had already seen.  When the adaptive search-budget regime was
// deleted, its always-zero retry counter left every fixture (11 counters
// became 10) and the scheduler scenario, which had run that regime without
// ever firing the open-queue valve, kept all its recorded values on the one
// remaining path.  A deliberate behaviour change re-records them: a
// mismatching suite prints every run in fixture syntax.
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

using ostro::testing::add_host_load;
using ostro::testing::random_app;
using ostro::testing::small_dc;
using ostro::testing::two_site_dc;

/// One recorded search run.  `counters` holds, in order: paths_expanded,
/// paths_generated, paths_pruned_bound, paths_pruned_random,
/// symmetry_pruned, open_queue_peak, max_depth, eg_reruns, heuristic_calls,
/// truncated.
struct GoldenRun {
  bool feasible = false;
  std::vector<dc::HostId> assignment;
  double utility = 0.0;  ///< compared only for feasible runs
  std::array<std::uint64_t, 10> counters{};
};

std::array<std::uint64_t, 10> counters_of(const SearchStats& s) {
  return {s.paths_expanded,      s.paths_generated, s.paths_pruned_bound,
          s.paths_pruned_random, s.symmetry_pruned, s.open_queue_peak,
          s.max_depth,           s.eg_reruns,       s.heuristic_calls,
          s.truncated ? 1u : 0u};
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
      add_host_load(occupancy, h, {7.5, 15.0, 490.0});
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
    // deadline_seconds == 0 disables the prune pressure, so DBA* (estimate
    // ordering, beam, depth-first pops) is deterministic.
    config.deadline_seconds = 0.0;
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

std::vector<GoldenRun> scheduler_runs() {
  // BA* through OstroScheduler::plan, so the scheduler's own path from
  // config to search to Placement is pinned too.  A fresh scheduler per run
  // keeps every plan independent of the ones before it.
  util::Rng rng(9004);
  std::vector<GoldenRun> runs;
  for (int trial = 0; trial < 8; ++trial) {
    const auto datacenter =
        trial % 2 == 0 ? small_dc(2, 3) : two_site_dc(2, 2);
    const auto app = random_app(rng, 6);
    const SearchConfig config;
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
    if (dba) config.deadline_seconds = 0.0;
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
     {21, 23, 38, 0, 48, 8, 4, 2, 49, 0}},
    {true, {1, 1, 0, 1, 0, 0}, 0.16761904761904761,
     {41, 50, 179, 0, 100, 21, 3, 2, 67, 0}},
    {true, {0, 1, 1, 1, 1, 0}, 0.17424242424242425,
     {7, 18, 5, 0, 20, 12, 3, 2, 50, 0}},
    {true, {1, 1, 1, 0, 0, 0}, 0.18476190476190477,
     {33, 49, 123, 0, 88, 18, 5, 2, 69, 0}},
    {true, {0, 0, 0, 0, 0, 1}, 0.20000000000000001,
     {5, 5, 8, 0, 16, 2, 2, 1, 35, 0}},
    {true, {0, 0, 0, 1, 0, 1}, 0.13850574712643679,
     {89, 105, 412, 0, 208, 32, 4, 1, 46, 0}},
    {true, {1, 0, 0, 0, 1, 1}, 0.22083333333333333,
     {15, 17, 34, 0, 36, 6, 4, 1, 33, 0}},
    {true, {2, 2, 1, 0, 0, 3}, 0.41014492753623188,
     {57, 57, 220, 0, 108, 36, 4, 1, 42, 0}},
    {true, {2, 0, 4, 3, 1, 1}, 0.60933333333333328,
     {47, 75, 30, 0, 64, 44, 5, 2, 28, 0}},
    {true, {2, 1, 3, 1, 1, 0}, 0.38854166666666667,
     {137, 137, 516, 0, 252, 84, 5, 1, 42, 0}},
    {true, {3, 0, 1, 3, 0, 2}, 0.47666666666666668,
     {68, 98, 87, 0, 117, 46, 5, 2, 43, 0}},
    {true, {0, 1, 0, 0, 1, 0}, 0.18154761904761904,
     {78, 123, 299, 0, 207, 58, 5, 4, 91, 0}},
    {true, {2, 0, 1, 1, 2, 0}, 0.38181818181818183,
     {21, 30, 28, 0, 48, 14, 5, 2, 34, 0}},
    {true, {0, 3, 1, 2, 2, 0}, 0.38030303030303031,
     {193, 261, 568, 0, 384, 128, 5, 3, 74, 0}},
    {true, {3, 4, 0, 0, 1, 2}, 0.64190476190476187,
     {91, 115, 58, 0, 108, 50, 5, 3, 37, 0}},
    {true, {1, 0, 0, 1, 1, 0}, 0.16333333333333333,
     {13, 13, 48, 0, 40, 4, 3, 1, 45, 0}},
    {true, {0, 0, 0, 1, 1, 0}, 0.20833333333333331,
     {13, 13, 28, 0, 36, 4, 4, 1, 34, 0}},
    {true, {0, 0, 1, 1, 0, 1}, 0.17471264367816092,
     {69, 85, 296, 0, 184, 24, 5, 1, 47, 0}},
    {true, {3, 0, 2, 1, 0, 2}, 0.48095238095238091,
     {17, 17, 24, 0, 34, 8, 4, 1, 30, 0}},
    {true, {1, 0, 3, 2, 0, 0}, 0.4303030303030303,
     {97, 105, 264, 0, 216, 60, 4, 2, 55, 0}},
};

const std::vector<GoldenRun> kDbaStarGolden = {
    {true, {2, 1, 0, 0, 1, 1}, 0.25769230769230772,
     {23, 25, 36, 0, 16, 6, 5, 1, 45, 0}},
    {true, {0, 0, 1, 1, 1, 0}, 0.18106060606060606,
     {5, 5, 8, 0, 16, 2, 2, 1, 37, 0}},
    {false, {kNone, kNone, kNone, kNone, kNone, kNone}, 0,
     {19, 19, 0, 0, 6, 3, 4, 5, 38, 0}},
    {true, {1, 0, 0, 1, 0, 1}, 0.17948717948717949,
     {22, 24, 55, 0, 54, 5, 5, 2, 63, 0}},
    {true, {0, 0, 0, 0, 0, 1}, 0.19333333333333333,
     {21, 21, 44, 0, 18, 4, 5, 1, 43, 0}},
    {true, {4, 2, 3, 0, 1, 0}, 0.55151515151515151,
     {82, 85, 77, 0, 99, 6, 5, 1, 110, 0}},
    {false, {kNone, kNone, kNone, kNone, kNone, kNone}, 0,
     {71, 71, 0, 0, 12, 6, 5, 6, 104, 0}},
    {true, {0, 0, 3, 0, 1, 2}, 0.37916666666666665,
     {67, 67, 74, 0, 136, 7, 5, 1, 96, 0}},
    {true, {1, 0, 0, 2, 0, 0}, 0.24736842105263163,
     {19, 23, 30, 0, 14, 4, 5, 1, 42, 0}},
    {true, {0, 0, 1, 0, 1, 1}, 0.19583333333333333,
     {19, 24, 45, 0, 46, 5, 5, 3, 71, 0}},
    {true, {0, 0, 2, 2, 3, 0}, 0.32500000000000007,
     {38, 41, 59, 0, 18, 6, 5, 1, 60, 0}},
    {true, {1, 0, 0, 1, 0, 0}, 0.13958333333333334,
     {5, 5, 8, 0, 16, 2, 2, 1, 38, 0}},
    {true, {1, 1, 1, 0, 0, 0}, 0.25641025641025639,
     {23, 33, 46, 0, 22, 5, 5, 2, 61, 0}},
    {true, {0, 0, 0, 1, 1, 1}, 0.15333333333333332,
     {19, 26, 46, 0, 45, 5, 5, 2, 70, 0}},
    {false, {kNone, kNone, kNone, kNone, kNone, kNone}, 0,
     {71, 71, 0, 0, 12, 5, 5, 6, 104, 0}},
    {true, {1, 1, 0, 1, 1, 0}, 0.17572463768115942,
     {20, 24, 50, 0, 48, 6, 5, 3, 73, 0}},
    {true, {1, 1, 0, 0, 0, 0}, 0.26190476190476186,
     {43, 47, 84, 0, 34, 8, 5, 2, 72, 0}},
    {true, {0, 3, 2, 1, 1, 0}, 0.36845238095238098,
     {78, 83, 89, 0, 149, 8, 5, 1, 112, 0}},
    {true, {1, 0, 1, 0, 1, 0}, 0.23010752688172043,
     {32, 41, 71, 0, 21, 8, 5, 2, 65, 0}},
    {true, {0, 1, 1, 1, 0, 0}, 0.19149659863945578,
     {31, 49, 74, 0, 69, 9, 5, 1, 81, 0}},
};

const std::vector<GoldenRun> kPinnedPrefixGolden = {
    {true, {5, 1, 5, 3, 5, 5}, 0.38157894736842113,
     {6, 6, 16, 0, 10, 4, 2, 1, 21, 0}},
    {true, {5, 5, 5, 3, 0, 4}, 0.58666666666666667,
     {8, 10, 9, 0, 13, 4, 3, 2, 24, 0}},
    {true, {0, 2, 4, 4, 4, 2}, 0.30434782608695654,
     {0, 1, 0, 0, 0, 1, 0, 1, 18, 0}},
    {true, {2, 1, 1, 2, 2, 1}, 0.15208333333333332,
     {2, 3, 7, 0, 4, 1, 1, 1, 22, 0}},
    {true, {5, 5, 5, 3, 3, 5}, 0.15833333333333333,
     {7, 8, 15, 0, 17, 2, 4, 1, 28, 0}},
    {true, {0, 2, 0, 2, 1, 2}, 0.41136363636363638,
     {5, 5, 10, 0, 10, 2, 2, 1, 15, 0}},
    {true, {3, 3, 5, 3, 4, 4}, 0.27500000000000002,
     {15, 19, 31, 0, 29, 11, 4, 2, 33, 0}},
    {true, {5, 1, 0, 1, 0, 0}, 0.36923076923076925,
     {14, 16, 47, 0, 20, 9, 3, 2, 30, 0}},
    {true, {5, 5, 3, 5, 3, 3}, 0.26781609195402301,
     {4, 6, 9, 0, 9, 3, 3, 2, 34, 0}},
    {true, {2, 0, 2, 2, 0, 0}, 0.21159420289855074,
     {4, 7, 7, 0, 10, 3, 2, 2, 44, 0}},
    {true, {5, 3, 3, 3, 5, 5}, 0.15904761904761905,
     {9, 21, 12, 0, 21, 12, 4, 2, 33, 0}},
    {true, {4, 3, 4, 4, 5, 3}, 0.36829268292682932,
     {11, 18, 21, 0, 23, 11, 3, 3, 51, 0}},
    {true, {5, 3, 3, 3, 3, 5}, 0.20476190476190476,
     {6, 6, 19, 0, 12, 3, 2, 1, 23, 0}},
    {true, {5, 0, 4, 4, 3, 0}, 0.66979166666666667,
     {12, 14, 21, 0, 13, 8, 3, 2, 27, 0}},
    {true, {3, 5, 4, 5, 5, 5}, 0.29473684210526319,
     {5, 5, 16, 0, 10, 3, 2, 1, 18, 0}},
};

const std::vector<GoldenRun> kSchedulerGolden = {
    {true, {0, 0, 0, 0, 0, 0}, 0.066666666666666666,
     {1, 1, 2, 0, 4, 1, 0, 1, 36, 0}},
    {true, {1, 0, 0, 0, 0, 1}, 0.17861635220125785,
     {38, 85, 104, 0, 115, 44, 5, 2, 53, 0}},
    {true, {0, 0, 1, 0, 0, 0}, 0.13333333333333333,
     {6, 15, 4, 0, 18, 10, 3, 2, 51, 0}},
    {true, {0, 0, 1, 0, 1, 1}, 0.16111111111111109,
     {57, 62, 239, 0, 136, 21, 4, 2, 69, 0}},
    {true, {1, 1, 1, 1, 0, 1}, 0.1717948717948718,
     {16, 27, 27, 0, 40, 12, 5, 2, 40, 0}},
    {true, {1, 0, 0, 0, 1, 1}, 0.13933333333333334,
     {13, 13, 48, 0, 40, 4, 3, 1, 45, 0}},
    {true, {0, 1, 1, 0, 0, 0}, 0.16794871794871796,
     {11, 11, 24, 0, 30, 4, 4, 1, 34, 0}},
    {true, {0, 0, 1, 0, 0, 0}, 0.13333333333333333,
     {22, 50, 56, 0, 67, 32, 5, 1, 47, 0}},
};

const std::vector<GoldenRun> kRandomTopologyGolden = {
    {true, {1, 0, 0, 0}, 0.20000000000000001,
     {7, 7, 12, 0, 8, 2, 3, 1, 21, 0}},
    {true, {0, 0, 1, 2, 0}, 0.49000000000000005,
     {23, 34, 35, 0, 40, 18, 4, 2, 33, 0}},
    {false, {kNone, kNone, kNone, kNone, kNone, kNone}, 0,
     {71, 71, 0, 0, 12, 24, 5, 6, 34, 0}},
    {false, {kNone, kNone, kNone, kNone, kNone, kNone, kNone}, 0,
     {69, 69, 0, 0, 10, 24, 5, 6, 35, 0}},
    {true, {0, 0, 0, 0}, 0.10000000000000001,
     {1, 1, 3, 0, 3, 1, 0, 1, 24, 0}},
    {true, {0, 0, 1, 0, 0}, 0.18307692307692308,
     {22, 29, 46, 0, 17, 6, 4, 2, 49, 0}},
    {true, {0, 1, 0, 0, 0, 1}, 0.20000000000000001,
     {5, 5, 8, 0, 6, 2, 2, 1, 22, 0}},
    {true, {1, 0, 0, 1, 2, 1, 0}, 0.41260504201680676,
     {274, 280, 762, 0, 279, 159, 5, 3, 72, 0}},
    {true, {0, 0, 0, 1}, 0.20000000000000001,
     {7, 7, 12, 0, 8, 2, 3, 1, 15, 0}},
    {true, {0, 2, 0, 1, 0}, 0.45818181818181825,
     {17, 17, 18, 0, 12, 8, 3, 1, 17, 0}},
    {true, {0, 1, 0, 1, 2, 0}, 0.33783783783783788,
     {53, 64, 145, 0, 78, 13, 5, 2, 102, 0}},
    {true, {3, 1, 0, 0, 0, 1, 2}, 0.39523809523809528,
     {55, 55, 36, 0, 20, 16, 5, 1, 21, 0}},
    {true, {0, 0, 0, 1}, 0.20000000000000001,
     {7, 7, 12, 0, 8, 2, 3, 1, 15, 0}},
    {true, {2, 4, 1, 0, 3}, 0.88571428571428568,
     {79, 79, 78, 0, 57, 42, 4, 1, 20, 0}},
    {true, {0, 1, 0, 2, 1, 0}, 0.39375000000000004,
     {43, 77, 32, 0, 18, 38, 5, 2, 24, 0}},
    {false, {kNone, kNone, kNone, kNone, kNone, kNone, kNone}, 0,
     {19, 19, 0, 0, 6, 3, 4, 5, 38, 0}},
    {true, {0, 0, 0, 1}, 0.23333333333333334,
     {7, 7, 18, 0, 15, 3, 2, 1, 23, 0}},
    {true, {1, 0, 0, 1, 1}, 0.21000000000000002,
     {12, 13, 20, 0, 13, 4, 4, 2, 21, 0}},
    {true, {1, 0, 0, 0, 0, 2}, 0.21875000000000003,
     {21, 21, 30, 0, 18, 8, 5, 1, 21, 0}},
    {true, {3, 0, 0, 1, 2, 2, 0}, 0.40669642857142863,
     {484, 505, 1434, 0, 423, 216, 6, 2, 39, 0}},
    {true, {0, 1, 0, 0}, 0.20000000000000001,
     {5, 5, 7, 0, 7, 2, 2, 1, 19, 0}},
    {true, {0, 0, 0, 0, 1}, 0.16,
     {9, 9, 15, 0, 11, 2, 4, 1, 19, 0}},
    {true, {0, 0, 1, 0, 2, 1}, 0.40487804878048783,
     {41, 94, 35, 0, 58, 54, 4, 2, 45, 0}},
    {true, {0, 1, 2, 0, 1, 0, 2}, 0.33642857142857147,
     {141, 149, 232, 0, 48, 46, 6, 3, 37, 0}},
    {true, {0, 0, 0, 0}, 0.10000000000000001,
     {1, 1, 2, 0, 2, 1, 0, 1, 16, 0}},
    {true, {0, 2, 0, 2, 3}, 0.39000000000000001,
     {43, 48, 125, 0, 55, 9, 4, 1, 74, 0}},
    {true, {0, 1, 0, 2, 3, 0}, 0.42222222222222222,
     {47, 61, 48, 0, 18, 26, 5, 3, 22, 0}},
    {true, {0, 0, 1, 2, 2, 0, 0}, 0.23458646616541357,
     {15, 15, 20, 0, 16, 3, 5, 1, 25, 0}},
    {true, {0, 0, 1, 0}, 0.26666666666666666,
     {7, 7, 18, 0, 15, 3, 2, 1, 23, 0}},
    {true, {0, 0, 0, 0, 0}, 0.080000000000000002,
     {1, 1, 2, 0, 2, 1, 0, 1, 20, 0}},
};

const std::vector<GoldenRun> kPruneLabelGolden = {
    {true, {0, 1, 0, 1, 0, 0}, 0.16933333333333334,
     {13, 15, 33, 0, 33, 6, 4, 1, 36, 0}},
    {true, {2, 0, 1, 2, 3, 2}, 0.38563218390804599,
     {223, 331, 506, 0, 160, 194, 5, 2, 33, 0}},
    {true, {0, 1, 0, 0, 0, 1}, 0.243859649122807,
     {10, 13, 17, 0, 29, 6, 4, 2, 45, 0}},
    {true, {1, 0, 1, 1, 1, 1}, 0.15208333333333332,
     {64, 68, 272, 0, 169, 24, 5, 1, 47, 0}},
    {true, {1, 0, 0, 0, 1, 0}, 0.19333333333333333,
     {9, 11, 15, 0, 10, 4, 4, 2, 29, 0}},
    {true, {0, 1, 0, 0, 0, 1}, 0.14015151515151514,
     {54, 62, 228, 0, 139, 28, 5, 1, 47, 0}},
    {true, {0, 0, 1, 0, 0, 0}, 0.14912280701754385,
     {6, 11, 8, 0, 18, 6, 3, 2, 51, 0}},
    {true, {1, 0, 2, 2, 4, 0}, 0.4311827956989247,
     {167, 167, 418, 0, 138, 57, 5, 1, 30, 0}},
    {true, {2, 0, 3, 0, 1, 1}, 0.51333333333333331,
     {88, 126, 145, 0, 131, 54, 5, 1, 30, 0}},
    {true, {1, 0, 0, 2, 0, 0}, 0.27333333333333337,
     {82, 113, 258, 0, 202, 52, 5, 2, 53, 0}},
    {true, {0, 2, 0, 1, 0, 1}, 0.31666666666666671,
     {18, 24, 20, 0, 15, 11, 5, 2, 25, 0}},
    {true, {0, 0, 1, 0, 1, 0}, 0.13333333333333333,
     {17, 17, 64, 0, 52, 4, 4, 1, 46, 0}},
    {true, {0, 0, 2, 1, 0, 2}, 0.32857142857142863,
     {32, 58, 35, 0, 72, 32, 5, 1, 32, 0}},
    {true, {0, 1, 0, 0, 0, 0}, 0.13333333333333333,
     {19, 32, 51, 0, 28, 18, 5, 2, 40, 0}},
    {true, {0, 0, 1, 0, 0, 1}, 0.243859649122807,
     {9, 13, 14, 0, 26, 8, 3, 2, 51, 0}},
};

const std::vector<GoldenRun> kExpansionBudgetGolden = {
    {true, {1, 1, 2, 0, 3, 1}, 0.5373983739837398,
     {2, 5, 0, 0, 7, 2, 1, 1, 30, 1}},
};

TEST(SearchGoldenTest, BaStar) { expect_golden(ba_star_runs(), kBaStarGolden); }

TEST(SearchGoldenTest, DbaStarWithoutDeadline) {
  expect_golden(dba_star_runs(), kDbaStarGolden);
}

TEST(SearchGoldenTest, PinnedPrefix) {
  expect_golden(pinned_prefix_runs(), kPinnedPrefixGolden);
}

TEST(SearchGoldenTest, BaStarThroughScheduler) {
  expect_golden(scheduler_runs(), kSchedulerGolden);
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
