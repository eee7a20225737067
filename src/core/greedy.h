// The estimate-based greedy algorithm EG (Algorithm 1 of the paper) and the
// two greedy baselines the evaluation compares against (Section IV-A):
//
//  * EG    — nodes sorted by the sum of relative resource weights; every
//            candidate host is scored with the accumulated usage plus the
//            heuristic estimate, and the best host wins (GetBest).
//  * EG_C  — bin-packing baseline: minimizes the number of hosts used by
//            best-fit on remaining compute capacity; ignores pipes.
//  * EG_BW — bandwidth-only baseline: places linked nodes as close to one
//            another as possible and otherwise prefers the hosts with the
//            most available bandwidth (the EGBW of the paper, in the spirit
//            of Oktopus/SecondNet/CloudMirror-style schedulers).
//
// run_greedy also serves as the RunEG subroutine of BA* (Algorithm 2): it
// completes an arbitrary partial placement greedily, which yields the upper
// bound used to bound and prune the A* search.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/partial.h"

namespace ostro::core {

/// Sort(V) of Algorithm 1: descending sum of relative resource weights
/// sum_x r_x / R_x over x in {cpu, mem, disk, incident bandwidth}, where
/// R_x is the mean requirement across all nodes.
[[nodiscard]] std::vector<topo::NodeId> eg_sort_order(
    const topo::AppTopology& topology);

/// Descending incident bandwidth (EG_BW's order and the order the heuristic
/// estimate uses for the remaining nodes).
[[nodiscard]] std::vector<topo::NodeId> bandwidth_sort_order(
    const topo::AppTopology& topology);

struct GreedyOutcome {
  bool feasible = false;
  std::string failure;
  PartialPlacement state;
  /// Greedy-side diagnostics: candidates_evaluated, heuristic_calls and
  /// runtime_seconds are filled; the search-only fields stay zero.
  SearchStats stats;

  explicit GreedyOutcome(PartialPlacement s) : state(std::move(s)) {}
};

/// Completes `state` by placing its unplaced nodes in `order` (already
/// placed entries are skipped), choosing hosts according to `variant`
/// (kEg, kEgC or kEgBw; the A* variants are rejected).  EG scores its
/// candidates on the calling thread.  `use_estimate_context` selects EG's
/// hoisted per-node estimate path and `use_candidate_index` the
/// feasibility-index candidate generation (both bit-identical to their
/// reference paths; see SearchConfig).
[[nodiscard]] GreedyOutcome run_greedy(Algorithm variant,
                                       PartialPlacement state,
                                       std::span<const topo::NodeId> order,
                                       bool use_estimate_context = true,
                                       bool use_candidate_index = true);

/// Retired: the old signature's thread-pool position, kept only because
/// perfbench/ still passes nullptr there.  ROADMAP item 1 deletes it.
[[nodiscard]] inline GreedyOutcome run_greedy(
    Algorithm variant, PartialPlacement state,
    std::span<const topo::NodeId> order, std::nullptr_t,
    bool use_estimate_context = true, bool use_candidate_index = true) {
  return run_greedy(variant, std::move(state), order, use_estimate_context,
                    use_candidate_index);
}

}  // namespace ostro::core
