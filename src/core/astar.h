// Bounded A* (Algorithm 2) and deadline-bounded A* (Section III-C).
//
// BA* explores placement prefixes in a best-first order keyed by
// u = committed utility + admissible heuristic.  The search is bounded by
// an incumbent: RunEG (the greedy of Algorithm 1) completes the initial
// state to obtain u_upper, is re-run whenever the search reaches a new
// depth ("once it captures that the search is advanced"), and every path
// whose bound meets u_upper is pruned.  With the admissible heuristic the
// first completed path popped is optimal; when the open queue's minimum
// reaches u_upper the incumbent greedy completion is returned.
//
// DBA* layers the paper's probabilistic pruning on top: a popped path of
// progress s = |V*_p| / |V| is discarded with probability P(x > s) for
// x ~ U[0, r); r starts at SearchConfig::initial_prune_range and grows by
// alpha = 0.2 * (T / T_left) whenever the open-queue load estimate
// (the L[i] recurrence of Section III-C) says the search cannot finish
// within the remaining deadline.  Deeper paths are pruned less, biasing the
// search depth-first exactly as the paper describes.
#pragma once

#include <string>

#include "core/partial.h"
#include "core/types.h"

namespace ostro::core {

struct AStarOutcome {
  bool feasible = false;
  std::string failure;
  PartialPlacement state;
  SearchStats stats;

  explicit AStarOutcome(PartialPlacement s) : state(std::move(s)) {}
};

/// Runs BA* (deadline_bounded == false) or DBA* (true) from `initial`.
[[nodiscard]] AStarOutcome run_astar(PartialPlacement initial,
                                     const SearchConfig& config,
                                     bool deadline_bounded);

}  // namespace ostro::core
