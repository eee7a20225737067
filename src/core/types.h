// Public request/result/configuration types of the Ostro placement core.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "datacenter/datacenter.h"
#include "net/reservation.h"
#include "topology/app_topology.h"

namespace ostro::core {

/// The placement algorithms of Sections III-A..III-C plus the two greedy
/// baselines the evaluation compares against (Section IV-A).
enum class Algorithm : std::uint8_t {
  kEg,    ///< estimate-based greedy (Algorithm 1)
  kEgC,   ///< greedy minimizing host count (bin packing baseline, "EG_C")
  kEgBw,  ///< greedy minimizing bandwidth only ("EG_BW")
  kBaStar,   ///< bounded A* (Algorithm 2)
  kDbaStar,  ///< deadline-bounded A* (Section III-C)
};

[[nodiscard]] const char* to_string(Algorithm algorithm) noexcept;
/// Parses "eg" / "egc" / "egbw" / "ba" / "dba" (case-insensitive); throws
/// std::invalid_argument otherwise.
[[nodiscard]] Algorithm parse_algorithm(const std::string& name);

/// Tuning knobs shared by all algorithms.  Defaults mirror the paper's
/// simulation setup (theta = 0.6/0.4, Section IV-C).
struct SearchConfig {
  /// Objective weights; must be non-negative and sum to a positive, finite
  /// value (they are re-normalized to sum to 1).
  double theta_bw = 0.6;
  double theta_c = 0.4;

  /// DBA* wall-clock budget T in seconds; must be finite.  <= 0 means "no
  /// deadline": no pruning pressure ever builds up, and DBA* becomes a
  /// deterministic depth-first, estimate-ordered search that runs until its
  /// open queue drains.
  double deadline_seconds = 0.0;

  /// Node-side symmetry reduction (Section III-B-3): nodes proven
  /// interchangeable (core/symmetry.h) take non-decreasing host ids in
  /// expansion order.  The same-rack host rule is always on.
  bool symmetry_reduction = true;

  /// Seed for DBA*'s pruning decisions (and nothing else).
  std::uint64_t seed = 42;

  /// Evaluate EG's candidate fan through a NodeEstimateContext (per-node
  /// invariants of the estimate hoisted out of the per-host loop) instead
  /// of calling Estimator::candidate_estimate per candidate.  The context
  /// produces bit-identical estimates — this switch exists so differential
  /// tests can force the reference path, not as a tuning knob.
  bool use_estimate_context = true;

  /// Generate candidate hosts through the hierarchical feasibility index
  /// (dc::FeasibilityIndex subtree pruning; see DESIGN.md section 7)
  /// instead of the full O(hosts) linear can_place scan.  Both paths return
  /// bit-identical candidate lists — this switch exists so differential
  /// tests and ablations can force the reference scan, not as a tuning
  /// knob.
  bool use_candidate_index = true;

  /// Tighten the admissible bound (and the candidate descent) with the
  /// prune labels: the dc::FeasibilityIndex pair counters escalate pipe
  /// scopes no completion can avoid, its host climb prices placed-free
  /// pipes against the aggregates around the placed host, and the
  /// dc::DataCenter's tag-reachability bitmaps skip subtrees lacking a
  /// required hardware tag.  The tightened bound stays admissible, so
  /// BA*/DBA* return bit-identical optima while expanding fewer states
  /// (this IS a perf knob, differential-tested against the reference bound
  /// it replaces; see DESIGN.md section 12).
  bool use_prune_labels = true;

  /// Safety valve for BA*/DBA*: a hard bound on the open queue.  When it
  /// would hold more than this many paths the search stops and returns its
  /// incumbent (an EG completion), or fails if it has none yet
  /// (0 = unlimited).  See DESIGN.md section 8.
  std::size_t max_open_paths = 2'000'000;

  /// Deterministic expansion budget for BA*/DBA*: stop (keeping the best
  /// incumbent) once this many paths have been expanded (0 = unlimited).
  /// Unlike the open-queue valve — whose firing point depends on how
  /// pruning shapes the frontier — this caps the *work* directly, which
  /// makes bounded runs reproducible (benchmarks use it to hold the
  /// expansion count fixed).
  std::size_t max_expansions = 0;

  /// Retired and read by nothing: EG scores its candidates on the calling
  /// thread.  Kept only because perfbench/ still assigns it; ROADMAP item 1
  /// deletes it.
  std::size_t threads = 0;

  /// core::PlacementService only: how many times a request whose
  /// validate-and-commit gate fails (another request committed a
  /// conflicting placement between snapshot and commit) is replanned
  /// against a fresh snapshot before the service gives up and returns the
  /// placement uncommitted.  Planning and single-scheduler paths ignore it.
  std::uint32_t service_max_conflict_retries = 3;

  /// core::StreamingService only: capacity of the bounded admission queue.
  /// A submit that finds the queue full is rejected immediately (the
  /// admission-control answer to sustained overload) rather than queued
  /// into unbounded latency.  Must be >= 1.
  std::size_t stream_queue_capacity = 1024;

  /// DBA* children beam: after candidate generation (and the symmetry
  /// rules) only the best this-many children by estimated utility are
  /// queued.  Bounds the branching factor — a 2400-host fleet otherwise
  /// produces thousands of near-identical children per expansion, and the
  /// open queue drowns before any path completes.  Applies to DBA* only;
  /// BA* keeps every child (it claims optimality).  0 = unlimited.
  std::size_t dba_beam_width = 32;

  /// DBA* initial pruning-range r (Section III-C).  r starts at 0 (no
  /// pruning) and grows by the paper's alpha = 0.2 * (T / T_left) only
  /// under deadline pressure: a positive initial r makes P(x > s) = 1 at
  /// the shallow frontier, which would discard the root before the search
  /// learns anything.  r never grows past 0.5 (see astar.cpp).  Must be
  /// finite and non-negative.
  double initial_prune_range = 0.0;

  void validate() const;  ///< throws std::invalid_argument on bad values
};

/// A placement request: what to place, with what weights, and (for online
/// adaptation, Section IV-E) which nodes are pinned to their current hosts.
struct PlacementRequest {
  const topo::AppTopology* topology = nullptr;
  SearchConfig config;

  /// Pinned nodes: pinned[node] = host keeps that node fixed; use
  /// dc::kInvalidHost (or an empty vector) for free nodes.
  std::vector<dc::HostId> pinned;
};

/// Search diagnostics reported alongside the result.  The same quantities
/// are accumulated process-wide in the util::metrics registry (counter
/// names in the comments below); the struct carries the per-run view.
struct SearchStats {
  std::uint64_t paths_expanded = 0;  ///< open-queue pops that were expanded
                                     ///< ("astar.nodes_expanded")
  std::uint64_t paths_generated = 0;
  std::uint64_t paths_pruned_bound = 0;   ///< pruned by u >= u_upper
  std::uint64_t paths_pruned_random = 0;  ///< DBA* probabilistic pruning
  /// EG completions actually run: the root RunEG and every re-bound that
  /// ran EG ("astar.eg_reruns").  A re-bound
  /// from a state on the path of a feasible completion this search already
  /// computed would return that completion again; it runs nothing and
  /// counts only under "astar.eg_reruns_reused".
  std::uint64_t eg_reruns = 0;
  /// Candidate hosts scored during greedy host selection, over the initial
  /// EG run and every RunEG re-bounding ("greedy.candidates_evaluated").
  std::uint64_t candidates_evaluated = 0;
  /// Estimator::candidate_estimate invocations this run charged: EG's
  /// parallel utility fan in every completion counted by eg_reruns, plus
  /// DBA*'s sibling ranking ("estimator.candidate_estimates" is the
  /// process-wide total).  Re-bounds answered by a known completion
  /// charge nothing.
  std::uint64_t heuristic_calls = 0;
  /// Candidate hosts dropped before expansion by the symmetry rules: the
  /// interchangeable-node floor plus the same-rack interchangeable-host
  /// rule ("astar.symmetry_candidates_pruned").
  std::uint64_t symmetry_pruned = 0;
  /// Largest open-queue size observed ("astar.open_queue_size" summary).
  std::uint64_t open_queue_peak = 0;
  std::uint32_t max_depth = 0;  ///< deepest expanded search path
  /// BA*/DBA*: a work bound stopped the search, either the open-queue
  /// valve (max_open_paths) or the expansion cap (max_expansions).  The
  /// result is the incumbent, without an optimality certificate, or
  /// infeasible when there was none yet.  DBA*'s deadline and beam never
  /// set it.
  bool truncated = false;
  /// The bound that set `truncated` was the open-queue valve.  False when
  /// the expansion cap stopped the search.
  bool hit_open_limit = false;
  double runtime_seconds = 0.0;
  /// Bytes the search keeps after it returns.  Every search state and the
  /// open queue are freed when the run ends, so this is always 0; it stays
  /// so memory reports can keep reading it.
  std::size_t arena_bytes = 0;
};

/// Result of one placement computation.
struct Placement {
  /// True when every node was placed subject to all constraints.
  bool feasible = false;
  std::string failure_reason;

  /// True when the placement was also committed to an occupancy (by
  /// OstroScheduler::deploy/commit or the PlacementService).  plan() never
  /// sets it.  A deploy can return `feasible && !committed`: the placement
  /// is valid but was not applied — it overcommits link bandwidth (EG_C),
  /// or the service's conflict-retry ladder was exhausted
  /// (`failure_reason` says which).  Callers counting deployed stacks must
  /// test this flag, not `feasible`.
  bool committed = false;

  /// Node -> host (index = NodeId); dc::kInvalidHost when infeasible.
  net::Assignment assignment;

  /// Objective value in [0, 1] (lower is better) and its raw components.
  double utility = std::numeric_limits<double>::infinity();
  double reserved_bandwidth_mbps = 0.0;  ///< u_bw (bw x links traversed)
  int new_active_hosts = 0;              ///< u_c
  /// True when the placement exceeds some link's available bandwidth.
  /// Only EG_C (which ignores pipes by definition) can produce this; such
  /// a placement must not be committed.
  bool bandwidth_overcommitted = false;
  int hosts_used = 0;  ///< distinct hosts holding at least one node

  SearchStats stats;
};

}  // namespace ostro::core
