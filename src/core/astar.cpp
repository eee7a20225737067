#include "core/astar.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <queue>
#include <span>
#include <unordered_map>

#include "core/candidates.h"
#include "core/estimator.h"
#include "core/greedy.h"
#include "core/symmetry.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/timer.h"

namespace ostro::core {
namespace {

constexpr double kEps = 1e-12;

/// Upper cap on the DBA* pruning range r.  Pruning with probability
/// (r - s) / r confines path mortality to the shallowest r-fraction of the
/// search depth; beyond the cap the frontier would die out faster than the
/// candidate fan can replenish it and no path could ever complete.
constexpr double kMaxPruneRange = 0.5;

/// The paper's adaptation constant: r grows by
/// alpha = kAlphaFactor * (T / T_left) under deadline pressure
/// (Section III-C).
constexpr double kAlphaFactor = 0.2;

using StateRef = std::shared_ptr<const PartialPlacement>;

/// A search path.  Children are *lazy*: they hold their parent's
/// materialized state plus the one (node -> host) decision and a cheap
/// admissible priority; the actual PartialPlacement is built only if the
/// path is popped.  This makes generating a child O(degree) instead of
/// O(|V| + place), which is what lets the search expand thousands of paths
/// per second against a 2400-host data center.
struct PathEntry {
  StateRef parent;                         // materialized ancestor; null = root
  topo::NodeId node = topo::kInvalidNode;  // decision on top of parent
  dc::HostId host = dc::kInvalidHost;
  double priority = 0.0;  // ordering key (see "Ordering regime")
  bool exact = false;     // priority was computed on the materialized state
  std::uint32_t depth = 0;
  std::uint64_t sequence = 0;  // insertion order; deterministic tie-break
};

/// BA* pops the least-priority path (best-first on the admissible bound,
/// Algorithm 2).  DBA* pops the deepest path first and breaks depth ties by
/// priority: a best-child-first depth-first search with backtracking.  This
/// is the concrete form of the paper's "the search is biased to be depth
/// first" — it guarantees the search keeps completing placements (one dive
/// is at most |V| pops), which is what makes DBA* an anytime algorithm
/// whose result improves with T.
///
/// Sequence numbers are unique among queued entries, so this comparator
/// defines a strict total order: the popped minimum is unique, and the pop
/// sequence does not depend on the heap implementation.
struct PathOrder {
  bool depth_first = false;

  bool operator()(const PathEntry& a, const PathEntry& b) const noexcept {
    if (depth_first && a.depth != b.depth) {
      return a.depth < b.depth;  // max-heap on depth
    }
    if (a.priority != b.priority) return a.priority > b.priority;  // min-heap
    if (a.depth != b.depth) return a.depth < b.depth;  // deeper first
    return a.sequence > b.sequence;
  }
};

/// Admissible lower bound on the utility of completing `parent` with
/// `node` placed on `host`, computed without cloning the parent:
///   - pipes to placed neighbors get their actual cost;
///   - pipes to free neighbors get the separation that placing node@host
///     already forces (zones, pairwise zone with the node, residual);
///   - all other open pipes keep their parent bound.
/// Ignoring the zone-mate bound refreshes place() would do only loosens the
/// bound, so the estimate never exceeds the materialized value.
/// `parent_bounds[i]` is `parent.edge_bound` of the i-th pipe of `node`,
/// which every candidate host of one expansion shares.
struct ChildScore {
  double ubw = 0.0;        ///< committed link-weighted bandwidth after the move
  double bound_rem = 0.0;  ///< admissible bound on the remaining pipes
  double uc = 0.0;         ///< newly-active hosts after the move
};

[[nodiscard]] ChildScore child_priority(
    const PartialPlacement& parent, topo::NodeId node, dc::HostId host,
    std::span<const double> parent_bounds) {
  const topo::AppTopology& topology = parent.topology();
  const dc::DataCenter& datacenter = parent.datacenter();
  double ubw = parent.ubw();
  double bound = parent.remaining_bw_bound();
  const topo::Resources residual =
      parent.available(host) - topology.node(node).requirements;
  const std::span<const topo::Neighbor> neighbors = topology.neighbors(node);
  for (std::size_t i = 0; i < neighbors.size(); ++i) {
    const topo::Neighbor& nb = neighbors[i];
    bound -= parent_bounds[i];
    const dc::HostId other = parent.host_of(nb.node);
    if (other != dc::kInvalidHost) {
      ubw += Objective::edge_cost(nb.bandwidth_mbps,
                                  datacenter.scope_between(host, other));
      continue;
    }
    dc::Scope scope = parent.zone_scope_to_host(nb.node, host);
    if (const auto level = topology.required_separation(node, nb.node)) {
      scope = std::max(scope, dc::forced_scope(*level));
    }
    if (scope == dc::Scope::kSameHost &&
        !topology.node(nb.node).requirements.fits_within(residual)) {
      scope = dc::Scope::kSameRack;
    }
    if (parent.use_prune_labels() && scope != dc::Scope::kSameHost) {
      // Same climb the materialized child's edge_lower_bound will run; the
      // climb is monotone in the entry scope and reads only base-occupancy
      // aggregates (constant during one search), so this lazy priority
      // never exceeds the exact bound — the open queue's re-queue test
      // stays sound.
      const topo::Resources& req = topology.node(nb.node).requirements;
      scope = parent.base().feasibility().tighten_to_host(
          scope, host, req, dc::requires_compute(req), nb.bandwidth_mbps,
          parent.base());
    }
    bound += Objective::edge_cost(nb.bandwidth_mbps, scope);
  }
  ChildScore score;
  score.ubw = ubw;
  score.bound_rem = std::max(0.0, bound);
  score.uc = parent.new_active_hosts() +
             (parent.is_active(host) ? 0.0 : 1.0);
  return score;
}

/// What two candidate hosts of one rack must share to be interchangeable:
/// free vcpus, memory and disk, host-uplink headroom, active flag and tags
/// (read through `host`).
struct HostClass {
  dc::HostId host = dc::kInvalidHost;
  topo::Resources free;
  double uplink_headroom = 0.0;
  bool active = false;
};

/// Host-side symmetry rule (Section III-B-3): drops every candidate that
/// an earlier kept candidate of the same rack is interchangeable with.
/// Two hosts are interchangeable when neither holds a node of the plan and
/// their HostClass values are equal: swapping them then maps the fleet,
/// its occupancy and the plan onto themselves, so both generate isomorphic
/// search subtrees.  Hosts of different racks are never merged, because
/// their rack siblings may differ.  Candidates ascend, so each class keeps
/// its lowest id; with the node floor rule (also lowest-id-first), the
/// lexicographically least placement of every symmetry orbit survives both
/// rules, which preserves optimality.  `kept` is caller-owned scratch
/// bucketed by rack id; the bucket only groups, the values decide.
void drop_interchangeable_hosts(
    const PartialPlacement& state, std::vector<dc::HostId>& candidates,
    std::unordered_map<std::uint32_t, std::vector<HostClass>>& kept) {
  const dc::DataCenter& datacenter = state.datacenter();
  for (auto& bucket : kept) bucket.second.clear();
  std::size_t survivors = 0;
  for (const dc::HostId host : candidates) {
    if (!state.holds_node(host)) {
      const HostClass mine{host, state.available(host),
                           state.link_available(datacenter.host_link(host)),
                           state.is_active(host)};
      const std::vector<std::string>& tags = datacenter.host(host).tags;
      std::vector<HostClass>& rack_kept = kept[datacenter.host(host).rack];
      const bool merged = std::any_of(
          rack_kept.begin(), rack_kept.end(), [&](const HostClass& other) {
            return other.free == mine.free &&
                   other.uplink_headroom == mine.uplink_headroom &&
                   other.active == mine.active &&
                   datacenter.host(other.host).tags == tags;
          });
      if (merged) continue;
      rack_kept.push_back(mine);
    }
    candidates[survivors++] = host;
  }
  candidates.resize(survivors);
}

/// Probability that a popped path at progress s is pruned: P(x > s) for
/// x ~ U[0, r); 0 when r == 0 (pruning disabled until pressure builds).
[[nodiscard]] double prune_probability(double r, double s) noexcept {
  if (r <= 0.0 || s >= r) return 0.0;
  return (r - s) / r;
}

/// A feasible EG completion computed during one search: the depth in the
/// expansion order of the state EG started from, and the placement it
/// returned.
struct KnownCompletion {
  std::uint32_t depth = 0;
  net::Assignment assignment;
};

/// True when `state`, at `depth` in `order`, lies on the path EG took to
/// one of `known`: that run started at a depth <= `depth` and placed
/// order[0..depth) as `state` does.  `state` is then the very state EG
/// reached at that step, built by the same place() calls from the same
/// initial state, and EG is deterministic in its start state, so EG from
/// `state` would return that completion again.
[[nodiscard]] bool on_known_completion(const PartialPlacement& state,
                                       std::span<const topo::NodeId> order,
                                       std::uint32_t depth,
                                       std::span<const KnownCompletion> known) {
  const std::span<const topo::NodeId> prefix = order.first(depth);
  return std::any_of(
      known.begin(), known.end(), [&](const KnownCompletion& completion) {
        return completion.depth <= depth &&
               std::all_of(prefix.begin(), prefix.end(), [&](topo::NodeId v) {
                 return state.host_of(v) == completion.assignment[v];
               });
      });
}

/// Incumbent: the best complete placement known so far.
struct Incumbent {
  std::optional<PartialPlacement> state;
  double utility = std::numeric_limits<double>::infinity();

  void offer(PartialPlacement candidate) {
    const double u = candidate.utility_committed();
    if (u < utility) {
      utility = u;
      state = std::move(candidate);
    }
  }
};

}  // namespace

AStarOutcome run_astar(PartialPlacement initial, const SearchConfig& config,
                       bool deadline_bounded, util::ThreadPool* pool) {
  // Process-wide counters mirroring the per-run SearchStats; BA* and DBA*
  // share the "astar." namespace.
  static util::metrics::Counter& m_runs = util::metrics::counter("astar.runs");
  static util::metrics::Counter& m_expanded =
      util::metrics::counter("astar.nodes_expanded");
  static util::metrics::Counter& m_generated =
      util::metrics::counter("astar.paths_generated");
  static util::metrics::Counter& m_pruned_bound =
      util::metrics::counter("astar.paths_pruned_bound");
  static util::metrics::Counter& m_pruned_random =
      util::metrics::counter("astar.paths_pruned_random");
  static util::metrics::Counter& m_symmetry =
      util::metrics::counter("astar.symmetry_candidates_pruned");
  static util::metrics::Counter& m_eg_reruns =
      util::metrics::counter("astar.eg_reruns");
  static util::metrics::Counter& m_eg_reused =
      util::metrics::counter("astar.eg_reruns_reused");
  static util::metrics::Counter& m_estimates =
      util::metrics::counter("estimator.candidate_estimates");
  static util::metrics::Summary& m_open_size =
      util::metrics::summary("astar.open_queue_size");
  static util::metrics::Summary& m_run_seconds =
      util::metrics::summary("astar.run_seconds");
  static util::metrics::Summary& m_eg_seconds =
      util::metrics::summary("astar.eg_rerun_seconds");
  const util::metrics::ScopedTimer phase_timer(m_run_seconds);
  m_runs.inc();

  util::WallTimer timer;
  const topo::AppTopology& topology = initial.topology();

  AStarOutcome outcome(initial);
  SearchStats& stats = outcome.stats;

  // Expansion order: the free (not pre-placed/pinned) nodes in EG's sort
  // order.  BA* does not *require* sorting (Section III-B-1) — any fixed
  // order preserves optimality — but expanding heavy nodes first lets the
  // bound grow early and makes DBA*'s dives coincide with EG's decision
  // sequence, so its very first completed dive already matches the greedy
  // incumbent and every later dive explores a deviation from it.
  const std::vector<topo::NodeId> greedy_order = eg_sort_order(topology);
  std::vector<topo::NodeId> order;
  for (const topo::NodeId v : greedy_order) {
    if (!initial.is_placed(v)) order.push_back(v);
  }

  // Node-side symmetry reduction (Section III-B-3), the floor rule:
  // interchangeable free nodes take non-decreasing host ids in expansion
  // order.  prev_in_group[i] = index into `order` of the previous free node
  // in the same group, or -1.
  std::vector<std::int64_t> prev_in_group(order.size(), -1);
  if (config.symmetry_reduction) {
    const SymmetryGroups groups = detect_symmetry_groups(topology);
    std::unordered_map<std::uint32_t, std::size_t> last_of_group;
    for (std::size_t i = 0; i < order.size(); ++i) {
      const auto g = groups.group_of[order[i]];
      const auto it = last_of_group.find(g);
      if (it != last_of_group.end()) {
        prev_in_group[i] = static_cast<std::int64_t>(it->second);
      }
      last_of_group[g] = i;
    }
  }

  // The deadline covers the initial EG run too — the paper's usable lower
  // bound for T is two times EG's running time (Section III-C).
  const util::Deadline deadline(deadline_bounded ? config.deadline_seconds
                                                 : 0.0);

  // RunEG (Algorithm 2, lines 3 and 17): greedy completion as upper bound.
  // Every feasible completion is kept so that a re-bound from a state on
  // its path can be skipped (on_known_completion).
  Incumbent incumbent;
  std::vector<KnownCompletion> known_completions;
  double last_eg_seconds = 0.0;
  const auto run_eg = [&](const PartialPlacement& from, std::uint32_t depth) {
    const util::WallTimer eg_timer;
    ++stats.eg_reruns;
    m_eg_reruns.inc();
    GreedyOutcome eg = run_greedy(Algorithm::kEg, from, greedy_order, pool,
                                  config.use_estimate_context,
                                  config.use_candidate_index);
    stats.candidates_evaluated += eg.stats.candidates_evaluated;
    stats.heuristic_calls += eg.stats.heuristic_calls;
    if (eg.feasible) {
      known_completions.push_back({depth, eg.state.assignment()});
      incumbent.offer(std::move(eg.state));
    }
    last_eg_seconds = eg_timer.elapsed_seconds();
    m_eg_seconds.observe(last_eg_seconds);
  };
  run_eg(initial, 0);
  // Re-bounding cadence: a full EG completion costs seconds at paper scale,
  // so it is re-run only when the search has advanced a meaningful stride
  // deeper ("u_upper decreases over time since the remaining V_p gets
  // smaller", Section III-B-2) and only when the deadline can afford it.
  const std::uint32_t eg_stride = static_cast<std::uint32_t>(
      std::max<std::size_t>(1, order.size() / 10));
  std::uint32_t last_eg_depth = 0;

  // Ordering regime.  BA* orders strictly by the admissible bound, which
  // makes the first completed pop provably optimal (Algorithm 2 lines 6-7).
  // DBA* gives up optimality anyway: it pops the deepest path first and
  // ranks siblings by EG's per-candidate estimate (NodeEstimateContext, or
  // Estimator::candidate_estimate without the context; see the expansion
  // loop), which is sharper than the bound but not necessarily admissible.
  // With the weak bound a best-first search degenerates into breadth-first
  // near the root; the estimate-ranked dive reaches a completion early and
  // backtracks to the next-best estimates.  Pruning and incumbent
  // comparisons always use the admissible bound, so no path that could
  // beat the incumbent is ever discarded by the estimate.  DBA* with no
  // deadline is the deterministic form of this estimate-ordered search.

  // Open queue (OQ of Algorithm 2).  No closed queue: with a fixed
  // expansion order each state has exactly one path from the root, and the
  // floor rule keeps one state of those that differ only by a permutation
  // of interchangeable nodes.
  std::priority_queue<PathEntry, std::vector<PathEntry>, PathOrder> open(
      PathOrder{deadline_bounded});

  std::uint64_t sequence = 0;
  open.push(PathEntry{nullptr, topo::kInvalidNode, dc::kInvalidHost,
                      initial.utility_bound(), !deadline_bounded, 0,
                      sequence++});
  ++stats.paths_generated;
  m_generated.inc();

  // DBA* machinery.
  util::Rng rng(config.seed);
  double prune_range = deadline_bounded ? config.initial_prune_range : 0.0;
  std::vector<double> open_by_depth(order.size() + 1, 0.0);
  open_by_depth[0] = 1.0;
  double avg_pop_seconds = 1e-4;   // refined from the measured pop rate
  double avg_branching = 2.0;      // |P̄| of Section III-C
  double eg_total_seconds = 0.0;
  std::uint64_t pops_total = 0;
  double next_check_elapsed =
      deadline.is_unlimited() ? std::numeric_limits<double>::infinity()
                              : deadline.budget_seconds() / 2.0;

  const auto finish = [&](bool feasible, std::string why) {
    outcome.feasible = feasible;
    outcome.failure = std::move(why);
    if (incumbent.state) outcome.state = std::move(*incumbent.state);
    stats.runtime_seconds = timer.elapsed_seconds();
    return outcome;
  };

  std::uint32_t max_depth_seen = 0;
  // Scratch reused across expansions.
  EstimateScratch estimate_scratch;
  CandidateBuffer candidate_buf;
  std::unordered_map<std::uint32_t, std::vector<HostClass>> kept_classes;
  std::vector<double> parent_bounds;
  // Children are (order_utility, host) pairs; the pair's lexicographic
  // order matches the old (order, host) comparator exactly.
  std::vector<std::pair<double, dc::HostId>> children;

  while (!open.empty()) {
    if (deadline_bounded && deadline.expired()) {
      return finish(incumbent.state.has_value(),
                    incumbent.state ? "" : "deadline expired with no solution");
    }

    stats.open_queue_peak =
        std::max<std::uint64_t>(stats.open_queue_peak, open.size());
    const PathEntry entry = open.top();
    open.pop();
    ++pops_total;

    // Algorithm 2 line 6: the least-u path cannot beat the incumbent.
    // Sound only when the queue is ordered by the admissible bound.
    if (!deadline_bounded && entry.priority >= incumbent.utility - kEps) {
      return finish(incumbent.state.has_value(),
                    incumbent.state ? "" : "search exhausted; infeasible");
    }

    // Materialize the state: clone parent + apply the decision, unless this
    // is the root or a re-queued already-materialized entry.
    StateRef state;
    if (!entry.parent) {
      state = std::make_shared<const PartialPlacement>(initial);
    } else if (entry.node == topo::kInvalidNode) {
      state = entry.parent;  // re-queued exact entry: state IS the parent
    } else {
      auto child = std::make_shared<PartialPlacement>(*entry.parent);
      child->place(entry.node, entry.host);
      state = std::move(child);
    }

    // Pop-time bound check (line 11 semantics, applied lazily): discard a
    // materialized path that can no longer beat the incumbent.
    const double exact_bound = state->utility_bound();
    if (exact_bound >= incumbent.utility - kEps) {
      ++stats.paths_pruned_bound;
      m_pruned_bound.inc();
      open_by_depth[entry.depth] -= 1.0;
      continue;
    }

    // Lazy priorities may under-estimate.  Under admissible ordering the
    // best-first order must stay truthful, so the entry is re-queued with
    // the exact value when it moved; under DBA*'s estimate ordering the
    // priorities are heuristic anyway and a re-queue would put every child
    // on a materialize-punish-bury treadmill (the pop-time estimate does not
    // shrink the way the generation-time proxy assumed), so the path is
    // simply expanded with the priority it was popped at.
    if (!deadline_bounded && !entry.exact) {
      if (exact_bound > entry.priority + kEps) {
        // Keep the materialized state: a later pop reuses it directly.
        open.push(PathEntry{state, topo::kInvalidNode, dc::kInvalidHost,
                            exact_bound, true, entry.depth, entry.sequence});
        continue;
      }
    }
    open_by_depth[entry.depth] -= 1.0;

    // Algorithm 2 line 7: a complete path with least u is the answer under
    // admissible ordering; under DBA*'s estimate ordering it is a new
    // incumbent and the search continues until the deadline or the queue
    // drains.
    if (state->complete()) {
      incumbent.offer(*state);
      if (!deadline_bounded) return finish(true, "");
      continue;
    }

    // Re-bound with EG (lines 15-18; u_upper tightens as the remaining node
    // set shrinks).  This is where most of DBA*'s quality comes from: a raw
    // search path rarely survives the probabilistic pruning all the way to
    // depth |V|, so the solutions the search actually returns are greedy
    // completions of the diverse prefixes it explored — "the search can be
    // safely finished with u_upper".  DBA* therefore spends up to half of
    // its elapsed time running EG completions from popped states; BA* (and
    // deadline-less DBA*, which must stay deterministic) re-bounds only
    // when the search reaches a new depth.  A state on the path of a known
    // completion would only re-offer it, so its re-bound is answered
    // without running EG; the cadence (last_eg_depth) advances either way.
    bool want_eg = false;
    if (entry.depth > max_depth_seen) {
      max_depth_seen = entry.depth;
      stats.max_depth = max_depth_seen;
      want_eg = entry.depth - last_eg_depth >= eg_stride;
    }
    if (want_eg) {
      const bool affordable =
          !deadline_bounded ||
          deadline.remaining_seconds() > 1.5 * last_eg_seconds;
      if (affordable) {
        last_eg_depth = std::max(last_eg_depth, entry.depth);
        if (on_known_completion(*state, order, entry.depth,
                                known_completions)) {
          m_eg_reused.inc();
        } else {
          run_eg(*state, entry.depth);
          eg_total_seconds += last_eg_seconds;
        }
      }
    }

    // Branch: all candidate hosts for the next free node (line 8).
    const topo::NodeId node = order[entry.depth];
    std::vector<dc::HostId>& candidates = get_candidates(
        *state, node, candidate_buf, true, config.use_candidate_index);
    const std::size_t fan_before = candidates.size();
    if (config.symmetry_reduction && prev_in_group[entry.depth] >= 0) {
      const topo::NodeId prev =
          order[static_cast<std::size_t>(prev_in_group[entry.depth])];
      const dc::HostId floor_host = state->host_of(prev);
      std::erase_if(candidates,
                    [floor_host](dc::HostId h) { return h < floor_host; });
    }
    drop_interchangeable_hosts(*state, candidates, kept_classes);
    const std::uint64_t symmetry_dropped = fan_before - candidates.size();
    stats.symmetry_pruned += symmetry_dropped;
    m_symmetry.add(symmetry_dropped);

    ++stats.paths_expanded;
    m_expanded.inc();
    m_open_size.observe(static_cast<double>(open.size()));
    std::uint64_t inserted = 0;
    const StateRef& parent = state;
    children.clear();
    children.reserve(candidates.size());
    // DBA* ranks siblings with EG's candidate estimate (GetHeuristic of
    // Algorithm 1): the dive's first choice at every level is then exactly
    // the host EG would pick, and backtracking alternatives are the
    // next-best estimates.  BA* orders by the admissible bound.
    const double rest_bound =
        deadline_bounded ? Estimator::rest_bound(*parent, node) : 0.0;
    // The per-node invariants of the estimate are shared by the whole
    // sibling fan; hoist them once per expansion (results bit-identical to
    // per-candidate calls; see NodeEstimateContext).
    std::optional<NodeEstimateContext> estimate_context;
    if (deadline_bounded && config.use_estimate_context) {
      estimate_context.emplace(*parent, node, rest_bound);
    }
    parent_bounds.clear();
    for (const auto& nb : topology.neighbors(node)) {
      parent_bounds.push_back(parent->edge_bound(nb.edge_index));
    }
    // The fan's estimate and prune counts are published once per
    // expansion, after the loop (see util/metrics.h).
    std::uint64_t estimates = 0;
    std::uint64_t pruned_bound = 0;
    std::uint64_t pruned_random = 0;
    for (const dc::HostId host : candidates) {
      const ChildScore score =
          child_priority(*parent, node, host, parent_bounds);
      const double bound_utility =
          parent->objective().utility(score.ubw + score.bound_rem, score.uc);
      if (bound_utility >= incumbent.utility - kEps) {  // line 11 bounding
        ++pruned_bound;
        continue;
      }
      double order_utility = bound_utility;
      if (deadline_bounded) {
        ++estimates;
        const Estimate est =
            estimate_context
                ? estimate_context->estimate(host, estimate_scratch)
                : Estimator::candidate_estimate(*parent, node, host,
                                                rest_bound);
        order_utility = parent->objective().utility(
            parent->ubw() + est.ubw, parent->new_active_hosts() + est.uc);
      }
      // DBA* probabilistic pruning (Section III-C): "these new paths are
      // pruned at the rate p(x > s) as well before being inserted into
      // OQ".  Applied to the full candidate fan before the beam, so the
      // wide fan replenishes the shallow frontier faster than the pruning
      // kills it — with per-pop pruning on top, no lineage could ever
      // survive to depth |V|.
      if (deadline_bounded) {
        const double s = static_cast<double>(entry.depth + 1) /
                         static_cast<double>(order.size());
        if (rng.chance(prune_probability(prune_range, s))) {
          ++pruned_random;
          continue;
        }
      }
      children.push_back({order_utility, host});
    }
    // DBA* children beam (see SearchConfig::dba_beam_width): keep only the
    // most promising children; BA* keeps all of them for optimality.
    if (deadline_bounded && config.dba_beam_width > 0 &&
        children.size() > config.dba_beam_width) {
      std::nth_element(
          children.begin(),
          children.begin() + static_cast<long>(config.dba_beam_width),
          children.end());
      pruned_random += children.size() - config.dba_beam_width;
      children.resize(config.dba_beam_width);
      std::sort(children.begin(), children.end());
    }
    stats.heuristic_calls += estimates;
    m_estimates.add(estimates);
    stats.paths_pruned_bound += pruned_bound;
    m_pruned_bound.add(pruned_bound);
    stats.paths_pruned_random += pruned_random;
    m_pruned_random.add(pruned_random);
    for (const auto& [order_utility, child_host] : children) {
      open.push(PathEntry{parent, node, child_host, order_utility, false,
                          entry.depth + 1, sequence++});
      open_by_depth[entry.depth + 1] += 1.0;
      ++stats.paths_generated;
      ++inserted;
    }
    m_generated.add(inserted);
    avg_branching = 0.9 * avg_branching + 0.1 * static_cast<double>(inserted);
    // Average pop cost over every pop so far (pruned pops are far cheaper
    // than expansions; an expansion-only average overestimates the load by
    // orders of magnitude and drives the pruning rate into a death spiral).
    avg_pop_seconds =
        std::max(1e-7, (timer.elapsed_seconds() - eg_total_seconds) /
                           static_cast<double>(pops_total));

    if (config.max_open_paths != 0 && open.size() > config.max_open_paths) {
      stats.truncated = true;
      stats.hit_open_limit = true;
      return finish(incumbent.state.has_value(),
                    incumbent.state ? "" : "open-queue limit hit; no solution");
    }

    // Deterministic expansion budget (SearchConfig::max_expansions): caps
    // the work directly, independent of how pruning shapes the frontier.
    // It leaves hit_open_limit clear, so callers can tell which bound
    // stopped the search.
    if (config.max_expansions != 0 &&
        stats.paths_expanded >= config.max_expansions) {
      stats.truncated = true;
      return finish(incumbent.state.has_value(),
                    incumbent.state ? "" : "expansion budget hit; no solution");
    }

    // DBA* load estimation at the half-deadline checkpoints.
    if (deadline_bounded && deadline.elapsed_seconds() >= next_check_elapsed) {
      const double t_left = deadline.remaining_seconds();
      if (t_left <= 0.0) {
        return finish(incumbent.state.has_value(),
                      incumbent.state ? "" : "deadline expired");
      }
      // |P|: paths we can still handle; |P_left|: expected paths to handle,
      // via the L[i] recurrence of Section III-C.
      const double can_handle = t_left / std::max(1e-9, avg_pop_seconds);
      std::vector<double> load = open_by_depth;
      double expected = 0.0;
      for (std::size_t i = 0; i < order.size(); ++i) {
        const double s =
            static_cast<double>(i) / static_cast<double>(order.size());
        const double survive = 1.0 - prune_probability(prune_range, s);
        expected += load[i] * survive;
        load[i + 1] += load[i] * survive * survive * avg_branching;
      }
      if (expected > can_handle) {
        prune_range = std::min(
            kMaxPruneRange,
            prune_range +
                kAlphaFactor * (deadline.budget_seconds() / t_left));
      }
      next_check_elapsed = deadline.elapsed_seconds() + t_left / 2.0;
    }
  }

  return finish(incumbent.state.has_value(),
                incumbent.state ? "" : "no feasible placement exists");
}

}  // namespace ostro::core
