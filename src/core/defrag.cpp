#include "core/defrag.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/verify.h"
#include "datacenter/state_delta.h"
#include "util/metrics.h"
#include "util/timer.h"

namespace ostro::core {

namespace {

/// One stack node currently sitting on a vacate-candidate host.
struct Resident {
  std::size_t stack = 0;  ///< index into the registry snapshot
  topo::NodeId node = 0;
};

struct RankedHost {
  dc::HostId host = dc::kInvalidHost;
  double load = 0.0;  ///< used vcpus + used mem_gb
};

}  // namespace

PlacementService::MigrationBatch DefragPlanner::plan_batch(
    const dc::Occupancy& snapshot) const {
  PlacementService::MigrationBatch batch;
  if (config_.max_moves == 0) return batch;
  const dc::DataCenter& datacenter = snapshot.datacenter();
  const std::vector<DeployedStack> stacks = registry_->snapshot();
  if (stacks.empty()) return batch;

  // Reverse map: which stack nodes sit on each host.  Registry and
  // occupancy snapshots are taken at slightly different instants; the
  // commit gate re-checks everything, so planning on them is safe.
  std::vector<std::vector<Resident>> residents(datacenter.host_count());
  for (std::size_t s = 0; s < stacks.size(); ++s) {
    for (topo::NodeId n = 0; n < stacks[s].assignment.size(); ++n) {
      const dc::HostId h = stacks[s].assignment[n];
      if (h < datacenter.host_count()) residents[h].push_back({s, n});
    }
  }

  // Vacate candidates: active hosts carrying few resident nodes and some
  // free capacity, emptiest first — freeing them costs the fewest moves per
  // reclaimed host.  (A packed-full host is never worth vacating: its free
  // capacity is zero, so emptying it just shuffles load.)
  std::vector<RankedHost> sources;
  for (dc::HostId h = 0; h < datacenter.host_count(); ++h) {
    const std::vector<Resident>& r = residents[h];
    if (r.empty() || r.size() > config_.max_resident_nodes) continue;
    if (!snapshot.is_active(h)) continue;
    if (snapshot.available(h).is_zero()) continue;
    const topo::Resources used = snapshot.used(h);
    sources.push_back({h, used.vcpus + used.mem_gb});
  }
  std::sort(sources.begin(), sources.end(),
            [](const RankedHost& a, const RankedHost& b) {
              return a.load != b.load ? a.load < b.load : a.host < b.host;
            });

  // Targets: every active host, densest first (reverse best-fit-decreasing:
  // pack remnants into already-committed hosts).  Sources ARE candidate
  // targets — a denser sparse host is a fine destination for an emptier
  // one's nodes — except hosts this batch already vacated, which must stay
  // empty (refilling them would undo the whole point).
  std::vector<RankedHost> targets;
  for (dc::HostId h = 0; h < datacenter.host_count(); ++h) {
    if (!snapshot.is_active(h)) continue;
    const topo::Resources used = snapshot.used(h);
    targets.push_back({h, used.vcpus + used.mem_gb});
  }
  std::sort(targets.begin(), targets.end(),
            [](const RankedHost& a, const RankedHost& b) {
              return a.load != b.load ? a.load > b.load : a.host < b.host;
            });
  if (targets.empty()) return batch;
  std::vector<char> vacated_hosts(datacenter.host_count(), 0);

  // Batch-wide budgets.
  std::uint32_t move_cap = config_.max_moves;
  if (config_.downtime_per_move_seconds > 0.0) {
    const double by_downtime = std::floor(config_.downtime_budget_seconds /
                                          config_.downtime_per_move_seconds);
    move_cap = std::min<std::uint32_t>(
        move_cap, by_downtime <= 0.0
                      ? 0
                      : static_cast<std::uint32_t>(by_downtime));
  }

  // Working state across the whole batch: one staging delta over the
  // snapshot (so later hosts see earlier hosts' planned moves) plus the
  // planned assignment of every touched stack.
  dc::OccupancyDelta delta(snapshot);
  std::vector<net::Assignment> planned(stacks.size());
  std::vector<char> claimed(stacks.size(), 0);
  std::uint32_t moves = 0;
  double moved_gb = 0.0;

  for (const RankedHost& source : sources) {
    const std::vector<Resident>& res = residents[source.host];
    if (moves + res.size() > move_cap) continue;
    double host_gb = 0.0;
    for (const Resident& r : res) {
      host_gb += stacks[r.stack].topology->node(r.node).requirements.mem_gb;
    }
    if (moved_gb + host_gb > config_.max_move_gb) continue;
    // One migration member per stack: a stack already touched by an
    // earlier vacated host is off-limits for this batch.
    bool stack_conflict = false;
    std::unordered_set<std::size_t> touched;
    for (const Resident& r : res) {
      if (claimed[r.stack]) stack_conflict = true;
      touched.insert(r.stack);
    }
    if (stack_conflict) continue;

    // All-or-nothing vacate attempt on copies of the working state.
    dc::OccupancyDelta attempt = delta;
    std::vector<std::pair<std::size_t, net::Assignment>> candidate;
    candidate.reserve(touched.size());
    for (const std::size_t s : touched) {
      candidate.emplace_back(s, stacks[s].assignment);
    }
    const auto assignment_of = [&](std::size_t s) -> net::Assignment& {
      for (auto& [idx, a] : candidate) {
        if (idx == s) return a;
      }
      return candidate.front().second;  // unreachable: every s is in touched
    };

    bool vacated = true;
    for (const Resident& r : res) {
      const topo::AppTopology& topology = *stacks[r.stack].topology;
      net::Assignment& working = assignment_of(r.stack);
      bool placed = false;
      for (const RankedHost& target : targets) {
        if (target.host == source.host || vacated_hosts[target.host]) continue;
        // Structure first (cheap, occupancy-independent): zones, affinity,
        // latency, tags must hold with the node tentatively on the target.
        const dc::HostId previous = working[r.node];
        working[r.node] = target.host;
        if (!verify_assignment_structure(datacenter, topology, working)
                 .empty()) {
          working[r.node] = previous;
          continue;
        }
        working[r.node] = previous;
        // Capacity and bandwidth via a trial delta: stage the relocation
        // and drop the trial wholesale if anything refuses.
        dc::OccupancyDelta trial = attempt;
        try {
          net::stage_move(trial, topology, working, r.node, target.host);
        } catch (const std::exception&) {
          continue;  // target full (or a path saturated): next target
        }
        attempt = std::move(trial);
        placed = true;
        break;
      }
      if (!placed) {
        vacated = false;
        break;
      }
    }
    if (!vacated) continue;  // host skipped, working state untouched

    // Adopt the attempt: later source hosts plan on top of these moves.
    delta = std::move(attempt);
    vacated_hosts[source.host] = 1;
    for (auto& [s, assignment] : candidate) {
      claimed[s] = 1;
      planned[s] = std::move(assignment);
    }
    moves += static_cast<std::uint32_t>(res.size());
    moved_gb += host_gb;
    if (moves >= move_cap) break;
  }

  for (std::size_t s = 0; s < stacks.size(); ++s) {
    if (!claimed[s]) continue;
    PlacementService::MigrationMember member;
    member.stack_id = stacks[s].id;
    member.topology = stacks[s].topology;
    member.from = stacks[s].assignment;
    member.to = std::move(planned[s]);
    batch.members.push_back(std::move(member));
  }
  return batch;
}

DefragStats DefragPlanner::run_once() {
  static util::metrics::Counter& m_runs = util::metrics::counter("defrag.runs");
  static util::metrics::Counter& m_proposed =
      util::metrics::counter("defrag.moves_proposed");
  static util::metrics::Counter& m_committed =
      util::metrics::counter("defrag.moves_committed");
  static util::metrics::Counter& m_conflicts =
      util::metrics::counter("defrag.conflicts");
  static util::metrics::Counter& m_vacated =
      util::metrics::counter("defrag.hosts_vacated");
  static util::metrics::Counter& m_retries =
      util::metrics::counter("defrag.retries");
  static util::metrics::Summary& m_plan_seconds =
      util::metrics::summary("defrag.plan_seconds");
  static util::metrics::Summary& m_moved_gb =
      util::metrics::summary("defrag.moved_gb");
  m_runs.inc();

  DefragStats stats;
  for (std::uint32_t attempt = 0;; ++attempt) {
    PlacementService::MigrationBatch batch;
    {
      const util::metrics::ScopedTimer timer(m_plan_seconds);
      batch = plan_batch(service_->snapshot());
    }
    if (batch.members.empty()) break;

    std::unordered_set<dc::HostId> proposed_sources;
    for (const PlacementService::MigrationMember& member : batch.members) {
      for (std::size_t n = 0; n < member.from.size(); ++n) {
        if (member.from[n] != member.to[n]) {
          ++stats.moves_proposed;
          proposed_sources.insert(member.from[n]);
        }
      }
    }
    m_proposed.add(stats.moves_proposed);

    std::uint64_t epoch = 0;
    service_->try_commit_migration(batch, *registry_, &epoch);

    std::uint32_t committed_now = 0;
    std::uint32_t conflicts_now = 0;
    std::unordered_set<dc::HostId> vacated_sources;
    for (const PlacementService::MigrationMember& member : batch.members) {
      if (member.outcome == PlacementService::CommitOutcome::kCommitted) {
        ++stats.members_committed;
        ++committed_now;
        for (std::size_t n = 0; n < member.from.size(); ++n) {
          if (member.from[n] != member.to[n]) {
            ++stats.moves_committed;
            stats.moved_gb +=
                member.topology->node(static_cast<topo::NodeId>(n))
                    .requirements.mem_gb;
            vacated_sources.insert(member.from[n]);
          }
        }
      } else if (member.outcome ==
                 PlacementService::CommitOutcome::kConflict) {
        ++stats.conflicts;
        ++conflicts_now;
      }
    }
    if (committed_now > 0) {
      stats.commit_epoch = epoch;
      stats.hosts_vacated += static_cast<std::uint32_t>(vacated_sources.size());
      break;
    }
    if (conflicts_now == 0 || attempt >= config_.max_conflict_retries) break;
    ++stats.retries;
    m_retries.inc();
  }

  m_committed.add(stats.moves_committed);
  m_conflicts.add(stats.conflicts);
  m_vacated.add(stats.hosts_vacated);
  if (stats.moves_committed > 0) m_moved_gb.observe(stats.moved_gb);
  return stats;
}

}  // namespace ostro::core
