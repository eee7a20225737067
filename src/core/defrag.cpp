#include "core/defrag.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/verify.h"
#include "datacenter/state_delta.h"
#include "net/reservation.h"
#include "util/metrics.h"
#include "util/timer.h"

namespace ostro::core {

namespace {

/// Only hosts with at most this many resident nodes are vacate candidates:
/// emptier hosts free capacity at lower move cost.
constexpr std::size_t kMaxResidentNodes = 4;
/// Fresh-snapshot replans when every member of a batch conflicts.
constexpr std::uint32_t kMaxConflictRetries = 2;

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
    if (r.empty() || r.size() > kMaxResidentNodes) continue;
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

  // Working state across the whole batch: one staging delta over the
  // snapshot (so later hosts see earlier hosts' planned moves) plus the
  // planned assignment of every touched stack.
  dc::OccupancyDelta delta(snapshot);
  std::vector<net::Assignment> planned(stacks.size());
  std::vector<char> claimed(stacks.size(), 0);
  std::uint32_t moves = 0;

  for (const RankedHost& source : sources) {
    const std::vector<Resident>& res = residents[source.host];
    if (moves + res.size() > config_.max_moves) continue;
    // One migration member per stack: a stack already touched by an
    // earlier vacated host is off-limits for this batch.
    if (std::any_of(res.begin(), res.end(),
                    [&](const Resident& r) { return claimed[r.stack] != 0; })) {
      continue;
    }

    // All-or-nothing vacate attempt on copies of the working state.
    dc::OccupancyDelta attempt = delta;
    std::unordered_map<std::size_t, net::Assignment> candidate;
    for (const Resident& r : res) {
      candidate.try_emplace(r.stack, stacks[r.stack].assignment);
    }

    bool vacated = true;
    for (const Resident& r : res) {
      const topo::AppTopology& topology = *stacks[r.stack].topology;
      const topo::Resources& load = topology.node(r.node).requirements;
      net::Assignment& working = candidate.at(r.stack);
      // The stack leaves its working hosts once; each target is then tried
      // as the stack's reservation with the node moved there, so every
      // check sees the state the move leaves, as the commit gate does.
      dc::OccupancyDelta released = attempt;
      try {
        net::stage_ops(released, net::stack_ops(datacenter, topology, working),
                       net::OpDirection::kRelease);
      } catch (const std::invalid_argument&) {
        vacated = false;  // registry and snapshot disagree: skip the host
        break;
      }
      bool placed = false;
      for (const RankedHost& target : targets) {
        if (target.host == source.host || vacated_hosts[target.host]) continue;
        // Cheap checks first: the target's free capacity once the stack
        // left, then structure (zones, affinity, latency, tags).
        if (!load.fits_within(released.available(target.host))) continue;
        working[r.node] = target.host;
        if (!verify_assignment_structure(datacenter, topology, working)
                 .empty()) {
          continue;
        }
        // Capacity and bandwidth of the whole move: stage the stack's
        // reservation and drop the trial wholesale if anything refuses.
        dc::OccupancyDelta trial = released;
        try {
          net::stage_ops(trial, net::stack_ops(datacenter, topology, working),
                         net::OpDirection::kReserve);
        } catch (const std::invalid_argument&) {
          continue;  // a host or path of the stack saturated: next target
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
    if (moves >= config_.max_moves) break;
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

    for (const PlacementService::MigrationMember& member : batch.members) {
      for (std::size_t n = 0; n < member.from.size(); ++n) {
        if (member.from[n] != member.to[n]) ++stats.moves_proposed;
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
    if (conflicts_now == 0 || attempt >= kMaxConflictRetries) break;
    ++stats.retries;
    m_retries.inc();
  }

  m_vacated.add(stats.hosts_vacated);
  if (stats.moves_committed > 0) m_moved_gb.observe(stats.moved_gb);
  return stats;
}

}  // namespace ostro::core
