#include "core/service.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/objective.h"
#include "core/verify.h"
#include "datacenter/state_delta.h"
#include "util/metrics.h"
#include "util/timer.h"

namespace ostro::core {

namespace {

/// The commit gate for a stale plan: stages the stack's ops against the
/// live occupancy exactly as the default commit will, so a plan the gate
/// passes cannot then fail to commit.
bool fits_live(const dc::Occupancy& live, const topo::AppTopology& topology,
               const net::Assignment& assignment) {
  dc::OccupancyDelta delta(live);
  try {
    net::stage_ops(delta,
                   net::stack_ops(live.datacenter(), topology, assignment),
                   net::OpDirection::kReserve);
  } catch (const std::invalid_argument&) {
    return false;
  }
  return true;
}

}  // namespace

void report_activated_hosts(Placement& placement, std::size_t activated,
                            const topo::AppTopology& topology,
                            const dc::DataCenter& datacenter,
                            const SearchConfig& config) {
  const int hosts = static_cast<int>(activated);
  if (hosts == placement.new_active_hosts) return;
  placement.new_active_hosts = hosts;
  placement.utility = Objective(topology, datacenter, config)
                          .utility(placement.reserved_bandwidth_mbps, hosts);
}

std::uint64_t PlacementService::epoch() const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  return scheduler_->occupancy().version();
}

dc::Occupancy PlacementService::snapshot() const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  return scheduler_->occupancy();
}

dc::FeasibilityIndex::Aggregate PlacementService::root_aggregate() const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  return scheduler_->occupancy().feasibility().root();
}

PlannedPlacement PlacementService::plan(const topo::AppTopology& topology,
                                        Algorithm algorithm) const {
  return plan(topology, algorithm, scheduler_->defaults());
}

PlannedPlacement PlacementService::plan(const topo::AppTopology& topology,
                                        Algorithm algorithm,
                                        const SearchConfig& config) const {
  // Snapshot under the shared lock, search with no lock held: the commit
  // critical section stays short no matter how expensive the search is.
  const dc::Occupancy snap = snapshot();
  PlannedPlacement planned;
  planned.epoch = snap.version();
  planned.placement =
      scheduler_->plan_against(snap, topology, algorithm, config);
  return planned;
}

PlacementService::CommitOutcome PlacementService::try_commit(
    const topo::AppTopology& topology, PlannedPlacement& planned,
    std::uint64_t* commit_epoch) {
  return try_commit_with(topology, planned, Committer{}, commit_epoch);
}

PlacementService::CommitOutcome PlacementService::try_commit_with(
    const topo::AppTopology& topology, PlannedPlacement& planned,
    const Committer& committer, std::uint64_t* commit_epoch) {
  static util::metrics::Counter& m_conflicts =
      util::metrics::counter("service.conflicts");
  static util::metrics::Counter& m_rejected =
      util::metrics::counter("service.rejected");
  static util::metrics::Summary& m_commit_wait =
      util::metrics::summary("service.commit_wait_seconds");

  // Deterministic rejects need no lock: an infeasible or bandwidth-
  // overcommitted plan can never commit no matter what the live occupancy
  // looks like.
  Placement& placement = planned.placement;
  if (!placement.feasible || placement.bandwidth_overcommitted) {
    if (placement.feasible && placement.failure_reason.empty()) {
      placement.failure_reason =
          "placement overcommits link bandwidth; not committed";
    }
    m_rejected.inc();
    return CommitOutcome::kRejected;
  }

  util::WallTimer wait_timer;
  const std::unique_lock<std::shared_mutex> lock(mutex_);
  m_commit_wait.observe(wait_timer.elapsed_seconds());

  // Epoch gate.  An unchanged version proves no mutation interleaved since
  // the snapshot, so the plan's own checks still hold.  Otherwise the
  // plan's ops are staged against the live occupancy with the commit's own
  // arithmetic; the structure checks (tags, zones, affinity, latency) do
  // not depend on occupancy and held when the plan was made.
  if (scheduler_->occupancy().version() != planned.epoch &&
      !fits_live(scheduler_->occupancy(), topology, placement.assignment)) {
    m_conflicts.inc();
    return CommitOutcome::kConflict;
  }
  if (committer) {
    std::string failure;
    if (!committer(placement, failure)) {
      placement.failure_reason = std::move(failure);
      m_rejected.inc();
      return CommitOutcome::kRejected;
    }
  } else {
    scheduler_->commit(topology, placement);
  }
  placement.committed = true;
  if (commit_epoch != nullptr) {
    *commit_epoch = scheduler_->occupancy().version();
  }
  return CommitOutcome::kCommitted;
}

bool PlacementService::release_stack(StackRegistry& registry, StackId id,
                                     bool deactivate_emptied,
                                     std::uint64_t* commit_epoch,
                                     DeployedStack* released) {
  static util::metrics::Counter& m_releases =
      util::metrics::counter("service.stack_releases");
  const std::unique_lock<std::shared_mutex> lock(mutex_);
  // Look up first, remove only after the release succeeded: a throwing
  // release (which would mean corrupted accounting) must not silently drop
  // the registry record.  No one can interleave between the two steps —
  // every lifecycle mutation holds this writer lock.
  std::optional<DeployedStack> stack = registry.get(id);
  if (!stack.has_value()) return false;  // double-release guard
  net::release_placement(scheduler_->occupancy(), *stack->topology,
                         stack->assignment, deactivate_emptied);
  (void)registry.remove(id);
  if (commit_epoch != nullptr) {
    *commit_epoch = scheduler_->occupancy().version();
  }
  if (released != nullptr) *released = std::move(*stack);
  m_releases.inc();
  return true;
}

topo::Resources PlacementService::fail_host(StackRegistry& registry,
                                            dc::HostId host,
                                            std::size_t* stacks_killed,
                                            std::uint64_t* commit_epoch) {
  static util::metrics::Counter& m_failures =
      util::metrics::counter("service.host_failures");
  static util::metrics::Counter& m_evictions =
      util::metrics::counter("service.failure_evictions");
  const std::unique_lock<std::shared_mutex> lock(mutex_);
  dc::Occupancy& occupancy = scheduler_->occupancy();
  // Kill every resident stack outright (the paper's stacks have no
  // per-node restart story; the lifecycle simulator re-submits them as
  // fresh arrivals when configured to).
  std::size_t killed = 0;
  for (const StackId id : registry.stacks_on_host(host)) {
    std::optional<DeployedStack> stack = registry.get(id);
    if (!stack.has_value()) continue;
    net::release_placement(occupancy, *stack->topology, stack->assignment,
                           /*deactivate_emptied=*/true);
    (void)registry.remove(id);
    ++killed;
  }
  // Quarantine: consume all remaining free capacity so no plan, however
  // stale its snapshot, can pass the commit-gate re-validation with a node
  // on this host while it is down.
  const topo::Resources quarantine = occupancy.available(host);
  dc::OccupancyDelta consume(occupancy);
  consume.add_host_load(host, quarantine);
  occupancy.apply_delta(consume);
  if (stacks_killed != nullptr) *stacks_killed = killed;
  if (commit_epoch != nullptr) *commit_epoch = occupancy.version();
  m_failures.inc();
  m_evictions.add(killed);
  return quarantine;
}

void PlacementService::repair_host(dc::HostId host,
                                   const topo::Resources& quarantine,
                                   std::uint64_t* commit_epoch) {
  static util::metrics::Counter& m_repairs =
      util::metrics::counter("service.host_repairs");
  const std::unique_lock<std::shared_mutex> lock(mutex_);
  dc::Occupancy& occupancy = scheduler_->occupancy();
  dc::OccupancyDelta restore(occupancy);
  restore.remove_host_load(host, quarantine);
  occupancy.apply_delta(restore);
  occupancy.deactivate_if_idle(host);
  if (commit_epoch != nullptr) *commit_epoch = occupancy.version();
  m_repairs.inc();
}

std::size_t PlacementService::try_commit_migration(
    MigrationBatch& batch, StackRegistry& registry,
    std::uint64_t* commit_epoch) {
  static util::metrics::Counter& m_batches =
      util::metrics::counter("service.migration_batches");
  static util::metrics::Counter& m_moves =
      util::metrics::counter("service.migration_moves");
  static util::metrics::Counter& m_conflicts =
      util::metrics::counter("service.migration_conflicts");
  static util::metrics::Summary& m_commit_wait =
      util::metrics::summary("service.commit_wait_seconds");

  util::WallTimer wait_timer;
  const std::unique_lock<std::shared_mutex> lock(mutex_);
  m_commit_wait.observe(wait_timer.elapsed_seconds());
  m_batches.inc();

  dc::Occupancy& occupancy = scheduler_->occupancy();
  const dc::DataCenter& datacenter = occupancy.datacenter();
  std::size_t committed = 0;
  std::uint64_t epoch = 0;
  for (MigrationMember& member : batch.members) {
    member.outcome = CommitOutcome::kConflict;
    if (member.topology == nullptr ||
        member.from.size() != member.topology->node_count() ||
        member.to.size() != member.topology->node_count()) {
      member.outcome = CommitOutcome::kRejected;
      continue;
    }
    // The migration's epoch gate: the stack must still be live with the
    // exact assignment the plan moved from.  A racing departure, failure
    // eviction, or competing migration invalidates the member, never the
    // batch.
    const std::optional<DeployedStack> live = registry.get(member.stack_id);
    if (!live.has_value() || live->assignment != member.from) {
      m_conflicts.inc();
      continue;
    }
    // Structural constraints of the target are occupancy-independent and
    // deterministic — a violation can never commit, so it rejects.
    if (!verify_assignment_structure(datacenter, *member.topology, member.to)
             .empty()) {
      member.outcome = CommitOutcome::kRejected;
      continue;
    }
    // The move is the stack's ops at `from` released, then its ops at `to`
    // reserved, in one delta: the gate checks the state the move leaves,
    // and a serial replay (release_placement + commit_placement) computes
    // the same values.  Both lists are built outside the try, so a corrupt
    // record (a host id the fleet lacks) propagates instead of being
    // miscounted as contention.
    const net::StackOps released =
        net::stack_ops(datacenter, *member.topology, member.from);
    const net::StackOps reserved =
        net::stack_ops(datacenter, *member.topology, member.to);
    dc::OccupancyDelta delta(occupancy);
    try {
      net::stage_ops(delta, released, net::OpDirection::kRelease);
      net::stage_ops(delta, reserved, net::OpDirection::kReserve);
      occupancy.apply_delta(delta);
    } catch (const std::invalid_argument&) {
      // The target no longer fits: the delta never flushed, so the member
      // is a benign conflict.
      m_conflicts.inc();
      continue;
    }
    std::size_t moved = 0;
    for (topo::NodeId n = 0; n < member.topology->node_count(); ++n) {
      if (member.from[n] == member.to[n]) continue;
      ++moved;
      // As in the replay's release, a host the stack left goes idle when
      // empty.
      if (std::find(member.to.begin(), member.to.end(), member.from[n]) ==
          member.to.end()) {
        occupancy.deactivate_if_idle(member.from[n]);
      }
    }
    // Cannot fail: the stack was re-checked above and nothing can
    // interleave under the writer lock.
    (void)registry.update_assignment(member.stack_id, member.from,
                                     member.to);
    member.outcome = CommitOutcome::kCommitted;
    epoch = occupancy.version();
    ++committed;
    m_moves.add(moved);
  }
  if (commit_epoch != nullptr) *commit_epoch = epoch;
  return committed;
}

ServiceResult PlacementService::place(const topo::AppTopology& topology,
                                      Algorithm algorithm) {
  return place_with(topology, algorithm, scheduler_->defaults(), Committer{});
}

ServiceResult PlacementService::place(const topo::AppTopology& topology,
                                      Algorithm algorithm,
                                      const SearchConfig& config) {
  return place_with(topology, algorithm, config, Committer{});
}

ServiceResult PlacementService::place_with(const topo::AppTopology& topology,
                                           Algorithm algorithm,
                                           const SearchConfig& config,
                                           const Committer& committer) {
  static util::metrics::Counter& m_requests =
      util::metrics::counter("service.requests");
  static util::metrics::Counter& m_committed =
      util::metrics::counter("service.committed");
  static util::metrics::Counter& m_retries =
      util::metrics::counter("service.retries");
  m_requests.inc();

  // The commit step, under the writer lock, counts the hosts it activates.
  std::size_t activated = 0;
  const Committer counted = [&](const Placement& placement,
                                std::string& failure) {
    const dc::Occupancy& live = scheduler_->occupancy();
    const std::size_t before = live.active_host_count();
    bool ok = true;
    if (committer) {
      ok = committer(placement, failure);
    } else {
      scheduler_->commit(topology, placement);
    }
    activated = live.active_host_count() - before;
    return ok;
  };

  ServiceResult result;
  for (std::uint32_t attempt = 0;; ++attempt) {
    PlannedPlacement planned = plan(topology, algorithm, config);
    result.plan_epoch = planned.epoch;
    if (post_plan_hook_) post_plan_hook_(attempt);
    if (!planned.placement.feasible) {
      result.placement = std::move(planned.placement);
      return result;
    }
    const CommitOutcome outcome =
        try_commit_with(topology, planned, counted, &result.commit_epoch);
    if (outcome != CommitOutcome::kConflict) {
      if (outcome == CommitOutcome::kCommitted) {
        m_committed.inc();
        report_activated_hosts(planned.placement, activated, topology,
                               datacenter(), config);
      }
      result.placement = std::move(planned.placement);
      return result;
    }
    ++result.conflicts;
    if (attempt >= config.service_max_conflict_retries) {
      result.placement = std::move(planned.placement);
      result.placement.committed = false;
      result.placement.failure_reason =
          "commit conflict: " +
          std::to_string(config.service_max_conflict_retries) +
          " replan(s) exhausted";
      return result;
    }
    ++result.retries;
    m_retries.inc();
  }
}

}  // namespace ostro::core
