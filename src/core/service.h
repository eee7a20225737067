// PlacementService — the concurrent front end of the placement core.
//
// OstroScheduler is a single-request facade: plan() reads the live
// occupancy, deploy() mutates it, and nothing can plan while a commit is in
// flight.  The service turns one scheduler into an online control plane
// that accepts placement requests from many threads, in the
// optimistic-concurrency shape of shared-state cluster schedulers
// (Borg/Omega): each request
//
//   1. *snapshots* the occupancy under a shared lock — a plain Occupancy
//      copy stamped with its mutation epoch (dc::Occupancy::version()),
//   2. *plans* against that snapshot with no lock held, so an arbitrarily
//      expensive BA*/DBA* search never blocks other planners or
//      committers,
//   3. *validates and commits* under the writer lock: when the live epoch
//      still equals the snapshot epoch nothing interleaved and the plan
//      commits directly; otherwise the plan's occupancy ops
//      (net::stack_ops) are staged against the *current* occupancy with
//      the commit's own capacity arithmetic before committing (tags,
//      zones, affinity and latency do not depend on occupancy, so they
//      still hold from planning time),
//   4. on a validation *conflict* (a competing commit consumed resources
//      this plan relies on), replans against a fresh snapshot, at most
//      SearchConfig::service_max_conflict_retries times, before returning
//      the placement uncommitted.
//
// Process-wide telemetry under "service.": counters service.requests /
// committed / conflicts / retries / rejected, summary
// service.commit_wait_seconds (time a request waited for the writer lock).
//
// Once a scheduler is wrapped by a service, all access must go through the
// service (or through the shared scheduler only while no service call is
// in flight): the service's locks protect exactly the call paths routed
// through it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "core/scheduler.h"
#include "core/stack_registry.h"

namespace ostro::core {

/// A placement together with the occupancy epoch it was planned against.
/// The epoch is what makes staleness detectable at commit time.
struct PlannedPlacement {
  Placement placement;
  std::uint64_t epoch = 0;  ///< dc::Occupancy::version() of the snapshot
};

/// Outcome of one place()/place_with() request.
struct ServiceResult {
  /// The final placement; `committed` tells whether it was applied.
  Placement placement;
  std::uint32_t conflicts = 0;  ///< commit-gate validation failures seen
  std::uint32_t retries = 0;    ///< replans taken after conflicts
  /// Epoch of the snapshot behind the final placement.
  std::uint64_t plan_epoch = 0;
  /// Live occupancy epoch right after this request's commit (0 when
  /// nothing was committed).  Strictly increasing across commits, so it
  /// totally orders the committed set — a serial replay in commit_epoch
  /// order reproduces the service occupancy bit for bit.
  std::uint64_t commit_epoch = 0;
};

class PlacementService {
 public:
  /// What try_commit did with a planned placement.
  enum class CommitOutcome : std::uint8_t {
    kCommitted,  ///< validated (if stale) and applied
    kConflict,   ///< stale snapshot and re-validation failed: replan
    kRejected,   ///< never commitable: infeasible, bandwidth-overcommitted,
                 ///< or the caller's committer refused (deterministic, no
                 ///< retry)
  };

  /// Caller-supplied commit step, run *under the writer lock* after the
  /// re-validation gate passed (the Heat wrapper deploys through the
  /// simulated Heat engine here).  Must synchronously apply the placement
  /// to the scheduler's occupancy and return true, or leave it untouched,
  /// fill `failure`, and return false.  Must not call back into the
  /// service (the writer lock is held).
  using Committer =
      std::function<bool(const Placement& placement, std::string& failure)>;

  /// `scheduler` must outlive the service.
  explicit PlacementService(OstroScheduler& scheduler) noexcept
      : scheduler_(&scheduler) {}

  PlacementService(const PlacementService&) = delete;
  PlacementService& operator=(const PlacementService&) = delete;

  [[nodiscard]] const dc::DataCenter& datacenter() const noexcept {
    return scheduler_->datacenter();
  }
  [[nodiscard]] const OstroScheduler& scheduler() const noexcept {
    return *scheduler_;
  }

  /// Current occupancy mutation epoch (shared lock).
  [[nodiscard]] std::uint64_t epoch() const;

  /// Root feasibility aggregate of the live occupancy (shared lock).  The
  /// ShardRouter scores shards from this without copying a snapshot.
  [[nodiscard]] dc::FeasibilityIndex::Aggregate root_aggregate() const;

  /// Writer-lock session for an external multi-service transaction (the
  /// ShardRouter's cross-shard two-phase commit): holds this service's
  /// exclusive lock for its lifetime and exposes the live occupancy for
  /// direct staged mutation.  Every other service call path blocks while a
  /// session is alive, so the holder is the sole mutator — keep it short,
  /// and never call back into the service while holding one.
  class ExclusiveSession {
   public:
    ExclusiveSession(ExclusiveSession&&) noexcept = default;
    ExclusiveSession& operator=(ExclusiveSession&&) noexcept = default;
    ExclusiveSession(const ExclusiveSession&) = delete;
    ExclusiveSession& operator=(const ExclusiveSession&) = delete;

    [[nodiscard]] dc::Occupancy& occupancy() noexcept {
      return scheduler_->occupancy();
    }

   private:
    friend class PlacementService;
    ExclusiveSession(std::unique_lock<std::shared_mutex> lock,
                     OstroScheduler& scheduler) noexcept
        : lock_(std::move(lock)), scheduler_(&scheduler) {}

    std::unique_lock<std::shared_mutex> lock_;
    OstroScheduler* scheduler_;
  };

  /// Acquires the writer lock and returns the session guarding it.
  [[nodiscard]] ExclusiveSession exclusive() {
    return {std::unique_lock<std::shared_mutex>(mutex_), *scheduler_};
  }

  /// Consistent copy of the live occupancy (shared lock held only for the
  /// copy).  Its version() carries the snapshot epoch.
  [[nodiscard]] dc::Occupancy snapshot() const;

  /// Steps 1–2 of the protocol: snapshot, then plan against it with no
  /// lock held.  Safe to call from any number of threads.
  [[nodiscard]] PlannedPlacement plan(const topo::AppTopology& topology,
                                      Algorithm algorithm) const;
  [[nodiscard]] PlannedPlacement plan(const topo::AppTopology& topology,
                                      Algorithm algorithm,
                                      const SearchConfig& config) const;

  /// Step 3: the validate-and-commit gate under the writer lock
  /// (try_commit_batch over this one member).  On kCommitted,
  /// `planned.placement.committed` is set and `commit_epoch` (when
  /// non-null) receives the post-commit epoch.  On kConflict the placement
  /// is untouched so the caller can inspect or replan.
  CommitOutcome try_commit(const topo::AppTopology& topology,
                           PlannedPlacement& planned,
                           std::uint64_t* commit_epoch = nullptr);
  CommitOutcome try_commit_with(const topo::AppTopology& topology,
                                PlannedPlacement& planned,
                                const Committer& committer,
                                std::uint64_t* commit_epoch = nullptr);

  /// One member of a batched commit (the StreamingService dispatcher).
  /// `topology`/`planned` are the inputs; `outcome`/`commit_epoch` are
  /// filled by try_commit_batch.  A null `committer` uses the default
  /// scheduler commit; a non-null one runs as the member's commit step
  /// under the writer lock (same contract as try_commit_with).
  struct BatchCommitMember {
    const topo::AppTopology* topology = nullptr;
    PlannedPlacement* planned = nullptr;
    const Committer* committer = nullptr;
    CommitOutcome outcome = CommitOutcome::kConflict;
    std::uint64_t commit_epoch = 0;
  };

  /// Batched step 3: validate-and-commit every member under ONE
  /// writer-lock acquisition, in batch order.  Members are typically
  /// planned against the same shared snapshot, so the first committable
  /// member takes the epoch fast path and every later member is
  /// re-validated against the occupancy as already mutated by its batch
  /// predecessors — intra-batch resource collisions surface as kConflict
  /// exactly like cross-request races, and the caller spills those members
  /// into the per-request conflict-replan ladder.  Each member's `outcome`
  /// is final as soon as it is decided, so when a committer throws, the
  /// members before it keep their kCommitted.  Returns the number of
  /// members committed.
  std::size_t try_commit_batch(std::span<BatchCommitMember> batch);

  /// The full request: plan → try_commit → bounded conflict-retry ladder.
  /// The returned placement has `committed` set iff it was applied;
  /// otherwise `failure_reason` says why (infeasible, overcommitted, or
  /// conflict ladder exhausted).
  ServiceResult place(const topo::AppTopology& topology, Algorithm algorithm);
  ServiceResult place(const topo::AppTopology& topology, Algorithm algorithm,
                      const SearchConfig& config);
  /// Same request shape with the caller's committer as the commit step
  /// (the plan→deploy path of the Heat wrapper, made atomic).
  ServiceResult place_with(const topo::AppTopology& topology,
                           Algorithm algorithm, const SearchConfig& config,
                           const Committer& committer);

  // ---- lifecycle entry points (departures, failures, migrations) ----
  //
  // Each runs entirely under the writer lock and sequences its occupancy
  // mutation with the paired StackRegistry update, so planners snapshotting
  // through this service never observe a stack whose resources are released
  // but whose registry record survives (or vice versa).  Lock order is
  // service-writer-lock -> registry-mutex, matching try_commit_migration.

  /// Releases a deployed stack: removes it from `registry` and releases its
  /// host loads and pipe bandwidth in one atomic batch
  /// (net::release_placement).  Returns false when the stack is not (or no
  /// longer) live — the double-release guard.  `commit_epoch` (when
  /// non-null) receives the post-release occupancy epoch; `released` (when
  /// non-null) receives the released record.
  bool release_stack(StackRegistry& registry, StackId id,
                     bool deactivate_emptied = true,
                     std::uint64_t* commit_epoch = nullptr,
                     DeployedStack* released = nullptr);

  /// Kills every stack resident on `host` (releasing all their resources,
  /// on every host they touch) and quarantines the host by consuming its
  /// entire remaining free capacity, so no planner can land new nodes on it.
  /// Returns the quarantined amount — pass it to repair_host to bring the
  /// host back.  `stacks_killed` (when non-null) receives the number of
  /// stacks released.
  topo::Resources fail_host(StackRegistry& registry, dc::HostId host,
                            std::size_t* stacks_killed = nullptr,
                            std::uint64_t* commit_epoch = nullptr);

  /// Reverses fail_host: releases the quarantine load and deactivates the
  /// host when it ends up idle.
  void repair_host(dc::HostId host, const topo::Resources& quarantine,
                   std::uint64_t* commit_epoch = nullptr);

  /// One planned stack relocation inside a MigrationBatch.  `from` must
  /// equal the stack's live assignment at commit time or the member is
  /// skipped as a conflict (a racing placement, departure, or migration
  /// invalidated the plan).
  struct MigrationMember {
    StackId stack_id = 0;
    std::shared_ptr<const topo::AppTopology> topology;
    net::Assignment from;
    net::Assignment to;
    /// Filled by try_commit_migration.
    CommitOutcome outcome = CommitOutcome::kConflict;
  };

  /// A bounded batch of relocations proposed by core::DefragPlanner.
  struct MigrationBatch {
    std::vector<MigrationMember> members;
  };

  /// Commits a migration batch under ONE writer-lock acquisition.  Per
  /// member, in batch order: re-check the stack is live with the expected
  /// assignment, re-validate the structural constraints of the target
  /// assignment, stage the relocation (release old loads/paths, reserve new
  /// ones) in one OccupancyDelta, flush it atomically, and swap the
  /// registry assignment.  A member whose stack moved on or whose target no
  /// longer fits becomes kConflict without disturbing the others —
  /// migrations race live placements exactly like competing placements race
  /// each other.  Capacity/bandwidth validation happens by staging each
  /// moved node with net::stage_move (which nets the member's own released
  /// resources against its new demand), plus verify_assignment_structure
  /// for tags/zones/affinities/latency.
  /// Returns the number of members committed; `commit_epoch` (when
  /// non-null) receives the epoch after the last committed member (0 when
  /// none committed).
  std::size_t try_commit_migration(MigrationBatch& batch,
                                   StackRegistry& registry,
                                   std::uint64_t* commit_epoch = nullptr);

  /// Test instrumentation: invoked after each planning attempt of
  /// place()/place_with(), before its commit gate, with no lock held.
  /// Deterministic interleaving tests inject competing commits here.  Not
  /// for production use; must be set before concurrent requests start.
  void set_post_plan_hook(std::function<void(std::uint32_t attempt)> hook) {
    post_plan_hook_ = std::move(hook);
  }

 private:
  OstroScheduler* scheduler_;
  /// Readers (snapshot/epoch) share; the validate-and-commit critical
  /// section is the only writer.
  mutable std::shared_mutex mutex_;
  std::function<void(std::uint32_t)> post_plan_hook_;
};

}  // namespace ostro::core
