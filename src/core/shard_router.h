// ShardRouter — the sharded scale-out front end (ROADMAP item 1).
//
// One PlacementService per dc::ShardLayout shard, each with its own writer
// lock, FeasibilityIndex and commit epochs, composed behind a
// router that:
//
//   1. *scores* shards from their FeasibilityIndex root aggregates (filter:
//      the component-wise max free capacity must fit the stack's largest
//      node; score: feasible-host count, descending, ties to the lowest
//      shard id) and tries to place the whole stack inside each of the top
//      two shards — the common case, touching exactly one shard lock;
//   2. falls back to *cross-shard* placement when no single shard commits:
//      plan against a stitched global snapshot (per-shard snapshots overlaid
//      onto one global Occupancy plus the ledger's shared-uplink usage),
//      then run a two-phase validate-commit — lock every straddled shard's
//      writer lock in ascending shard-id order, stage one OccupancyDelta per
//      participant with net::stage_ops (staging validates capacity and
//      bandwidth against the live state), reserve the shared wide-area
//      uplinks through the CrossShardLedger, and either apply every delta
//      or abort with nothing touched.  An abort replans from a fresh
//      stitch, up to two times.
//
// Global commit order: every commit (single-shard or cross-shard) and every
// release draws a strictly increasing global epoch under the router's log
// mutex WHILE the participating shard writer lock(s) are held, so the
// per-shard subsequences of the global epoch order match each shard's
// actual mutation order — a serial replay of the (optional) commit log in
// global-epoch order reproduces every shard's occupancy bit for bit
// (replay_commit_log; raced under TSan by tests/core/shard_race_test.cpp).
//
// Lock order (deadlock freedom): shard writer locks in ascending shard id
// -> ledger mutex -> log mutex.  The stack registry's mutex is only ever
// held alone.
//
// Telemetry under "router." / "shard.": counters router.requests,
// router.shard_attempts, router.single_shard_committed,
// router.cross_shard_plans, router.cross_shard_committed,
// router.cross_shard_aborts, router.releases, shard.ledger_reservations,
// shard.ledger_conflicts, shard.ledger_releases; summary
// router.stitch_seconds.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/service.h"
#include "core/stack_registry.h"
#include "datacenter/shard.h"

namespace ostro::core {

/// Shard-layer knobs, separate from SearchConfig (which shapes one search;
/// these shape the fleet).
struct ShardConfig {
  /// Number of occupancy shards (1 = monolithic, bit-identical to a plain
  /// PlacementService).  Must not exceed the datacenter's pod count.
  std::uint32_t shards = 1;
  /// Records every commit/release in the router's commit log (the serial-
  /// replay correctness harness; unbounded memory — tests/benches only).
  bool router_commit_log = false;

  /// Throws std::invalid_argument on out-of-range values.
  void validate() const;
};

/// Bandwidth ledger for the shared uplinks of split sites: the only links a
/// cross-shard placement can touch that no participant shard owns.
/// Internally synchronized; reserve order is preserved per link so a serial
/// replay of the same op sequence reproduces the accumulators bit for bit.
class CrossShardLedger {
 public:
  struct Op {
    dc::LinkId link = 0;  ///< GLOBAL link id
    double mbps = 0.0;
  };

  explicit CrossShardLedger(const dc::DataCenter& global);

  /// All-or-nothing: applies every op in order with the occupancy's own
  /// link arithmetic (dc::link_after_reserve), or restores the prior state
  /// and returns false when any op would exceed capacity.
  [[nodiscard]] bool try_reserve(const std::vector<Op>& ops);
  /// Releases previously reserved amounts, all or nothing, with
  /// dc::link_after_release.  Throws std::invalid_argument when an op
  /// releases more than is reserved — corrupted accounting, never benign.
  void release(const std::vector<Op>& ops);

  [[nodiscard]] double used_mbps(dc::LinkId link) const;
  /// Adds the ledger's usage onto a global-datacenter occupancy in one
  /// OccupancyDelta batch (the final stitch step of
  /// ShardRouter::stitched_snapshot).
  void overlay(dc::Occupancy& global_occupancy) const;

 private:
  const dc::DataCenter* dc_;
  mutable std::mutex mutex_;
  std::vector<double> used_;  // by global LinkId; nonzero only on shared links
};

/// One shard's slice of a placement: the ops of net::stack_ops that this
/// shard owns, in local ids and in their original relative order.
struct ShardOps {
  std::uint32_t shard = 0;
  net::StackOps ops;
};

/// A placement split by owning shard plus the ledger ops for shared links.
struct DecomposedOps {
  std::vector<ShardOps> shards;           ///< participants, ascending shard id
  std::vector<CrossShardLedger::Op> ledger;  ///< shared-link ops, edge order
};

/// Splits net::stack_ops of a stack's global assignment by owning shard:
/// each host load and link op goes to the shard owning its host or link
/// (the ShardLayout invariant guarantees totality), and ops on shared links
/// go to the ledger.  Shared by the router's two-phase commit, the release
/// path, and replay_commit_log — one routing function, so live and
/// replayed commits cannot diverge.
[[nodiscard]] DecomposedOps decompose_ops(const dc::ShardLayout& layout,
                                          const topo::AppTopology& topology,
                                          const net::Assignment& assignment);

class ShardRouter {
 public:
  enum class CommitKind : std::uint8_t { kPlace, kRelease };

  /// One entry of the global-epoch commit log (router_commit_log).
  struct CommitRecord {
    std::uint64_t global_epoch = 0;
    CommitKind kind = CommitKind::kPlace;
    StackId stack_id = 0;
    std::shared_ptr<const topo::AppTopology> topology;
    net::Assignment assignment;  ///< GLOBAL host ids
  };

  /// Outcome of one routed placement request.
  struct Result {
    /// Final placement (assignment in GLOBAL host ids once committed) plus
    /// aggregated conflict/retry counts across every shard attempt.
    ServiceResult service;
    StackId stack_id = 0;           ///< nonzero iff committed
    std::uint32_t shard = 0;        ///< committing shard (single-shard only)
    bool cross_shard = false;
    std::uint32_t shard_attempts = 0;
    std::uint64_t global_epoch = 0;  ///< router epoch of the commit
  };

  /// Partitions `global` per `config.shards` and builds one scheduler +
  /// service per shard, each with `defaults` as its SearchConfig.
  /// `global` must outlive the router.
  ShardRouter(const dc::DataCenter& global, const ShardConfig& config,
              SearchConfig defaults = {});

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  [[nodiscard]] const dc::ShardLayout& layout() const noexcept {
    return layout_;
  }
  [[nodiscard]] std::uint32_t shard_count() const noexcept {
    return layout_.shard_count();
  }
  [[nodiscard]] const ShardConfig& config() const noexcept { return config_; }
  [[nodiscard]] PlacementService& service(std::uint32_t shard) {
    return *services_.at(shard);
  }
  [[nodiscard]] const CrossShardLedger& ledger() const noexcept {
    return ledger_;
  }

  /// Routes one stack: single-shard fast path, then cross-shard fallback.
  /// The topology is shared (kept alive in the router's stack registry
  /// until release_stack).
  Result place(std::shared_ptr<const topo::AppTopology> topology,
               Algorithm algorithm);
  Result place(std::shared_ptr<const topo::AppTopology> topology,
               Algorithm algorithm, const SearchConfig& config);

  /// Releases a routed stack: each participant shard releases its ops
  /// (net::apply_ops, kRelease), and the ledger its shared-link amounts.
  /// Returns false when the id is not (or no longer) live.
  bool release_stack(StackId id);

  [[nodiscard]] std::size_t live_stacks() const;

  /// Global-datacenter occupancy equal to the sum of every shard's state
  /// plus the ledger — the planning base of the cross-shard path, and the
  /// differential anchor of the cross-shard accounting tests (bit-identical
  /// to a monolithic occupancy that performed the same logical mutations).
  [[nodiscard]] dc::Occupancy stitched_snapshot() const;

  /// Copy of the commit log (empty unless ShardConfig::router_commit_log).
  [[nodiscard]] std::vector<CommitRecord> commit_log() const;

  /// Test instrumentation: runs before each cross-shard two-phase-commit
  /// attempt, after planning, with no lock held.  Deterministic abort tests
  /// inject competing commits here.  Set before concurrent use.
  void set_pre_commit_hook(std::function<void(std::uint32_t attempt)> hook) {
    pre_commit_hook_ = std::move(hook);
  }

 private:
  /// Draws the next global epoch and (when enabled) appends a log record.
  /// Called while the participating shard writer lock(s) are held.
  std::uint64_t append_commit(
      CommitKind kind, StackId stack_id,
      const std::shared_ptr<const topo::AppTopology>& topology,
      const net::Assignment& assignment);

  /// The cross-shard two-phase validate-commit.  True on commit (fills the
  /// epoch); false on a capacity/ledger conflict with no state touched.
  bool try_two_phase_commit(
      const std::shared_ptr<const topo::AppTopology>& topology,
      const net::Assignment& assignment, StackId stack_id,
      std::uint64_t* epoch);

  ShardConfig config_;
  dc::ShardLayout layout_;
  std::vector<std::unique_ptr<OstroScheduler>> schedulers_;
  std::vector<std::unique_ptr<PlacementService>> services_;
  CrossShardLedger ledger_;

  std::atomic<StackId> next_stack_id_{1};
  /// Live routed stacks in GLOBAL host ids.
  StackRegistry registry_;

  mutable std::mutex log_mutex_;
  std::uint64_t global_epoch_ = 0;
  std::vector<CommitRecord> log_;

  std::function<void(std::uint32_t)> pre_commit_hook_;
};

/// Serial replay of a commit log: sorts `log` by global epoch and re-applies
/// every record through the same decompose/stage/apply path the live router
/// used, onto fresh occupancies over `layout`'s shard DataCenters (index =
/// shard id) and, when non-null, a fresh `ledger`.  The TSan-raced stress
/// test asserts the result equals every live shard's occupancy bit for bit.
[[nodiscard]] std::vector<dc::Occupancy> replay_commit_log(
    const dc::ShardLayout& layout, std::vector<ShardRouter::CommitRecord> log,
    CrossShardLedger* ledger = nullptr);

}  // namespace ostro::core
