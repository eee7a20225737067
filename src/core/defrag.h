// DefragPlanner — bounded background defragmentation (DESIGN.md section 13).
//
// Churn strands free capacity on half-empty hosts (see
// datacenter/fragmentation.h).  The planner proposes small migration
// batches that vacate the sparsest active hosts into the densest ones —
// best-fit-decreasing in reverse — and commits them through
// PlacementService::try_commit_migration, the same validate-commit ladder
// live placements use, so a defrag batch racing a streamed placement is
// resolved per member (conflicted members are simply dropped and replanned
// later) and never blocks or corrupts foreground traffic.
//
// Every batch relocates at most `max_moves` VMs.  Planning is
// all-or-nothing per vacated host: either every resident node of a host
// gets a valid target under the staged state, or the host is skipped — a
// half-vacated host would consume budget without freeing anything.  A
// target is checked as the commit gate checks it: the stack's ops released
// and re-reserved with the node moved (capacity, bandwidth along the new
// paths), plus zones/affinity/latency re-verified.
#pragma once

#include <cstdint>

#include "core/service.h"

namespace ostro::core {

struct DefragConfig {
  /// Max VMs relocated per batch (0 disables the planner).
  std::uint32_t max_moves = 8;
};

/// What one run_once() did.
struct DefragStats {
  std::uint32_t moves_proposed = 0;   ///< VM relocations in the final batch
  std::uint32_t moves_committed = 0;  ///< relocations actually applied
  std::uint32_t members_committed = 0;  ///< stacks whose member committed
  std::uint32_t hosts_vacated = 0;    ///< source hosts fully planned out
  std::uint32_t conflicts = 0;        ///< members dropped at the commit gate
  std::uint32_t retries = 0;          ///< fresh-snapshot replans taken
  double moved_gb = 0.0;              ///< memory shipped by committed moves
  std::uint64_t commit_epoch = 0;     ///< epoch after the last commit (0: none)
};

class DefragPlanner {
 public:
  /// `service` and `registry` must outlive the planner.  The registry must
  /// be the one the service's lifecycle entry points maintain.
  DefragPlanner(PlacementService& service, StackRegistry& registry,
                DefragConfig config = {}) noexcept
      : service_(&service), registry_(&registry), config_(config) {}

  [[nodiscard]] const DefragConfig& config() const noexcept {
    return config_;
  }

  /// Plans one bounded batch against `snapshot` (a PlacementService
  /// snapshot) and the registry's current stack set.  Pure planning: no
  /// locks taken, nothing mutated.  An empty members list means nothing
  /// worth moving (or nothing movable within budget).
  [[nodiscard]] PlacementService::MigrationBatch plan_batch(
      const dc::Occupancy& snapshot) const;

  /// Snapshot -> plan_batch -> try_commit_migration, with up to two
  /// fresh-snapshot replans when a batch commits nothing because every
  /// member conflicted.
  DefragStats run_once();

 private:
  PlacementService* service_;
  StackRegistry* registry_;
  DefragConfig config_;
};

}  // namespace ostro::core
