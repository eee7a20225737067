// Registry of deployed stacks: which application topologies are live and
// where their nodes sit (DESIGN.md section 13).
//
// The placement layers below are deliberately stateless about tenancy — an
// Occupancy only knows aggregate loads, not which stack put them there.
// Lifecycle operations need the reverse map: a departure must release
// exactly the resources its stack committed, a host failure must find the
// stacks resident on the host, and a defragmentation planner must know the
// current assignment of every candidate stack.  StackRegistry is that map.
//
// Thread safety: every method takes an internal mutex, so concurrent reads
// are safe on their own.  Mutations that must stay atomic *with respect to
// the occupancy* (release+remove, failure+evict, migrate+update) are
// sequenced by PlacementService's writer lock, which the lifecycle entry
// points (release_stack / fail_host / try_commit_migration) hold around the
// occupancy mutation and the registry update together.  A deploy is not:
// every caller (sim::Lifecycle, ShardRouter, perfbench's traced path)
// add()s a stack after its commit returned, outside the lock.  A host
// failure landing in between does not evict that stack, and a defrag plan
// made in between cannot move it.  Lock order is always
// service-writer-lock -> registry-mutex; the registry never calls back
// into the service.
//
// remove() returns the stack's record exactly once: the second caller gets
// nullopt, which is the double-release guard — a departure racing a
// host-failure kill of the same stack releases its resources exactly once.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/reservation.h"
#include "topology/app_topology.h"

namespace ostro::core {

/// Identifier the caller assigns at deploy time (unique per live stack).
using StackId = std::uint64_t;

/// One live stack: its topology (shared, immutable) and where it sits.
struct DeployedStack {
  StackId id = 0;
  std::shared_ptr<const topo::AppTopology> topology;
  net::Assignment assignment;
};

class StackRegistry {
 public:
  StackRegistry() = default;
  StackRegistry(const StackRegistry&) = delete;
  StackRegistry& operator=(const StackRegistry&) = delete;

  /// Registers a deployed stack; throws std::invalid_argument when the id
  /// is already live or the assignment size mismatches the topology.
  void add(StackId id, std::shared_ptr<const topo::AppTopology> topology,
           net::Assignment assignment);

  /// Unregisters and returns the stack, or nullopt when it is not (or no
  /// longer) live.  Exactly one caller per id gets the record — the
  /// double-release guard.
  [[nodiscard]] std::optional<DeployedStack> remove(StackId id);

  /// Replaces the live assignment (a committed migration).  Returns false
  /// when the stack is no longer live or `expected` no longer matches the
  /// current assignment (a racing migration or departure won); the caller
  /// must then drop its plan.
  [[nodiscard]] bool update_assignment(StackId id,
                                       const net::Assignment& expected,
                                       net::Assignment next);

  /// Copy of one stack's record; nullopt when not live.
  [[nodiscard]] std::optional<DeployedStack> get(StackId id) const;

  /// Copies of every live stack, ordered by id (deterministic iteration
  /// for planners and tests).
  [[nodiscard]] std::vector<DeployedStack> snapshot() const;

  /// Ids of stacks with at least one node on `host`, ordered by id.
  [[nodiscard]] std::vector<StackId> stacks_on_host(dc::HostId host) const;

  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<StackId, DeployedStack> stacks_;
};

}  // namespace ostro::core
