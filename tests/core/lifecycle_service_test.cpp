// PlacementService lifecycle entry points: release_stack (with the
// double-release guard), fail_host/repair_host quarantine accounting, and
// the try_commit_migration per-member epoch gate.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/scheduler.h"
#include "core/service.h"
#include "core/stack_registry.h"
#include "core/verify.h"
#include "helpers.h"
#include "net/reservation.h"
#include "topology/app_topology.h"
#include "util/metrics.h"

namespace ostro::core {
namespace {

using ostro::testing::small_dc;
using ostro::testing::tiny_app;

std::shared_ptr<const topo::AppTopology> one_vm(double cores) {
  topo::TopologyBuilder builder;
  builder.add_vm("vm", {cores, cores, 0.0});
  return std::make_shared<const topo::AppTopology>(builder.build());
}

std::shared_ptr<const topo::AppTopology> zoned_pair() {
  topo::TopologyBuilder builder;
  builder.add_vm("a", {2.0, 2.0, 0.0});
  builder.add_vm("b", {2.0, 2.0, 0.0});
  builder.connect("a", "b", 50.0);
  builder.add_zone("dz", topo::DiversityLevel::kHost, {0, 1});
  return std::make_shared<const topo::AppTopology>(builder.build());
}

TEST(LifecycleServiceTest, ReleaseStackDrainsAndGuardsDoubleRelease) {
  const auto datacenter = small_dc(2, 2);
  OstroScheduler scheduler(datacenter);
  PlacementService service(scheduler);
  StackRegistry registry;

  const auto topology =
      std::make_shared<const topo::AppTopology>(tiny_app());
  const ServiceResult result = service.place(*topology, Algorithm::kEg);
  ASSERT_TRUE(result.placement.committed);
  registry.add(1, topology, result.placement.assignment);

  std::uint64_t epoch = 0;
  DeployedStack released;
  EXPECT_TRUE(service.release_stack(registry, 1, true, &epoch, &released));
  EXPECT_GT(epoch, result.commit_epoch);
  EXPECT_EQ(released.assignment, result.placement.assignment);
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_TRUE(scheduler.occupancy() == dc::Occupancy(datacenter));

  // The guard: the record is gone, so a second release is a clean no-op.
  EXPECT_FALSE(service.release_stack(registry, 1));
  EXPECT_TRUE(scheduler.occupancy() == dc::Occupancy(datacenter));
}

TEST(LifecycleServiceTest, FailHostKillsResidentsAndRepairRestores) {
  const auto datacenter = small_dc(1, 2);
  OstroScheduler scheduler(datacenter);
  PlacementService service(scheduler);
  StackRegistry registry;

  // One single-VM stack pinned per host via direct commits.
  const auto app = one_vm(2.0);
  net::commit_placement(scheduler.occupancy(), *app, {0});
  net::commit_placement(scheduler.occupancy(), *app, {1});
  registry.add(1, app, {0});
  registry.add(2, app, {1});

  std::size_t killed = 0;
  const topo::Resources quarantine =
      service.fail_host(registry, 0, &killed);
  EXPECT_EQ(killed, 1u);
  EXPECT_EQ(registry.size(), 1u);
  // The host's entire free capacity is consumed: nothing can land there.
  EXPECT_TRUE(scheduler.occupancy().available(0).is_zero());
  EXPECT_TRUE(scheduler.occupancy().is_active(0));
  EXPECT_DOUBLE_EQ(quarantine.vcpus, 8.0);  // stack 1's load was released

  service.repair_host(0, quarantine);
  EXPECT_DOUBLE_EQ(scheduler.occupancy().available(0).vcpus, 8.0);
  EXPECT_FALSE(scheduler.occupancy().is_active(0));

  // Draining the surviving stack lands back on fresh.
  EXPECT_TRUE(service.release_stack(registry, 2));
  EXPECT_TRUE(scheduler.occupancy() == dc::Occupancy(datacenter));
}

TEST(LifecycleServiceTest, MigrationMovesStackAndVacatesSource) {
  const auto datacenter = small_dc(1, 2);
  OstroScheduler scheduler(datacenter);
  PlacementService service(scheduler);
  StackRegistry registry;

  const auto app = one_vm(2.0);
  net::commit_placement(scheduler.occupancy(), *app, {0});
  registry.add(1, app, {0});

  PlacementService::MigrationBatch batch;
  batch.members.push_back({1, app, {0}, {1}});
  std::uint64_t epoch = 0;
  EXPECT_EQ(service.try_commit_migration(batch, registry, &epoch), 1u);
  EXPECT_EQ(batch.members[0].outcome,
            PlacementService::CommitOutcome::kCommitted);
  EXPECT_GT(epoch, 0u);

  EXPECT_FALSE(scheduler.occupancy().is_active(0));
  EXPECT_DOUBLE_EQ(scheduler.occupancy().used(1).vcpus, 2.0);
  const auto live = registry.get(1);
  ASSERT_TRUE(live.has_value());
  EXPECT_EQ(live->assignment, net::Assignment{1});

  // Replaying the move as release-at-from + commit-at-to on a fresh
  // occupancy reproduces the live state bit for bit — the serial-replay
  // property the race test relies on.
  dc::Occupancy replay(datacenter);
  net::commit_placement(replay, *app, {0});
  net::release_placement(replay, *app, {0});
  net::commit_placement(replay, *app, {1});
  EXPECT_TRUE(replay == scheduler.occupancy());
}

TEST(LifecycleServiceTest, MigrationConflictsWhenAssignmentMovedOn) {
  const auto datacenter = small_dc(1, 2);
  OstroScheduler scheduler(datacenter);
  PlacementService service(scheduler);
  StackRegistry registry;

  const auto app = one_vm(2.0);
  net::commit_placement(scheduler.occupancy(), *app, {1});
  registry.add(1, app, {1});
  const dc::Occupancy before = scheduler.occupancy();

  // The plan believes the stack still sits on host 0: per-member epoch gate.
  PlacementService::MigrationBatch batch;
  batch.members.push_back({1, app, {0}, {1}});
  EXPECT_EQ(service.try_commit_migration(batch, registry), 0u);
  EXPECT_EQ(batch.members[0].outcome,
            PlacementService::CommitOutcome::kConflict);
  EXPECT_TRUE(scheduler.occupancy() == before);

  // Same for a stack that is not live at all.
  batch.members[0] = {7, app, {1}, {0}};
  EXPECT_EQ(service.try_commit_migration(batch, registry), 0u);
  EXPECT_EQ(batch.members[0].outcome,
            PlacementService::CommitOutcome::kConflict);
}

TEST(LifecycleServiceTest, MigrationRejectsStructureViolations) {
  const auto datacenter = small_dc(1, 2);
  OstroScheduler scheduler(datacenter);
  PlacementService service(scheduler);
  StackRegistry registry;

  const auto app = zoned_pair();
  net::commit_placement(scheduler.occupancy(), *app, {0, 1});
  registry.add(1, app, {0, 1});
  const dc::Occupancy before = scheduler.occupancy();

  // Co-locating the host-diverse pair is deterministic nonsense: kRejected,
  // not kConflict, so the planner never retries it.
  PlacementService::MigrationBatch batch;
  batch.members.push_back({1, app, {0, 1}, {0, 0}});
  EXPECT_EQ(service.try_commit_migration(batch, registry), 0u);
  EXPECT_EQ(batch.members[0].outcome,
            PlacementService::CommitOutcome::kRejected);
  EXPECT_TRUE(scheduler.occupancy() == before);
  ASSERT_TRUE(
      verify_assignment_structure(datacenter, *app, registry.get(1)->assignment)
          .empty());
}

TEST(LifecycleServiceTest, MigrationConflictsWhenTargetLacksCapacity) {
  const auto datacenter = small_dc(1, 2);
  OstroScheduler scheduler(datacenter);
  PlacementService service(scheduler);
  StackRegistry registry;

  const auto mover = one_vm(4.0);
  const auto blocker = one_vm(6.0);
  net::commit_placement(scheduler.occupancy(), *mover, {0});
  net::commit_placement(scheduler.occupancy(), *blocker, {1});
  registry.add(1, mover, {0});
  registry.add(2, blocker, {1});
  const dc::Occupancy before = scheduler.occupancy();

  PlacementService::MigrationBatch batch;
  batch.members.push_back({1, mover, {0}, {1}});  // 4 + 6 > 8 cores
  EXPECT_EQ(service.try_commit_migration(batch, registry), 0u);
  EXPECT_EQ(batch.members[0].outcome,
            PlacementService::CommitOutcome::kConflict);
  EXPECT_TRUE(scheduler.occupancy() == before);
}

TEST(LifecycleServiceTest, MigrationReplaysBitIdenticallyWithFractionalLoads) {
  const auto datacenter = small_dc(2, 2);
  OstroScheduler scheduler(datacenter);
  PlacementService service(scheduler);
  StackRegistry registry;

  topo::TopologyBuilder builder;
  builder.add_vm("x", {1.1, 1.1, 0.0});
  builder.add_vm("y", {1.0, 1.0, 0.0});
  builder.add_vm("z", {0.0, 0.0, 0.0});
  builder.connect("x", "y", 10.0 / 3.0);
  const auto stack = std::make_shared<const topo::AppTopology>(builder.build());
  const net::Assignment from = {0, 1, 1};
  const net::Assignment to = {0, 2, 1};

  // Host 0 sums its loads in an order a release and re-reservation of x
  // does not reproduce bit for bit: 0.3 + 4 + 1.1 + 0.5 + 0.7.
  const std::vector<std::pair<std::shared_ptr<const topo::AppTopology>,
                              net::Assignment>>
      commits = {{one_vm(0.3), {0}}, {one_vm(4.0), {0}}, {stack, from},
                 {one_vm(0.5), {0}}, {one_vm(0.7), {0}}};
  for (const auto& [topology, assignment] : commits) {
    net::commit_placement(scheduler.occupancy(), *topology, assignment);
  }
  registry.add(1, stack, from);

  // x stays on host 0 and y moves across racks.  z, which asks for nothing,
  // stays on host 1: the host the move empties stays active, as the
  // replay's commit of z leaves it.
  PlacementService::MigrationBatch batch;
  batch.members.push_back({1, stack, from, to});
  ASSERT_EQ(service.try_commit_migration(batch, registry), 1u);

  dc::Occupancy replay(datacenter);
  for (const auto& [topology, assignment] : commits) {
    net::commit_placement(replay, *topology, assignment);
  }
  net::release_placement(replay, *stack, from);
  net::commit_placement(replay, *stack, to);
  EXPECT_TRUE(scheduler.occupancy().is_active(1));
  EXPECT_TRUE(replay == scheduler.occupancy());
}

// Regression: only std::invalid_argument thrown while staging (a target
// that no longer fits) may be downgraded to a per-member conflict.  A
// corrupt record — here an out-of-range host id smuggled past
// StackRegistry::add, which validates only id uniqueness and assignment
// size — must propagate from net::stack_ops, not be silently miscounted as
// contention.
TEST(LifecycleServiceTest, MigrationPropagatesNonCapacityExceptions) {
  const auto datacenter = small_dc(1, 2);
  OstroScheduler scheduler(datacenter);
  PlacementService service(scheduler);
  StackRegistry registry;

  const auto mover = one_vm(1.0);  // single node, no pipes
  const dc::HostId bogus = 999;    // far beyond the 2-host cluster
  registry.add(1, mover, {bogus});

  const util::metrics::Counter& conflicts =
      util::metrics::counter("service.migration_conflicts");
  const std::uint64_t conflicts_before = conflicts.value();
  PlacementService::MigrationBatch batch;
  batch.members.push_back({1, mover, {bogus}, {0}});
  EXPECT_THROW(service.try_commit_migration(batch, registry),
               std::invalid_argument);
  EXPECT_EQ(conflicts.value(), conflicts_before);
}

}  // namespace
}  // namespace ostro::core
