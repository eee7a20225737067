// core::DefragPlanner: reverse best-fit-decreasing consolidation under
// budgets, all-or-nothing per-host vacates, zone-safe target selection, and
// the run_once commit loop.
#include "core/defrag.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/scheduler.h"
#include "core/service.h"
#include "core/stack_registry.h"
#include "core/verify.h"
#include "helpers.h"
#include "net/reservation.h"
#include "topology/app_topology.h"

namespace ostro::core {
namespace {

using ostro::testing::small_dc;

std::shared_ptr<const topo::AppTopology> vms(int count, double cores) {
  topo::TopologyBuilder builder;
  for (int i = 0; i < count; ++i) {
    builder.add_vm("vm" + std::to_string(i), {cores, cores, 0.0});
  }
  return std::make_shared<const topo::AppTopology>(builder.build());
}

std::shared_ptr<const topo::AppTopology> zoned_pair(double cores) {
  topo::TopologyBuilder builder;
  builder.add_vm("a", {cores, cores, 0.0});
  builder.add_vm("b", {cores, cores, 0.0});
  builder.add_zone("dz", topo::DiversityLevel::kHost, {0, 1});
  return std::make_shared<const topo::AppTopology>(builder.build());
}

TEST(DefragPlannerTest, VacatesSparsestHostIntoDensest) {
  const auto datacenter = small_dc(1, 3);
  OstroScheduler scheduler(datacenter);
  PlacementService service(scheduler);
  StackRegistry registry;

  // Host 0 dense (6 of 8 cores), host 1 sparse (2 cores), host 2 empty.
  const auto dense = vms(3, 2.0);
  const auto sparse = vms(1, 2.0);
  net::commit_placement(scheduler.occupancy(), *dense, {0, 0, 0});
  net::commit_placement(scheduler.occupancy(), *sparse, {1});
  registry.add(1, dense, {0, 0, 0});
  registry.add(2, sparse, {1});

  DefragPlanner planner(service, registry, DefragConfig{});
  const DefragStats stats = planner.run_once();
  EXPECT_EQ(stats.moves_committed, 1u);
  EXPECT_EQ(stats.hosts_vacated, 1u);
  EXPECT_GT(stats.commit_epoch, 0u);

  // The sparse VM consolidated into the dense host; the source went idle.
  EXPECT_DOUBLE_EQ(scheduler.occupancy().used(0).vcpus, 8.0);
  EXPECT_FALSE(scheduler.occupancy().is_active(1));
  EXPECT_EQ(registry.get(2)->assignment, net::Assignment{0});
  EXPECT_EQ(scheduler.occupancy().active_host_count(), 1u);

  // Steady state: nothing sparse is movable any more.
  EXPECT_EQ(planner.run_once().moves_committed, 0u);
}

TEST(DefragPlannerTest, AllOrNothingPerHostAndNoRefillOfVacatedHosts) {
  const auto datacenter = small_dc(1, 3);
  OstroScheduler scheduler(datacenter);
  PlacementService service(scheduler);
  StackRegistry registry;

  // Two sparse hosts (2 cores each) and one denser host (4 cores): the
  // planner must consolidate without bouncing load into hosts it just
  // emptied.
  const auto two = vms(1, 2.0);
  const auto four = vms(2, 2.0);
  net::commit_placement(scheduler.occupancy(), *four, {0, 0});
  net::commit_placement(scheduler.occupancy(), *two, {1});
  net::commit_placement(scheduler.occupancy(), *two, {2});
  registry.add(1, four, {0, 0});
  registry.add(2, two, {1});
  registry.add(3, two, {2});

  DefragPlanner planner(service, registry, DefragConfig{});
  const DefragStats stats = planner.run_once();
  EXPECT_GE(stats.hosts_vacated, 1u);
  // However the batch lands, every stack still satisfies its structure and
  // the total load is conserved.
  double total = 0.0;
  for (dc::HostId h = 0; h < datacenter.host_count(); ++h) {
    total += scheduler.occupancy().used(h).vcpus;
  }
  EXPECT_DOUBLE_EQ(total, 8.0);
  EXPECT_LT(scheduler.occupancy().active_host_count(), 3u);
}

TEST(DefragPlannerTest, MoveAndDowntimeBudgetsBoundTheBatch) {
  const auto datacenter = small_dc(1, 4);
  OstroScheduler scheduler(datacenter);
  PlacementService service(scheduler);
  StackRegistry registry;

  const auto one = vms(1, 1.0);
  const auto heavy = vms(1, 6.0);
  net::commit_placement(scheduler.occupancy(), *heavy, {0});
  registry.add(1, heavy, {0});
  for (StackId id = 2; id <= 4; ++id) {
    const auto host = static_cast<dc::HostId>(id - 1);
    net::commit_placement(scheduler.occupancy(), *one, {host});
    registry.add(id, one, {host});
  }

  DefragConfig config;
  config.max_moves = 0;
  EXPECT_EQ(DefragPlanner(service, registry, config).run_once().moves_proposed,
            0u);

  // Downtime budget of one move: exactly one sparse host consolidates.
  config.max_moves = 8;
  config.downtime_budget_seconds = 0.5;
  config.downtime_per_move_seconds = 0.5;
  const DefragStats stats =
      DefragPlanner(service, registry, config).run_once();
  EXPECT_EQ(stats.moves_committed, 1u);
}

TEST(DefragPlannerTest, MaxResidentNodesBoundsVacateCandidates) {
  const auto datacenter = small_dc(1, 3);
  OstroScheduler scheduler(datacenter);
  PlacementService service(scheduler);
  StackRegistry registry;

  // Host 0 is full (never a vacate candidate), host 1 carries a 2-resident
  // pair: with max_resident_nodes = 1 nothing qualifies.
  const auto pair = vms(2, 1.0);
  const auto full = vms(1, 8.0);
  net::commit_placement(scheduler.occupancy(), *full, {0});
  net::commit_placement(scheduler.occupancy(), *pair, {1, 1});
  registry.add(1, full, {0});
  registry.add(2, pair, {1, 1});

  DefragConfig config;
  config.max_resident_nodes = 1;  // the 2-resident host is out of scope
  const DefragStats stats =
      DefragPlanner(service, registry, config).run_once();
  EXPECT_EQ(stats.moves_proposed, 0u);
  EXPECT_DOUBLE_EQ(scheduler.occupancy().used(1).vcpus, 2.0);
}

TEST(DefragPlannerTest, ZoneConstraintsBlockColocatingMoves) {
  const auto datacenter = small_dc(1, 2);
  OstroScheduler scheduler(datacenter);
  PlacementService service(scheduler);
  StackRegistry registry;

  // A host-diverse pair spread over both hosts, host 0 denser.  The only
  // consolidation target would co-locate the pair: the planner must leave
  // it alone.
  const auto filler = vms(1, 4.0);
  const auto pair = zoned_pair(2.0);
  net::commit_placement(scheduler.occupancy(), *filler, {0});
  net::commit_placement(scheduler.occupancy(), *pair, {0, 1});
  registry.add(1, filler, {0});
  registry.add(2, pair, {0, 1});

  DefragPlanner planner(service, registry, DefragConfig{});
  const DefragStats stats = planner.run_once();
  EXPECT_EQ(stats.moves_committed, 0u);
  ASSERT_TRUE(verify_assignment_structure(datacenter, *pair,
                                          registry.get(2)->assignment)
                  .empty());
}

TEST(DefragPlannerTest, ConflictingPlanRetriesAgainstFreshSnapshot) {
  const auto datacenter = small_dc(1, 3);
  OstroScheduler scheduler(datacenter);
  PlacementService service(scheduler);
  StackRegistry registry;

  const auto dense = vms(3, 2.0);
  const auto sparse = vms(1, 2.0);
  net::commit_placement(scheduler.occupancy(), *dense, {0, 0, 0});
  net::commit_placement(scheduler.occupancy(), *sparse, {1});
  registry.add(1, dense, {0, 0, 0});
  registry.add(2, sparse, {1});

  // plan_batch on a pre-race snapshot, then the stack departs: the commit
  // gate turns the member into a conflict and touches nothing.
  DefragPlanner planner(service, registry, DefragConfig{});
  PlacementService::MigrationBatch batch =
      planner.plan_batch(service.snapshot());
  ASSERT_EQ(batch.members.size(), 1u);
  ASSERT_TRUE(service.release_stack(registry, 2));
  const dc::Occupancy before = scheduler.occupancy();
  EXPECT_EQ(service.try_commit_migration(batch, registry), 0u);
  EXPECT_EQ(batch.members[0].outcome,
            PlacementService::CommitOutcome::kConflict);
  EXPECT_TRUE(scheduler.occupancy() == before);
}

}  // namespace
}  // namespace ostro::core
