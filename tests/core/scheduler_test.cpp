#include "core/scheduler.h"

#include <gtest/gtest.h>

#include "core/verify.h"
#include "helpers.h"

namespace ostro::core {
namespace {

using ostro::testing::add_host_load;
using ostro::testing::small_dc;
using ostro::testing::tiny_app;

TEST(SchedulerTest, PlanDoesNotMutateOccupancy) {
  const auto datacenter = small_dc(2, 2);
  OstroScheduler scheduler(datacenter);
  const auto app = tiny_app();
  const Placement placement = scheduler.plan(app, Algorithm::kEg);
  ASSERT_TRUE(placement.feasible);
  EXPECT_EQ(scheduler.occupancy().active_host_count(), 0u);
}

TEST(SchedulerTest, DeployCommits) {
  const auto datacenter = small_dc(2, 2);
  OstroScheduler scheduler(datacenter);
  const auto app = tiny_app();
  const Placement placement = scheduler.deploy(app, Algorithm::kEg);
  ASSERT_TRUE(placement.feasible);
  EXPECT_GT(scheduler.occupancy().active_host_count(), 0u);
  // The committed reservation equals the reported one.
  EXPECT_NEAR(scheduler.occupancy().total_reserved_mbps(),
              placement.reserved_bandwidth_mbps, 1e-9);
}

TEST(SchedulerTest, PlacementFieldsConsistent) {
  const auto datacenter = small_dc(2, 2);
  OstroScheduler scheduler(datacenter);
  const auto app = tiny_app();
  for (const auto algorithm :
       {Algorithm::kEg, Algorithm::kEgC, Algorithm::kEgBw, Algorithm::kBaStar,
        Algorithm::kDbaStar}) {
    const Placement placement = scheduler.plan(app, Algorithm(algorithm));
    ASSERT_TRUE(placement.feasible) << to_string(algorithm);
    EXPECT_EQ(placement.assignment.size(), app.node_count());
    EXPECT_GE(placement.hosts_used, 1);
    EXPECT_GE(placement.new_active_hosts, 0);
    EXPECT_LE(placement.new_active_hosts, placement.hosts_used);
    EXPECT_GE(placement.utility, 0.0);
    EXPECT_LE(placement.utility, 1.0);
    EXPECT_GE(placement.stats.runtime_seconds, 0.0);
    EXPECT_TRUE(verify_placement(scheduler.occupancy(), app,
                                 placement.assignment)
                    .empty())
        << to_string(algorithm);
  }
}

TEST(SchedulerTest, SuccessiveDeploysSeeReducedCapacity) {
  const auto datacenter = small_dc(1, 1);  // one 8-core host
  OstroScheduler scheduler(datacenter);
  topo::TopologyBuilder builder;
  builder.add_vm("big", {6.0, 6.0, 0.0});
  const auto app1 = builder.build();
  ASSERT_TRUE(scheduler.deploy(app1, Algorithm::kEg).feasible);

  topo::TopologyBuilder builder2;
  builder2.add_vm("big2", {6.0, 6.0, 0.0});
  const auto app2 = builder2.build();
  const Placement second = scheduler.deploy(app2, Algorithm::kEg);
  EXPECT_FALSE(second.feasible);
  EXPECT_FALSE(second.failure_reason.empty());
}

TEST(SchedulerTest, InfeasibleDeployCommitsNothing) {
  const auto datacenter = small_dc(1, 1);
  OstroScheduler scheduler(datacenter);
  add_host_load(scheduler.occupancy(), 0, {7.0, 0.0, 0.0});
  const auto before = scheduler.occupancy();
  const Placement placement = scheduler.deploy(tiny_app(), Algorithm::kEg);
  EXPECT_FALSE(placement.feasible);
  EXPECT_TRUE(scheduler.occupancy() == before);
}

TEST(SchedulerTest, DeploySetsCommittedFlag) {
  const auto datacenter = small_dc(2, 2);
  OstroScheduler scheduler(datacenter);
  const Placement planned = scheduler.plan(tiny_app(), Algorithm::kEg);
  ASSERT_TRUE(planned.feasible);
  EXPECT_FALSE(planned.committed);  // plan never commits
  const Placement deployed = scheduler.deploy(tiny_app(), Algorithm::kEg);
  ASSERT_TRUE(deployed.feasible);
  EXPECT_TRUE(deployed.committed);
}

TEST(SchedulerTest, OvercommittedDeployIsFeasibleButNotCommitted) {
  // Two 4-core hosts with 100 Mbps uplinks and a 500 Mbps pipe between two
  // 3-core VMs: EG_C (which ignores pipes) must split them across hosts,
  // overcommitting the uplinks.  deploy() used to return feasible=true
  // while silently skipping the commit; the committed flag makes that
  // outcome explicit.
  dc::DataCenterBuilder builder;
  const auto site = builder.add_site("site0", 16000.0);
  const auto pod = builder.add_pod(site, "pod0", 16000.0);
  const auto rack = builder.add_rack(pod, "rack0", 4000.0);
  builder.add_host(rack, "h0", {4.0, 8.0, 100.0}, 100.0);
  builder.add_host(rack, "h1", {4.0, 8.0, 100.0}, 100.0);
  const auto datacenter = builder.build();

  topo::TopologyBuilder app_builder;
  app_builder.add_vm("a", {3.0, 3.0, 0.0});
  app_builder.add_vm("b", {3.0, 3.0, 0.0});
  app_builder.connect("a", "b", 500.0);
  const auto app = app_builder.build();

  OstroScheduler scheduler(datacenter);
  const Placement placement = scheduler.deploy(app, Algorithm::kEgC);
  ASSERT_TRUE(placement.feasible);
  ASSERT_TRUE(placement.bandwidth_overcommitted);
  EXPECT_FALSE(placement.committed);
  EXPECT_NE(placement.failure_reason.find("overcommit"), std::string::npos);
  // Nothing was applied.
  EXPECT_TRUE(scheduler.occupancy() == dc::Occupancy(datacenter));
}

TEST(SchedulerTest, CommitRejectsInfeasiblePlacement) {
  const auto datacenter = small_dc();
  OstroScheduler scheduler(datacenter);
  Placement placement;  // default: infeasible
  EXPECT_THROW(scheduler.commit(tiny_app(), placement), std::invalid_argument);
}

TEST(SchedulerTest, PinnedRequestKeepsHosts) {
  const auto datacenter = small_dc(2, 2);
  OstroScheduler scheduler(datacenter);
  const auto app = tiny_app();
  PlacementRequest request;
  request.topology = &app;
  request.pinned.assign(app.node_count(), dc::kInvalidHost);
  request.pinned[0] = 3;  // web pinned to the last host
  const Placement placement = scheduler.plan(request, Algorithm::kEg);
  ASSERT_TRUE(placement.feasible);
  EXPECT_EQ(placement.assignment[0], 3u);
}

TEST(SchedulerTest, InvalidPinReportedNotThrown) {
  const auto datacenter = small_dc(1, 2);
  OstroScheduler scheduler(datacenter);
  add_host_load(scheduler.occupancy(), 0, {7.0, 0.0, 0.0});
  const auto app = tiny_app();
  PlacementRequest request;
  request.topology = &app;
  request.pinned.assign(app.node_count(), dc::kInvalidHost);
  request.pinned[1] = 0;  // db (4 cores) cannot fit host 0 (1 core left)
  const Placement placement = scheduler.plan(request, Algorithm::kEg);
  EXPECT_FALSE(placement.feasible);
  EXPECT_NE(placement.failure_reason.find("pinned"), std::string::npos);
}

TEST(SchedulerTest, NullTopologyThrows) {
  const auto datacenter = small_dc();
  OstroScheduler scheduler(datacenter);
  PlacementRequest request;
  EXPECT_THROW((void)scheduler.plan(request, Algorithm::kEg),
               std::invalid_argument);
}

TEST(SchedulerTest, PinnedSizeMismatchThrows) {
  const auto datacenter = small_dc();
  const dc::Occupancy occupancy(datacenter);
  const auto app = tiny_app();
  const net::Assignment bad_pins{0};
  EXPECT_THROW((void)place_topology(occupancy, app, Algorithm::kEg,
                                    SearchConfig{}, &bad_pins, nullptr),
               std::invalid_argument);
}

TEST(SchedulerTest, DbaDeadlineFlowsThroughConfig) {
  const auto datacenter = small_dc(2, 2);
  OstroScheduler scheduler(datacenter);
  SearchConfig config;
  config.deadline_seconds = 0.25;
  const Placement placement =
      scheduler.plan(tiny_app(), Algorithm::kDbaStar, config);
  EXPECT_TRUE(placement.feasible);
}

}  // namespace
}  // namespace ostro::core
