// PlacementService: the optimistic snapshot/plan/validate-commit protocol.
//
// Deterministic interleaving tests drive the plan / try_commit primitives
// (and place() with a post-plan hook injecting competing commits) to pin
// down the re-validation gate; the stress test hammers one service from
// many threads and checks the committed set replays serially to the exact
// same occupancy.  The whole file runs under TSan in CI.
#include "core/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/scheduler.h"
#include "helpers.h"
#include "net/reservation.h"
#include "topology/app_topology.h"
#include "util/rng.h"

namespace ostro::core {
namespace {

using ostro::testing::small_dc;
using ostro::testing::tiny_app;

/// One 8-core host plus one 2-core host: a 6-core VM fits only on "big",
/// so two 6-core requests contend for exactly one slot.
dc::DataCenter contended_dc() {
  dc::DataCenterBuilder builder;
  const auto site = builder.add_site("site0", 16000.0);
  const auto pod = builder.add_pod(site, "pod0", 16000.0);
  const auto rack = builder.add_rack(pod, "rack0", 4000.0);
  builder.add_host(rack, "big", {8.0, 16.0, 500.0}, 1000.0);
  builder.add_host(rack, "small", {2.0, 4.0, 100.0}, 1000.0);
  return builder.build();
}

topo::AppTopology one_vm(const std::string& name, double cores) {
  topo::TopologyBuilder builder;
  builder.add_vm(name, {cores, cores, 0.0});
  return builder.build();
}

TEST(ServiceTest, PlaceCommitsLikeDeploy) {
  const auto datacenter = small_dc(2, 2);
  OstroScheduler scheduler(datacenter);
  PlacementService service(scheduler);

  OstroScheduler reference(datacenter);
  const Placement expected = reference.deploy(tiny_app(), Algorithm::kEg);
  ASSERT_TRUE(expected.committed);

  const ServiceResult result = service.place(tiny_app(), Algorithm::kEg);
  ASSERT_TRUE(result.placement.feasible);
  EXPECT_TRUE(result.placement.committed);
  EXPECT_EQ(result.placement.assignment, expected.assignment);
  EXPECT_EQ(result.conflicts, 0u);
  EXPECT_EQ(result.retries, 0u);
  EXPECT_GT(result.commit_epoch, 0u);
  EXPECT_TRUE(scheduler.occupancy() == reference.occupancy());
}

TEST(ServiceTest, FreshSnapshotCommitsWithoutRevalidation) {
  const auto datacenter = small_dc(1, 2);
  OstroScheduler scheduler(datacenter);
  PlacementService service(scheduler);

  PlannedPlacement planned = service.plan(tiny_app(), Algorithm::kEg);
  ASSERT_TRUE(planned.placement.feasible);
  EXPECT_EQ(planned.epoch, service.epoch());

  std::uint64_t commit_epoch = 0;
  EXPECT_EQ(service.try_commit(tiny_app(), planned, &commit_epoch),
            PlacementService::CommitOutcome::kCommitted);
  EXPECT_TRUE(planned.placement.committed);
  EXPECT_GT(commit_epoch, planned.epoch);
  EXPECT_EQ(commit_epoch, service.epoch());
}

TEST(ServiceTest, StaleButCompatibleSnapshotStillCommits) {
  const auto datacenter = small_dc(1, 2);
  OstroScheduler scheduler(datacenter);
  PlacementService service(scheduler);

  // Plan A against the empty occupancy, then let B commit first.  Both
  // stacks fit, so A's stale snapshot re-validates cleanly and commits.
  const auto app_a = one_vm("a", 1.0);
  PlannedPlacement planned = service.plan(app_a, Algorithm::kEg);
  ASSERT_TRUE(planned.placement.feasible);

  const ServiceResult other = service.place(one_vm("b", 1.0), Algorithm::kEg);
  ASSERT_TRUE(other.placement.committed);
  EXPECT_NE(planned.epoch, service.epoch());  // snapshot is now stale

  EXPECT_EQ(service.try_commit(app_a, planned),
            PlacementService::CommitOutcome::kCommitted);
  EXPECT_TRUE(planned.placement.committed);
}

TEST(ServiceTest, ConflictingCommitIsDetectedAtTheGate) {
  const auto datacenter = contended_dc();
  OstroScheduler scheduler(datacenter);
  PlacementService service(scheduler);

  const auto app_a = one_vm("a", 6.0);
  PlannedPlacement planned = service.plan(app_a, Algorithm::kEg);
  ASSERT_TRUE(planned.placement.feasible);

  // B consumes the only slot that fits a 6-core VM before A commits.
  const ServiceResult other = service.place(one_vm("b", 6.0), Algorithm::kEg);
  ASSERT_TRUE(other.placement.committed);

  const dc::Occupancy before = scheduler.occupancy();
  EXPECT_EQ(service.try_commit(app_a, planned),
            PlacementService::CommitOutcome::kConflict);
  EXPECT_FALSE(planned.placement.committed);
  // A conflict commits nothing.
  EXPECT_TRUE(scheduler.occupancy() == before);
}

// The gate checks a stale plan with the commit's own link tolerance, so a
// plan the gate accepts cannot make the commit throw.  B's pipe leaves a
// 5e-7 Mbps overshoot once A commits: within a 1e-6 slack, past 1e-9.
TEST(ServiceTest, StalePlanPastLinkCapacityIsAConflictNotAThrow) {
  const auto datacenter = small_dc(1, 2);  // two hosts, 1000 Mbps uplinks
  OstroScheduler scheduler(datacenter);
  PlacementService service(scheduler);
  const auto spread_pair = [](double cores, double mbps) {
    topo::TopologyBuilder builder;
    builder.add_vm("a", {cores, cores, 0.0});
    builder.add_vm("b", {cores, cores, 0.0});
    builder.connect("a", "b", mbps);
    builder.add_zone("spread", topo::DiversityLevel::kHost,
                     std::vector<std::string>{"a", "b"});
    return builder.build();
  };

  const auto app_b = spread_pair(1.0, 500.0000005);
  PlannedPlacement planned = service.plan(app_b, Algorithm::kEg);
  ASSERT_TRUE(planned.placement.feasible);
  const ServiceResult a =
      service.place(spread_pair(6.0, 500.0), Algorithm::kEg);
  ASSERT_TRUE(a.placement.committed);

  const dc::Occupancy before = scheduler.occupancy();
  EXPECT_EQ(service.try_commit(app_b, planned),
            PlacementService::CommitOutcome::kConflict);
  EXPECT_FALSE(planned.placement.committed);
  EXPECT_TRUE(scheduler.occupancy() == before);
}

TEST(ServiceTest, InfeasibleAndOvercommittedPlansAreRejected) {
  const auto datacenter = small_dc(1, 1);
  OstroScheduler scheduler(datacenter);
  PlacementService service(scheduler);

  PlannedPlacement infeasible = service.plan(one_vm("x", 64.0), Algorithm::kEg);
  ASSERT_FALSE(infeasible.placement.feasible);
  EXPECT_EQ(service.try_commit(one_vm("x", 64.0), infeasible),
            PlacementService::CommitOutcome::kRejected);
  EXPECT_FALSE(infeasible.placement.committed);
}

TEST(ServiceTest, ConflictTriggersReplanOntoRemainingCapacity) {
  const auto datacenter = small_dc(1, 2);  // two 8-core hosts
  OstroScheduler scheduler(datacenter);
  PlacementService service(scheduler);

  // After A's first plan, inject a competing 6-core commit; A's replan
  // must land on whichever host still has room.  (The hook fires for the
  // nested place() too — the one-shot guard stops the recursion.)
  std::atomic<bool> injected{false};
  service.set_post_plan_hook([&](std::uint32_t) {
    if (!injected.exchange(true)) {
      const ServiceResult r = service.place(one_vm("b", 6.0), Algorithm::kEg);
      ASSERT_TRUE(r.placement.committed);
    }
  });

  const ServiceResult result = service.place(one_vm("a", 6.0), Algorithm::kEg);
  EXPECT_TRUE(injected.load());
  ASSERT_TRUE(result.placement.feasible);
  EXPECT_TRUE(result.placement.committed);
  EXPECT_EQ(result.conflicts, 1u);
  EXPECT_EQ(result.retries, 1u);
  // Both 6-core VMs are placed, necessarily on distinct hosts.
  EXPECT_EQ(scheduler.occupancy().active_host_count(), 2u);
}

TEST(ServiceTest, ExhaustedRetryLadderReturnsUncommitted) {
  const auto datacenter = contended_dc();
  OstroScheduler scheduler(datacenter);
  PlacementService service(scheduler);

  SearchConfig config;
  config.service_max_conflict_retries = 0;  // no replans allowed
  std::atomic<bool> injected{false};
  service.set_post_plan_hook([&](std::uint32_t) {
    if (!injected.exchange(true)) {
      const ServiceResult r = service.place(one_vm("b", 6.0), Algorithm::kEg);
      ASSERT_TRUE(r.placement.committed);
    }
  });

  const ServiceResult result =
      service.place(one_vm("a", 6.0), Algorithm::kEg, config);
  ASSERT_TRUE(result.placement.feasible);
  EXPECT_FALSE(result.placement.committed);
  EXPECT_EQ(result.conflicts, 1u);
  EXPECT_EQ(result.retries, 0u);
  EXPECT_NE(result.placement.failure_reason.find("commit conflict"),
            std::string::npos);
}

TEST(ServiceTest, ReplanAfterConflictCanComeBackInfeasible) {
  const auto datacenter = contended_dc();
  OstroScheduler scheduler(datacenter);
  PlacementService service(scheduler);

  std::atomic<bool> injected{false};
  service.set_post_plan_hook([&](std::uint32_t) {
    if (!injected.exchange(true)) {
      const ServiceResult r = service.place(one_vm("b", 6.0), Algorithm::kEg);
      ASSERT_TRUE(r.placement.committed);
    }
  });

  // Attempt 0 conflicts; the replan sees "big" full and 6 cores nowhere
  // else, so the request ends infeasible rather than conflicted.
  const ServiceResult result = service.place(one_vm("a", 6.0), Algorithm::kEg);
  EXPECT_FALSE(result.placement.feasible);
  EXPECT_FALSE(result.placement.committed);
  EXPECT_EQ(result.conflicts, 1u);
  EXPECT_EQ(result.retries, 1u);
}

TEST(ServiceTest, CommitterRefusalIsRejectedNotRetried) {
  const auto datacenter = small_dc(1, 2);
  OstroScheduler scheduler(datacenter);
  PlacementService service(scheduler);

  int committer_calls = 0;
  const ServiceResult result = service.place_with(
      tiny_app(), Algorithm::kEg, SearchConfig{},
      [&](const Placement&, std::string& failure) {
        ++committer_calls;
        failure = "quota exceeded";
        return false;
      });
  EXPECT_EQ(committer_calls, 1);
  ASSERT_TRUE(result.placement.feasible);
  EXPECT_FALSE(result.placement.committed);
  EXPECT_EQ(result.placement.failure_reason, "quota exceeded");
  EXPECT_EQ(result.conflicts, 0u);
  EXPECT_TRUE(scheduler.occupancy() == dc::Occupancy(datacenter));
}

// A stale plan that still fits commits, but a competing commit activated
// its host after the snapshot: the request reports what its own commit
// activated (no host) and re-prices its utility to match.
TEST(ServiceTest, StaleCommitReportsTheHostsItActivated) {
  const auto datacenter = small_dc(1, 2);  // two 8-core hosts
  OstroScheduler scheduler(datacenter);
  PlacementService service(scheduler);

  std::atomic<bool> injected{false};
  dc::HostId competitor = dc::kInvalidHost;
  service.set_post_plan_hook([&](std::uint32_t) {
    if (!injected.exchange(true)) {
      const ServiceResult r = service.place(one_vm("b", 1.0), Algorithm::kEg);
      ASSERT_TRUE(r.placement.committed);
      EXPECT_EQ(r.placement.new_active_hosts, 1);
      competitor = r.placement.assignment[0];
    }
  });

  const ServiceResult result = service.place(one_vm("a", 1.0), Algorithm::kEg);
  ASSERT_TRUE(result.placement.committed);
  EXPECT_EQ(result.conflicts, 0u);
  EXPECT_EQ(result.placement.assignment[0], competitor);
  EXPECT_EQ(result.placement.new_active_hosts, 0);
  EXPECT_EQ(result.placement.utility, 0.0);
  EXPECT_EQ(scheduler.occupancy().active_host_count(), 1u);
}

// The stress test of the ISSUE's acceptance criteria: N threads x M stacks
// against one service.  Every request either commits or reports why not;
// afterwards the live occupancy must equal a *serial* replay of exactly
// the committed placements in commit_epoch order (bit-identical floats),
// and no request may exceed the configured retry ladder.
TEST(ServiceStressTest, ConcurrentPlacementsMatchSerialReplay) {
  constexpr int kThreads = 8;
  constexpr int kStacksPerThread = 50;

  const auto datacenter = small_dc(4, 4);  // 16 hosts, 128 cores
  const SearchConfig config{};
  OstroScheduler scheduler(datacenter, config);
  PlacementService service(scheduler);

  // Pre-build every topology so threads only touch the service.
  std::vector<topo::AppTopology> stacks;
  util::Rng rng(20260806);
  stacks.reserve(kThreads * kStacksPerThread);
  for (int i = 0; i < kThreads * kStacksPerThread; ++i) {
    topo::TopologyBuilder builder;
    const double cores = static_cast<double>(rng.uniform_int(1, 2));
    builder.add_vm("w", {cores, cores, 0.0});
    builder.add_vm("d", {1.0, 1.0, 0.0});
    builder.connect("w", "d",
                    static_cast<double>(rng.uniform_int(10, 50)));
    stacks.push_back(builder.build());
  }

  std::vector<ServiceResult> results(stacks.size());
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int j = 0; j < kStacksPerThread; ++j) {
        const std::size_t i = static_cast<std::size_t>(t) * kStacksPerThread +
                              static_cast<std::size_t>(j);
        results[i] = service.place(stacks[i], Algorithm::kEg, config);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // Each request is accounted for and bounded.
  struct Committed {
    std::uint64_t epoch;
    std::size_t index;
  };
  std::vector<Committed> committed;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ServiceResult& r = results[i];
    EXPECT_LE(r.retries, config.service_max_conflict_retries);
    if (r.placement.committed) {
      EXPECT_TRUE(r.placement.feasible);
      EXPECT_GT(r.commit_epoch, 0u);
      committed.push_back({r.commit_epoch, i});
    } else {
      EXPECT_FALSE(r.placement.failure_reason.empty());
    }
  }
  ASSERT_FALSE(committed.empty());

  // commit_epoch totally orders the committed set (writer-lock serialized).
  std::sort(committed.begin(), committed.end(),
            [](const Committed& a, const Committed& b) {
              return a.epoch < b.epoch;
            });
  for (std::size_t i = 1; i < committed.size(); ++i) {
    EXPECT_LT(committed[i - 1].epoch, committed[i].epoch);
  }

  // Serial replay in commit order reproduces the occupancy exactly —
  // same hosts, same link reservations, same floating-point sums.
  dc::Occupancy replay(datacenter);
  for (const Committed& c : committed) {
    net::commit_placement(replay, stacks[c.index],
                          results[c.index].placement.assignment);
  }
  EXPECT_TRUE(replay == scheduler.occupancy());

  // No double-booked capacity anywhere.
  for (dc::HostId h = 0; h < static_cast<dc::HostId>(datacenter.host_count());
       ++h) {
    const topo::Resources used = scheduler.occupancy().used(h);
    const topo::Resources& cap = datacenter.host(h).capacity;
    EXPECT_LE(used.vcpus, cap.vcpus);
    EXPECT_LE(used.mem_gb, cap.mem_gb);
    EXPECT_LE(used.disk_gb, cap.disk_gb);
  }
}

// BA* under concurrency: plans running in parallel on one scheduler must
// share no search state — TSan proves the isolation, and the bitwise
// comparison against serial plans of the same stacks proves every
// concurrent search reproduces the serial one exactly.
TEST(ServiceStressTest, ConcurrentBaStarPlansMatchSerialPlans) {
  const auto datacenter = small_dc(3, 3);
  const SearchConfig config{};
  OstroScheduler scheduler(datacenter, config);

  // A few distinct stacks so concurrent plans stress differently shaped
  // searches on the same threads.
  std::vector<topo::AppTopology> stacks;
  util::Rng rng(20260808);
  for (int i = 0; i < 4; ++i) {
    topo::TopologyBuilder builder;
    builder.add_vm("w0", {1.0 + i % 2, 2.0, 0.0});
    builder.add_vm("w1", {1.0, 1.0, 0.0});
    builder.add_vm("d", {2.0, 2.0, 0.0});
    builder.connect("w0", "d", 20.0 + 10.0 * i);
    builder.connect("w1", "d", 15.0);
    stacks.push_back(builder.build());
  }

  std::vector<Placement> references;
  references.reserve(stacks.size());
  for (const auto& stack : stacks) {
    references.push_back(
        scheduler.plan(stack, Algorithm::kBaStar, config));
    ASSERT_TRUE(references.back().feasible);
  }

  constexpr int kThreads = 8;
  constexpr int kPlansPerThread = 12;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int j = 0; j < kPlansPerThread; ++j) {
        // Round-robin over the stacks so each thread interleaves
        // differently sized plans.
        const std::size_t s =
            static_cast<std::size_t>(t + j) % stacks.size();
        const Placement plan =
            scheduler.plan(stacks[s], Algorithm::kBaStar, config);
        if (!plan.feasible || plan.assignment != references[s].assignment ||
            plan.utility != references[s].utility ||
            plan.stats.paths_expanded != references[s].stats.paths_expanded) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace ostro::core
