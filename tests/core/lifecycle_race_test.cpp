// Defrag racing streamed placements and releases (run under TSan in CI).
//
// Three placer threads, two releaser threads, and one defrag thread hammer
// one PlacementService.  Every thread records what it committed together
// with the commit epoch the service returned.  Because every commit happens
// under the service writer lock and bumps the occupancy version, replaying
// the merged records serially in commit_epoch order (members of one
// migration batch in member order — nothing interleaves inside a batch)
// on a fresh occupancy must reproduce the live occupancy bit for bit:
// host loads, link reservations, active flags and the FeasibilityIndex.
// All requirements and bandwidths are integral so releases cancel
// additions exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/defrag.h"
#include "core/scheduler.h"
#include "core/service.h"
#include "core/stack_registry.h"
#include "datacenter/occupancy.h"
#include "helpers.h"
#include "net/reservation.h"
#include "topology/app_topology.h"
#include "util/rng.h"

namespace ostro::core {
namespace {

using ostro::testing::small_dc;

struct Record {
  enum Kind : std::uint8_t { kPlace, kRelease, kMigrate };
  std::uint64_t epoch = 0;
  int member_index = 0;  ///< commit order inside one migration batch
  Kind kind = kPlace;
  std::shared_ptr<const topo::AppTopology> topology;
  net::Assignment from;
  net::Assignment to;
};

std::shared_ptr<const topo::AppTopology> single_vm() {
  topo::TopologyBuilder builder;
  builder.add_vm("vm", {1.0, 1.0, 0.0});
  return std::make_shared<const topo::AppTopology>(builder.build());
}

std::shared_ptr<const topo::AppTopology> piped_pair() {
  topo::TopologyBuilder builder;
  builder.add_vm("a", {2.0, 2.0, 0.0});
  builder.add_vm("b", {2.0, 2.0, 0.0});
  builder.connect("a", "b", 10.0);
  return std::make_shared<const topo::AppTopology>(builder.build());
}

std::shared_ptr<const topo::AppTopology> zoned_pair() {
  topo::TopologyBuilder builder;
  builder.add_vm("a", {1.0, 1.0, 0.0});
  builder.add_vm("b", {1.0, 1.0, 0.0});
  builder.connect("a", "b", 10.0);
  builder.add_zone("dz", topo::DiversityLevel::kHost, {0, 1});
  return std::make_shared<const topo::AppTopology>(builder.build());
}

TEST(LifecycleRaceTest, DefragRacesStreamedPlacementsAndReplaysSerially) {
  const auto datacenter = small_dc(2, 3);
  SearchConfig search;
  search.threads = 1;  // concurrency comes from the test threads below
  OstroScheduler scheduler(datacenter, search);
  PlacementService service(scheduler);
  StackRegistry registry;

  const std::vector<std::shared_ptr<const topo::AppTopology>> apps = {
      single_vm(), piped_pair(), zoned_pair()};

  constexpr int kPlacers = 3;
  constexpr int kReleasers = 2;
  constexpr int kPlacesPerThread = 60;
  constexpr int kReleasesPerThread = 90;
  constexpr int kDefragRounds = 50;
  std::vector<std::vector<Record>> records(kPlacers + kReleasers + 1);
  std::atomic<StackId> next_id{1};

  std::vector<std::thread> threads;
  for (int t = 0; t < kPlacers; ++t) {
    threads.emplace_back([&, t] {
      util::Rng rng(100 + static_cast<std::uint64_t>(t));
      std::vector<Record>& out = records[static_cast<std::size_t>(t)];
      for (int i = 0; i < kPlacesPerThread; ++i) {
        const auto& topology = apps[static_cast<std::size_t>(
            rng.next_below(apps.size()))];
        const ServiceResult result =
            service.place(*topology, Algorithm::kEg);
        if (!result.placement.committed) continue;
        const StackId id = next_id.fetch_add(1, std::memory_order_relaxed);
        registry.add(id, topology, result.placement.assignment);
        out.push_back({result.commit_epoch, 0, Record::kPlace, topology,
                       {}, result.placement.assignment});
      }
    });
  }
  for (int t = 0; t < kReleasers; ++t) {
    threads.emplace_back([&, t] {
      util::Rng rng(200 + static_cast<std::uint64_t>(t));
      std::vector<Record>& out =
          records[static_cast<std::size_t>(kPlacers + t)];
      for (int i = 0; i < kReleasesPerThread; ++i) {
        const std::vector<DeployedStack> live = registry.snapshot();
        if (live.empty()) {
          std::this_thread::yield();
          continue;
        }
        const StackId id =
            live[static_cast<std::size_t>(rng.next_below(live.size()))].id;
        std::uint64_t epoch = 0;
        DeployedStack released;
        if (service.release_stack(registry, id, true, &epoch, &released)) {
          out.push_back({epoch, 0, Record::kRelease, released.topology,
                         released.assignment, {}});
        }
      }
    });
  }
  threads.emplace_back([&] {
    DefragPlanner planner(service, registry, DefragConfig{});
    std::vector<Record>& out = records.back();
    for (int i = 0; i < kDefragRounds; ++i) {
      PlacementService::MigrationBatch batch =
          planner.plan_batch(service.snapshot());
      if (batch.members.empty()) continue;
      std::uint64_t epoch = 0;
      if (service.try_commit_migration(batch, registry, &epoch) == 0) {
        continue;
      }
      int index = 0;
      for (const PlacementService::MigrationMember& member : batch.members) {
        if (member.outcome != PlacementService::CommitOutcome::kCommitted) {
          continue;
        }
        out.push_back({epoch, index++, Record::kMigrate, member.topology,
                       member.from, member.to});
      }
    }
  });
  for (std::thread& thread : threads) thread.join();

  std::vector<Record> all;
  for (std::vector<Record>& r : records) {
    all.insert(all.end(), r.begin(), r.end());
  }
  ASSERT_FALSE(all.empty());
  std::sort(all.begin(), all.end(), [](const Record& a, const Record& b) {
    return a.epoch != b.epoch ? a.epoch < b.epoch
                              : a.member_index < b.member_index;
  });

  // Serial replay: a migration member is release-at-from + commit-at-to.
  dc::Occupancy replay(datacenter);
  for (const Record& record : all) {
    switch (record.kind) {
      case Record::kPlace:
        net::commit_placement(replay, *record.topology, record.to);
        break;
      case Record::kRelease:
        net::release_placement(replay, *record.topology, record.from);
        break;
      case Record::kMigrate:
        net::release_placement(replay, *record.topology, record.from);
        net::commit_placement(replay, *record.topology, record.to);
        break;
    }
  }
  EXPECT_TRUE(replay == scheduler.occupancy());
}

}  // namespace
}  // namespace ostro::core
