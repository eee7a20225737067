// ShardRouter raced across shards (run under TSan in CI).
//
// Eight worker threads hammer one 4-shard router over a 2-site WAN cluster
// with a mix of single-shard stacks, cross-shard (datacenter-diversity)
// stacks, and releases.  The router records every commit and release in its
// global-epoch commit log; because each epoch is drawn while the
// participating shard writer lock(s) are held, a SERIAL replay of the log
// in global-epoch order must reproduce every shard's live occupancy bit
// for bit — host loads, link accumulators, active flags.  Both sites are
// split, so cross-shard commits also load the site uplinks their owner
// shards hold.  Every commit that touches a link draws its epoch under the
// owner's writer lock, so the replay adds the same amounts to each link in
// the same order; the test runs once with integral bandwidths and once with
// multiples of 10/3 Mbps, whose sums depend on that order.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/shard_router.h"
#include "datacenter/occupancy.h"
#include "sim/clusters.h"
#include "topology/app_topology.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ostro::core {
namespace {

std::shared_ptr<const topo::AppTopology> small_stack(util::Rng& rng,
                                                     double mbps_unit) {
  topo::TopologyBuilder builder;
  const int vms = static_cast<int>(rng.uniform_int(1, 3));
  for (int i = 0; i < vms; ++i) {
    const double cpu = static_cast<double>(rng.uniform_int(1, 3));
    builder.add_vm("vm" + std::to_string(i), {cpu, cpu, 0.0});
  }
  for (int i = 1; i < vms; ++i) {
    builder.connect(static_cast<topo::NodeId>(i - 1),
                    static_cast<topo::NodeId>(i),
                    static_cast<double>(rng.uniform_int(1, 4)) * mbps_unit);
  }
  return std::make_shared<const topo::AppTopology>(builder.build());
}

/// Datacenter-diversity pair: must straddle sites, hence shards.
std::shared_ptr<const topo::AppTopology> spread_pair(util::Rng& rng,
                                                     double mbps_unit) {
  topo::TopologyBuilder builder;
  const double cpu = static_cast<double>(rng.uniform_int(1, 2));
  builder.add_vm("a", {cpu, cpu, 0.0});
  builder.add_vm("b", {cpu, cpu, 0.0});
  builder.connect("a", "b",
                  static_cast<double>(rng.uniform_int(1, 4)) * mbps_unit / 2.0);
  builder.add_zone("spread", topo::DiversityLevel::kDatacenter,
                   std::vector<std::string>{"a", "b"});
  return std::make_shared<const topo::AppTopology>(builder.build());
}

/// Races the router with pipes in multiples of `mbps_unit`, then replays
/// its commit log serially.
void race_and_replay(double mbps_unit) {
  const dc::DataCenter wan = sim::make_wan(2, 2, 1, 4);  // 16 hosts
  ShardConfig config;
  config.shards = 4;  // both sites split
  config.router_commit_log = true;
  ShardRouter router(wan, config);

  constexpr std::size_t kThreads = 8;
  constexpr int kOpsPerThread = 40;
  std::mutex live_mutex;
  std::vector<StackId> live;

  util::run_workers(kThreads, [&](std::size_t tid) {
    util::Rng rng(9000 + static_cast<std::uint64_t>(tid));
    for (int op = 0; op < kOpsPerThread; ++op) {
      const int roll = static_cast<int>(rng.uniform_int(0, 9));
      if (roll < 3) {
        // Release a random live stack (possibly racing another releaser;
        // release_stack's registry claim makes exactly one winner).
        StackId victim = 0;
        {
          const std::lock_guard<std::mutex> lock(live_mutex);
          if (!live.empty()) {
            const std::size_t i = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<int>(live.size()) - 1));
            victim = live[i];
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
          }
        }
        if (victim != 0) router.release_stack(victim);
        continue;
      }
      const auto app = roll < 8 ? small_stack(rng, mbps_unit)
                                : spread_pair(rng, mbps_unit);
      const ShardRouter::Result result = router.place(app, Algorithm::kEg);
      if (result.service.placement.committed) {
        const std::lock_guard<std::mutex> lock(live_mutex);
        live.push_back(result.stack_id);
      }
    }
  });

  // Serial replay in global-epoch order onto fresh per-shard occupancies
  // (over the SAME shard DataCenters, so operator== is meaningful).
  const std::vector<dc::Occupancy> replayed =
      replay_commit_log(router.layout(), router.commit_log());
  ASSERT_EQ(replayed.size(), router.shard_count());
  for (std::uint32_t k = 0; k < router.shard_count(); ++k) {
    EXPECT_EQ(replayed[k], router.service(k).snapshot()) << "shard " << k;
  }
  // And the stitch is internally consistent with the replayed parts.
  dc::Occupancy stitched(wan);
  for (std::uint32_t k = 0; k < router.shard_count(); ++k) {
    router.layout().overlay(stitched, k, replayed[k]);
  }
  EXPECT_EQ(stitched, router.stitched_snapshot());
}

TEST(ShardRaceTest, SerialReplayOfCommitLogReproducesEveryShard) {
  {
    SCOPED_TRACE("integral Mbps");
    race_and_replay(10.0);
  }
  {
    SCOPED_TRACE("Mbps in units of 10/3");
    race_and_replay(10.0 / 3.0);
  }
}

}  // namespace
}  // namespace ostro::core
