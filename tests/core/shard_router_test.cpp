// core::ShardRouter: the single-shard bit-identical differential against a
// plain PlacementService, shard routing, the cross-shard two-phase commit
// (shared-uplink ledger accounting, exact release, abort semantics), and
// ShardConfig validation.
#include "core/shard_router.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "core/service.h"
#include "core/stack_registry.h"
#include "datacenter/occupancy.h"
#include "helpers.h"
#include "net/reservation.h"
#include "sim/clusters.h"
#include "util/rng.h"

namespace ostro::core {
namespace {

using ostro::testing::random_app;
using ostro::testing::tiny_app;
using ostro::testing::two_site_dc;

std::shared_ptr<const topo::AppTopology> shared(topo::AppTopology app) {
  return std::make_shared<const topo::AppTopology>(std::move(app));
}

/// Two VMs that fill a whole host each, forced onto distinct sites — the
/// canonical shard-straddling stack for a make_wan cluster (16-core hosts).
topo::AppTopology cross_site_pair(double pipe_mbps) {
  topo::TopologyBuilder builder;
  builder.add_vm("a", {16.0, 16.0, 0.0});
  builder.add_vm("b", {16.0, 16.0, 0.0});
  builder.connect("a", "b", pipe_mbps);
  builder.add_zone("spread", topo::DiversityLevel::kDatacenter,
                   std::vector<std::string>{"a", "b"});
  return builder.build();
}

TEST(ShardRouterTest, ConfigValidation) {
  const dc::DataCenter global = two_site_dc(1, 2);
  ShardConfig config;
  config.shards = 0;
  EXPECT_THROW(ShardRouter(global, config), std::invalid_argument);
  config.shards = 1;
  EXPECT_NO_THROW(ShardRouter(global, config));
}

// shards=1 must behave exactly like a plain PlacementService over the same
// global datacenter: identical assignments and, after every commit and
// release, an occupancy equal bit for bit (operator== compares every load,
// link accumulator, and active flag).
TEST(ShardRouterTest, SingleShardBitIdenticalToPlacementService) {
  const dc::DataCenter global = two_site_dc(2, 2);  // 8 hosts
  OstroScheduler mono_scheduler(global);
  PlacementService mono(mono_scheduler);
  StackRegistry mono_registry;

  ShardConfig config;
  config.shards = 1;
  ShardRouter router(global, config);

  util::Rng rng(20260807);
  std::vector<StackId> routed_ids;
  std::vector<StackId> mono_ids;
  for (int i = 0; i < 8; ++i) {
    const auto app = shared(random_app(rng, 3, 0.5, /*with_zone=*/false));
    const Algorithm algorithm = (i % 2 == 0) ? Algorithm::kEg
                                             : Algorithm::kBaStar;
    const ServiceResult expect = mono.place(*app, algorithm);
    ShardRouter::Result got = router.place(app, algorithm);

    ASSERT_EQ(got.service.placement.committed, expect.placement.committed);
    ASSERT_EQ(got.service.placement.feasible, expect.placement.feasible);
    if (expect.placement.committed) {
      EXPECT_EQ(got.service.placement.assignment,
                expect.placement.assignment);
      EXPECT_FALSE(got.cross_shard);
      EXPECT_EQ(got.shard, 0u);
      mono_registry.add(got.stack_id, app, expect.placement.assignment);
      routed_ids.push_back(got.stack_id);
      mono_ids.push_back(got.stack_id);
    }
    EXPECT_EQ(router.stitched_snapshot(), mono.snapshot());
  }
  ASSERT_FALSE(routed_ids.empty());

  // Release every other stack from both sides; stay bit-identical.
  for (std::size_t i = 0; i < routed_ids.size(); i += 2) {
    EXPECT_TRUE(router.release_stack(routed_ids[i]));
    EXPECT_TRUE(mono.release_stack(mono_registry, mono_ids[i]));
    EXPECT_EQ(router.stitched_snapshot(), mono.snapshot());
  }
  EXPECT_EQ(router.live_stacks(),
            routed_ids.size() - (routed_ids.size() + 1) / 2);
}

TEST(ShardRouterTest, SingleShardStackStaysInsideOneShard) {
  const dc::DataCenter wan = sim::make_wan(2, 2, 1, 2);  // 8 hosts
  ShardConfig config;
  config.shards = 2;  // one whole site per shard
  ShardRouter router(wan, config);

  const auto app = shared(tiny_app());
  const ShardRouter::Result result = router.place(app, Algorithm::kEg);
  ASSERT_TRUE(result.service.placement.committed);
  EXPECT_FALSE(result.cross_shard);
  const dc::ShardLayout& layout = router.layout();
  for (const dc::HostId host : result.service.placement.assignment) {
    EXPECT_EQ(layout.shard_of_host(host), result.shard);
  }
  EXPECT_EQ(router.live_stacks(), 1u);
}

// Satellite: a topology straddling two shards reserves the shared wide-area
// uplink bandwidth exactly once per edge (through the ledger), the stitched
// state matches a monolithic single-Occupancy run bit for bit, and
// release_stack restores everything exactly.
TEST(ShardRouterTest, CrossShardReservesSharedUplinksExactlyOnce) {
  const dc::DataCenter wan = sim::make_wan(2, 2, 1, 2);  // 2 sites x 2 pods
  ShardConfig config;
  config.shards = 4;  // every pod a shard; both sites split
  ShardRouter router(wan, config);
  const dc::ShardLayout& layout = router.layout();
  ASSERT_EQ(layout.shared_links().size(), 2u);

  const double pipe_mbps = 100.0;
  const auto app = shared(cross_site_pair(pipe_mbps));
  const ShardRouter::Result result = router.place(app, Algorithm::kEg);
  ASSERT_TRUE(result.service.placement.committed)
      << result.service.placement.failure_reason;
  EXPECT_TRUE(result.cross_shard);
  const net::Assignment& assignment = result.service.placement.assignment;
  ASSERT_EQ(layout.global()
                .scope_between(assignment[0], assignment[1]),
            dc::Scope::kCrossSite);

  // Exactly one reservation of the pipe's bandwidth per shared site uplink.
  for (const dc::Site& site : wan.sites()) {
    EXPECT_DOUBLE_EQ(router.ledger().used_mbps(wan.site_link(site.id)),
                     pipe_mbps);
  }

  // Bit-for-bit against a monolithic occupancy performing the same
  // reservation over the SAME global datacenter.
  dc::Occupancy mono(wan);
  net::commit_placement(mono, *app, assignment);
  EXPECT_EQ(router.stitched_snapshot(), mono);

  // Exact release: back to pristine, ledger drained, registry empty.
  EXPECT_TRUE(router.release_stack(result.stack_id));
  EXPECT_EQ(router.stitched_snapshot(), dc::Occupancy(wan));
  for (const dc::LinkId link : layout.shared_links()) {
    EXPECT_DOUBLE_EQ(router.ledger().used_mbps(link), 0.0);
  }
  EXPECT_EQ(router.live_stacks(), 0u);
  EXPECT_FALSE(router.release_stack(result.stack_id));  // double release
}

// decompose_ops splits net::stack_ops by owner: each participant's ops,
// mapped back to global ids, are the subsequence of the global op list its
// shard owns, in order, and the ledger receives exactly the unowned links.
TEST(ShardRouterTest, DecomposeOpsSplitsStackOpsByOwner) {
  const dc::DataCenter wan = sim::make_wan(2, 2, 1, 2);
  const dc::ShardLayout layout(wan, 4);  // both sites split
  ASSERT_FALSE(layout.shared_links().empty());
  util::Rng rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    const topo::AppTopology app = random_app(rng, 5, 0.6, false);
    net::Assignment assignment(app.node_count());
    for (dc::HostId& host : assignment) {
      host = static_cast<dc::HostId>(
          rng.uniform_int(0, static_cast<int>(wan.host_count()) - 1));
    }
    const net::StackOps global = net::stack_ops(wan, app, assignment);
    const DecomposedOps split = decompose_ops(layout, app, assignment);
    const auto owned_links = [&](std::uint32_t owner) {
      std::vector<std::pair<dc::LinkId, double>> links;
      for (const auto& [link, mbps] : global.link_mbps) {
        if (layout.link_owner(link) == owner) links.emplace_back(link, mbps);
      }
      return links;
    };
    std::size_t split_ops = split.ledger.size();
    for (const ShardOps& part : split.shards) {
      net::StackOps mapped;
      for (const auto& [host, load] : part.ops.host_loads) {
        mapped.host_loads.emplace_back(
            layout.to_global_host(part.shard, host), load);
      }
      for (const auto& [link, mbps] : part.ops.link_mbps) {
        mapped.link_mbps.emplace_back(
            layout.to_global_link(part.shard, link), mbps);
      }
      net::StackOps expected;
      for (const auto& [host, load] : global.host_loads) {
        if (layout.shard_of_host(host) == part.shard) {
          expected.host_loads.emplace_back(host, load);
        }
      }
      EXPECT_EQ(mapped.host_loads, expected.host_loads) << "trial " << trial;
      EXPECT_EQ(mapped.link_mbps, owned_links(part.shard)) << "trial " << trial;
      split_ops += part.ops.host_loads.size() + part.ops.link_mbps.size();
    }
    std::vector<std::pair<dc::LinkId, double>> ledger;
    for (const CrossShardLedger::Op& op : split.ledger) {
      ledger.emplace_back(op.link, op.mbps);
    }
    EXPECT_EQ(ledger, owned_links(dc::ShardLayout::kLedgerOwned))
        << "trial " << trial;
    EXPECT_EQ(split_ops, global.host_loads.size() + global.link_mbps.size())
        << "trial " << trial;
  }
}

// A competing commit between planning and the two-phase commit aborts the
// 2PC with nothing touched; the replan sees the new state.  Here the
// competitor consumes the last free host, so the replan is infeasible and
// the request fails cleanly, leaving exactly the competitor's stack.
TEST(ShardRouterTest, TwoPhaseCommitAbortsAndReplansOnConflict) {
  const dc::DataCenter global = two_site_dc(1, 2);  // 4 hosts, 8 cores each
  ShardConfig config;
  config.shards = 2;
  ShardRouter router(global, config);

  topo::TopologyBuilder big;
  for (int i = 0; i < 4; ++i) {
    big.add_vm("vm" + std::to_string(i), {8.0, 8.0, 0.0});
  }
  const auto four_hosts = shared(big.build());

  topo::TopologyBuilder small;
  small.add_vm("blocker", {8.0, 8.0, 0.0});
  const auto blocker = shared(small.build());

  StackId blocker_id = 0;
  std::unique_ptr<dc::Occupancy> after_blocker;
  router.set_pre_commit_hook([&](std::uint32_t attempt) {
    if (attempt != 0) return;
    const ShardRouter::Result r = router.place(blocker, Algorithm::kEg);
    ASSERT_TRUE(r.service.placement.committed);
    blocker_id = r.stack_id;
    after_blocker =
        std::make_unique<dc::Occupancy>(router.stitched_snapshot());
  });

  const ShardRouter::Result result = router.place(four_hosts, Algorithm::kEg);
  EXPECT_FALSE(result.service.placement.committed);
  EXPECT_GE(result.service.conflicts, 1u);
  ASSERT_NE(after_blocker, nullptr);
  // The aborted 2PC left nothing behind: only the blocker's state remains.
  EXPECT_EQ(router.stitched_snapshot(), *after_blocker);
  EXPECT_EQ(router.live_stacks(), 1u);
  EXPECT_TRUE(router.release_stack(blocker_id));
  EXPECT_EQ(router.stitched_snapshot(), dc::Occupancy(global));
}

}  // namespace
}  // namespace ostro::core
