#include "core/partial.h"

#include <gtest/gtest.h>

#include "helpers.h"

namespace ostro::core {
namespace {

using ostro::testing::add_host_load;
using ostro::testing::reserve_link;
using ostro::testing::small_dc;
using ostro::testing::tiny_app;

struct Fixture {
  dc::DataCenter datacenter = small_dc(2, 2);
  dc::Occupancy occupancy{datacenter};
  topo::AppTopology app = tiny_app();
  SearchConfig config;
  Objective objective{app, datacenter, config};

  PartialPlacement fresh() { return {app, occupancy, objective}; }
};

TEST(PartialPlacementTest, StartsUnplaced) {
  Fixture f;
  const PartialPlacement p = f.fresh();
  EXPECT_EQ(p.placed_count(), 0u);
  EXPECT_FALSE(p.complete());
  EXPECT_FALSE(p.is_placed(0));
  EXPECT_EQ(p.host_of(0), dc::kInvalidHost);
  EXPECT_DOUBLE_EQ(p.ubw(), 0.0);
  EXPECT_EQ(p.new_active_hosts(), 0);
}

TEST(PartialPlacementTest, PlaceUpdatesProgressAndUsage) {
  Fixture f;
  PartialPlacement p = f.fresh();
  p.place(0, 0);  // web -> h0
  EXPECT_TRUE(p.is_placed(0));
  EXPECT_EQ(p.host_of(0), 0u);
  EXPECT_EQ(p.placed_count(), 1u);
  EXPECT_EQ(p.available(0), (topo::Resources{6.0, 14.0, 500.0}));
  EXPECT_EQ(p.used_hosts(), (std::vector<dc::HostId>{0}));
  EXPECT_EQ(p.new_active_hosts(), 1);
}

TEST(PartialPlacementTest, CoLocationCostsNothing) {
  Fixture f;
  PartialPlacement p = f.fresh();
  p.place(0, 0);
  p.place(1, 0);  // web+db same host
  p.place(2, 0);  // volume too
  EXPECT_TRUE(p.complete());
  EXPECT_DOUBLE_EQ(p.ubw(), 0.0);
  EXPECT_EQ(p.new_active_hosts(), 1);
  EXPECT_DOUBLE_EQ(p.remaining_bw_bound(), 0.0);
}

TEST(PartialPlacementTest, CrossHostEdgeCostAndLinkDelta) {
  Fixture f;
  PartialPlacement p = f.fresh();
  p.place(0, 0);
  p.place(1, 1);  // same rack: 100 * 2
  EXPECT_DOUBLE_EQ(p.ubw(), 200.0);
  EXPECT_DOUBLE_EQ(p.link_available(f.datacenter.host_link(0)), 900.0);
  EXPECT_DOUBLE_EQ(p.link_available(f.datacenter.host_link(1)), 900.0);
  p.place(2, 2);  // volume cross-rack from db: 200 * 4
  EXPECT_DOUBLE_EQ(p.ubw(), 200.0 + 800.0);
  EXPECT_DOUBLE_EQ(p.link_available(f.datacenter.rack_link(0)), 3800.0);
}

TEST(PartialPlacementTest, CapacityCheck) {
  Fixture f;
  add_host_load(f.occupancy, 0, {6.0, 2.0, 0.0});  // 2 cores left
  PartialPlacement p = f.fresh();
  EXPECT_TRUE(p.capacity_ok(0, 0));   // web needs 2
  EXPECT_FALSE(p.capacity_ok(1, 0));  // db needs 4
  p.place(0, 0);
  EXPECT_FALSE(p.capacity_ok(0, 0));  // no cores left now
}

TEST(PartialPlacementTest, ZoneCheck) {
  topo::TopologyBuilder builder;
  builder.add_vm("a", {1.0, 1.0, 0.0});
  builder.add_vm("b", {1.0, 1.0, 0.0});
  builder.add_vm("c", {1.0, 1.0, 0.0});
  builder.add_zone("rack-z", topo::DiversityLevel::kRack,
                   std::vector<std::string>{"a", "b"});
  const auto app = builder.build();
  const auto datacenter = small_dc(2, 2);
  const dc::Occupancy occupancy(datacenter);
  const Objective objective(app, datacenter, SearchConfig{});
  PartialPlacement p(app, occupancy, objective);
  p.place(0, 0);  // a in rack0
  EXPECT_FALSE(p.zones_ok(1, 0));
  EXPECT_FALSE(p.zones_ok(1, 1));  // same rack
  EXPECT_TRUE(p.zones_ok(1, 2));   // rack1
  EXPECT_TRUE(p.zones_ok(2, 0));   // c is unzoned
}

TEST(PartialPlacementTest, BandwidthCheckAggregatesSharedLinks) {
  // Node with two 100-pipes to neighbors on distinct hosts; candidate's
  // uplink has only 150 available -> must fail even though each pipe fits
  // individually.
  topo::TopologyBuilder builder;
  builder.add_vm("hub", {1.0, 1.0, 0.0});
  builder.add_vm("x", {1.0, 1.0, 0.0});
  builder.add_vm("y", {1.0, 1.0, 0.0});
  builder.connect("hub", "x", 100.0);
  builder.connect("hub", "y", 100.0);
  const auto app = builder.build();
  const auto datacenter = small_dc(2, 2);
  dc::Occupancy occupancy(datacenter);
  reserve_link(occupancy, datacenter.host_link(0), 850.0);  // 150 left
  const Objective objective(app, datacenter, SearchConfig{});
  PartialPlacement p(app, occupancy, objective);
  p.place(1, 1);  // x
  p.place(2, 2);  // y
  EXPECT_FALSE(p.bandwidth_ok(0, 0));
  EXPECT_TRUE(p.bandwidth_ok(0, 3));  // fresh host has 1000
}

TEST(PartialPlacementTest, BoundSumMatchesFreshRecomputation) {
  // Property: after any placement sequence, the incremental bound equals
  // the sum of per-edge bounds computed from scratch.
  util::Rng rng(2024);
  for (int trial = 0; trial < 30; ++trial) {
    const auto datacenter = small_dc(2, 3);
    const dc::Occupancy occupancy(datacenter);
    const auto app = ostro::testing::random_app(rng, 5);
    const Objective objective(app, datacenter, SearchConfig{});
    PartialPlacement p(app, occupancy, objective);
    for (topo::NodeId v = 0; v < app.node_count(); ++v) {
      std::vector<dc::HostId> candidates;
      for (dc::HostId h = 0; h < datacenter.host_count(); ++h) {
        if (p.can_place(v, h)) candidates.push_back(h);
      }
      if (candidates.empty()) break;
      p.place(v, candidates[static_cast<std::size_t>(
                     rng.next_below(candidates.size()))]);
      double fresh_sum = 0.0;
      for (std::uint32_t e = 0; e < app.edge_count(); ++e) {
        fresh_sum += p.edge_bound(e);
      }
      ASSERT_NEAR(p.remaining_bw_bound(), fresh_sum, 1e-9)
          << "trial " << trial << " after node " << v;
    }
  }
}

TEST(PartialPlacementTest, BoundNeverExceedsFinalCost) {
  // Admissibility at the state level: bound(partial) <= final ubw delta for
  // the completion we actually take.
  util::Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    const auto datacenter = small_dc(2, 3);
    const dc::Occupancy occupancy(datacenter);
    const auto app = ostro::testing::random_app(rng, 5);
    const Objective objective(app, datacenter, SearchConfig{});
    PartialPlacement p(app, occupancy, objective);
    std::vector<double> bounds_along_the_way;
    std::vector<double> committed_at_step;
    bool complete = true;
    for (topo::NodeId v = 0; v < app.node_count(); ++v) {
      bounds_along_the_way.push_back(p.ubw() + p.remaining_bw_bound());
      committed_at_step.push_back(p.ubw());
      std::vector<dc::HostId> candidates;
      for (dc::HostId h = 0; h < datacenter.host_count(); ++h) {
        if (p.can_place(v, h)) candidates.push_back(h);
      }
      if (candidates.empty()) {
        complete = false;
        break;
      }
      p.place(v, candidates[static_cast<std::size_t>(
                     rng.next_below(candidates.size()))]);
    }
    if (!complete) continue;
    // NOTE: bound <= cost of *this particular* completion must hold since
    // the bound is a lower bound over all completions.
    for (const double bound : bounds_along_the_way) {
      EXPECT_LE(bound, p.ubw() + 1e-9);
    }
  }
}

TEST(PartialPlacementTest, MinScopeToHost) {
  topo::TopologyBuilder builder;
  builder.add_vm("a", {1.0, 1.0, 0.0});
  builder.add_vm("b", {8.0, 1.0, 0.0});  // full-host cpu
  builder.add_vm("c", {1.0, 1.0, 0.0});
  builder.add_zone("z", topo::DiversityLevel::kRack,
                   std::vector<std::string>{"a", "c"});
  const auto app = builder.build();
  const auto datacenter = small_dc(2, 2);
  const dc::Occupancy occupancy(datacenter);
  const Objective objective(app, datacenter, SearchConfig{});
  PartialPlacement p(app, occupancy, objective);
  p.place(0, 0);  // a on h0 (rack0)
  // c must leave rack0 entirely: relative to h0 that is >= SamePod.
  EXPECT_EQ(p.min_scope_to_host(2, 0), dc::Scope::kSamePod);
  EXPECT_EQ(p.min_scope_to_host(2, 1), dc::Scope::kSamePod);
  EXPECT_EQ(p.min_scope_to_host(2, 2), dc::Scope::kSameHost);
  // b (a full-host VM) cannot join a on h0: capacity forces >= one rack out.
  EXPECT_EQ(p.min_scope_to_host(1, 0), dc::Scope::kSameRack);
  EXPECT_EQ(p.min_scope_to_host(1, 1), dc::Scope::kSameHost);
}

TEST(PartialPlacementTest, PlaceErrors) {
  Fixture f;
  PartialPlacement p = f.fresh();
  p.place(0, 0);
  EXPECT_THROW(p.place(0, 1), std::logic_error);   // already placed
  EXPECT_THROW(p.place(9, 0), std::logic_error);   // bad node
  EXPECT_THROW(p.place(1, 99), std::logic_error);  // bad host
}

TEST(PartialPlacementTest, UtilityBoundGrowsMonotonically) {
  Fixture f;
  PartialPlacement p = f.fresh();
  const double u0 = p.utility_bound();
  p.place(0, 0);
  const double u1 = p.utility_bound();
  p.place(1, 2);  // cross-rack
  const double u2 = p.utility_bound();
  EXPECT_LE(u0, u1 + 1e-12);
  EXPECT_LE(u1, u2 + 1e-12);
}

TEST(PartialPlacementTest, ActiveBaseHostDoesNotCountAsNew) {
  Fixture f;
  f.occupancy.mark_active(1);
  PartialPlacement p = f.fresh();
  p.place(0, 1);
  EXPECT_EQ(p.new_active_hosts(), 0);
  p.place(1, 2);
  EXPECT_EQ(p.new_active_hosts(), 1);
  EXPECT_TRUE(p.is_active(1));
  EXPECT_TRUE(p.is_active(2));
  EXPECT_FALSE(p.is_active(3));
}

}  // namespace
}  // namespace ostro::core
