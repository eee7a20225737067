#include "core/brute_force.h"

#include <gtest/gtest.h>

#include "core/verify.h"
#include "helpers.h"

namespace ostro::core {
namespace {

using ostro::testing::add_host_load;
using ostro::testing::random_app;
using ostro::testing::small_dc;
using ostro::testing::tiny_app;

TEST(BruteForceTest, FindsZeroCostCoLocation) {
  const auto datacenter = small_dc(2, 2);
  const dc::Occupancy occupancy(datacenter);
  const auto app = tiny_app();
  SearchConfig config;
  config.theta_bw = 1.0;
  config.theta_c = 0.0;
  const Objective objective(app, datacenter, config);
  const PartialPlacement initial(app, occupancy, objective);
  const BruteForceResult result = brute_force_optimal(initial);
  ASSERT_TRUE(result.feasible);
  EXPECT_DOUBLE_EQ(result.utility, 0.0);
  EXPECT_DOUBLE_EQ(result.state->ubw(), 0.0);
}

TEST(BruteForceTest, RespectsConstraints) {
  topo::TopologyBuilder builder;
  builder.add_vm("a", {1.0, 1.0, 0.0});
  builder.add_vm("b", {1.0, 1.0, 0.0});
  builder.connect("a", "b", 100.0);
  builder.add_zone("z", topo::DiversityLevel::kRack,
                   std::vector<std::string>{"a", "b"});
  const auto app = builder.build();
  const auto datacenter = small_dc(2, 2);
  const dc::Occupancy occupancy(datacenter);
  const Objective objective(app, datacenter, SearchConfig{});
  const BruteForceResult result =
      brute_force_optimal({app, occupancy, objective});
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(
      verify_placement(occupancy, app, result.state->assignment()).empty());
  // Forced one rack apart: the 100 pipe costs exactly 4 links.
  EXPECT_DOUBLE_EQ(result.state->ubw(), 400.0);
}

TEST(BruteForceTest, InfeasibleWhenNothingFits) {
  const auto datacenter = small_dc(1, 1);
  dc::Occupancy occupancy(datacenter);
  add_host_load(occupancy, 0, {7.0, 0.0, 0.0});
  const auto app = tiny_app();
  const Objective objective(app, datacenter, SearchConfig{});
  const BruteForceResult result =
      brute_force_optimal({app, occupancy, objective});
  EXPECT_FALSE(result.feasible);
  EXPECT_FALSE(result.state.has_value());
}

TEST(BruteForceTest, PrunedAndUnprunedAgree) {
  util::Rng rng(808);
  for (int trial = 0; trial < 15; ++trial) {
    const auto datacenter = small_dc(2, 2);
    const dc::Occupancy occupancy(datacenter);
    const auto app = random_app(rng, 4);
    const Objective objective(app, datacenter, SearchConfig{});
    const PartialPlacement initial(app, occupancy, objective);
    const BruteForceResult pruned = brute_force_optimal(initial, true);
    const BruteForceResult full = brute_force_optimal(initial, false);
    ASSERT_EQ(pruned.feasible, full.feasible) << "trial " << trial;
    if (pruned.feasible) {
      EXPECT_NEAR(pruned.utility, full.utility, 1e-9) << "trial " << trial;
      EXPECT_LE(pruned.nodes_visited, full.nodes_visited);
    }
  }
}

TEST(BruteForceTest, HonorsPrePlacedNodes) {
  const auto datacenter = small_dc(2, 2);
  const dc::Occupancy occupancy(datacenter);
  const auto app = tiny_app();
  const Objective objective(app, datacenter, SearchConfig{});
  PartialPlacement initial(app, occupancy, objective);
  initial.place(0, 3);
  const BruteForceResult result = brute_force_optimal(initial);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.state->host_of(0), 3u);
}

}  // namespace
}  // namespace ostro::core
