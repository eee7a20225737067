#include "core/annealing.h"

#include <gtest/gtest.h>

#include "core/scheduler.h"
#include "core/verify.h"
#include "helpers.h"
#include "util/timer.h"

namespace ostro::core {
namespace {

using ostro::testing::add_host_load;
using ostro::testing::random_app;
using ostro::testing::small_dc;
using ostro::testing::tiny_app;

AnnealingConfig quick() {
  AnnealingConfig config;
  config.deadline_seconds = 0.2;
  return config;
}

TEST(AnnealingTest, FindsValidPlacement) {
  const auto datacenter = small_dc(2, 3);
  const dc::Occupancy occupancy(datacenter);
  const auto app = tiny_app();
  const Placement placement =
      simulated_annealing(occupancy, app, SearchConfig{}, quick());
  ASSERT_TRUE(placement.feasible) << placement.failure_reason;
  EXPECT_TRUE(verify_placement(occupancy, app, placement.assignment).empty());
  EXPECT_GT(placement.stats.paths_generated, 0u);  // moves attempted
}

TEST(AnnealingTest, NeverWorseThanItsEgSeed) {
  util::Rng rng(777);
  for (int trial = 0; trial < 6; ++trial) {
    const auto datacenter = small_dc(2, 3);
    const dc::Occupancy occupancy(datacenter);
    const auto app = random_app(rng, 6);
    const Placement eg = place_topology(occupancy, app, Algorithm::kEg,
                                        SearchConfig{});
    if (!eg.feasible) continue;
    const Placement sa =
        simulated_annealing(occupancy, app, SearchConfig{}, quick());
    ASSERT_TRUE(sa.feasible);
    EXPECT_LE(sa.utility, eg.utility + 1e-9) << trial;
  }
}

TEST(AnnealingTest, RespectsDeadline) {
  const auto datacenter = small_dc(3, 3);
  const dc::Occupancy occupancy(datacenter);
  util::Rng rng(5);
  const auto app = random_app(rng, 8, 0.5);
  AnnealingConfig config = quick();
  config.deadline_seconds = 0.3;
  const util::WallTimer timer;
  (void)simulated_annealing(occupancy, app, SearchConfig{}, config);
  EXPECT_LT(timer.elapsed_seconds(), 1.0);
}

TEST(AnnealingTest, InfeasibleInstanceReported) {
  const auto datacenter = small_dc(1, 1);
  dc::Occupancy occupancy(datacenter);
  add_host_load(occupancy, 0, {7.0, 0.0, 0.0});
  const Placement placement =
      simulated_annealing(occupancy, tiny_app(), SearchConfig{}, quick());
  EXPECT_FALSE(placement.feasible);
  EXPECT_FALSE(placement.failure_reason.empty());
}

TEST(AnnealingTest, HonorsConstraintsUnderZones) {
  topo::TopologyBuilder builder;
  builder.add_vm("a", {1.0, 1.0, 0.0});
  builder.add_vm("b", {1.0, 1.0, 0.0});
  builder.add_vm("c", {1.0, 1.0, 0.0});
  builder.connect("a", "b", 100.0);
  builder.add_zone("z", topo::DiversityLevel::kRack,
                   std::vector<std::string>{"a", "b"});
  const auto app = builder.build();
  const auto datacenter = small_dc(2, 2);
  const dc::Occupancy occupancy(datacenter);
  const Placement placement =
      simulated_annealing(occupancy, app, SearchConfig{}, quick());
  ASSERT_TRUE(placement.feasible);
  EXPECT_TRUE(verify_placement(occupancy, app, placement.assignment).empty());
}

TEST(AnnealingTest, ConfigValidation) {
  AnnealingConfig config;
  config.deadline_seconds = 0.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = AnnealingConfig{};
  config.initial_temperature = -1.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = AnnealingConfig{};
  config.cooling = 1.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = AnnealingConfig{};
  config.moves_per_temperature = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  EXPECT_NO_THROW(AnnealingConfig{}.validate());
}

TEST(AnnealingTest, DeterministicPerSeedModuloClock) {
  // The accept/reject stream is seeded; with a generous deadline relative
  // to the instance size both runs converge to the same best utility.
  const auto datacenter = small_dc(2, 2);
  const dc::Occupancy occupancy(datacenter);
  const auto app = tiny_app();
  AnnealingConfig config = quick();
  config.seed = 99;
  const Placement a =
      simulated_annealing(occupancy, app, SearchConfig{}, config);
  const Placement b =
      simulated_annealing(occupancy, app, SearchConfig{}, config);
  ASSERT_TRUE(a.feasible);
  ASSERT_TRUE(b.feasible);
  EXPECT_NEAR(a.utility, b.utility, 1e-9);
}

}  // namespace
}  // namespace ostro::core
