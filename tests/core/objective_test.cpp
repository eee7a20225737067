#include "core/objective.h"

#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "helpers.h"

namespace ostro::core {
namespace {

using ostro::testing::small_dc;
using ostro::testing::tiny_app;

TEST(ObjectiveTest, NormalizesThetas) {
  const auto dc = small_dc();
  const auto app = tiny_app();
  SearchConfig config;
  config.theta_bw = 3.0;
  config.theta_c = 1.0;
  const Objective objective(app, dc, config);
  EXPECT_DOUBLE_EQ(objective.theta_bw(), 0.75);
  EXPECT_DOUBLE_EQ(objective.theta_c(), 0.25);
}

TEST(ObjectiveTest, WorstCaseNormalizers) {
  const auto dc = small_dc(2, 2);  // max scope kSamePod -> 4 hops
  const auto app = tiny_app();     // total bw 300
  const Objective objective(app, dc, SearchConfig{});
  EXPECT_DOUBLE_EQ(objective.ubw_worst(), 300.0 * 4);
  EXPECT_DOUBLE_EQ(objective.uc_worst(), 3.0);
}

TEST(ObjectiveTest, UtilityInUnitRange) {
  const auto dc = small_dc(2, 2);
  const auto app = tiny_app();
  const Objective objective(app, dc, SearchConfig{});
  EXPECT_DOUBLE_EQ(objective.utility(0.0, 0.0), 0.0);
  const double worst = objective.utility(objective.ubw_worst(),
                                         objective.uc_worst());
  EXPECT_NEAR(worst, 1.0, 1e-12);
  const double mid = objective.utility(600.0, 1.0);
  EXPECT_GT(mid, 0.0);
  EXPECT_LT(mid, 1.0);
}

TEST(ObjectiveTest, UtilityMonotoneInBothTerms) {
  const auto dc = small_dc(2, 2);
  const auto app = tiny_app();
  const Objective objective(app, dc, SearchConfig{});
  EXPECT_LT(objective.utility(100.0, 1.0), objective.utility(200.0, 1.0));
  EXPECT_LT(objective.utility(100.0, 1.0), objective.utility(100.0, 2.0));
}

TEST(ObjectiveTest, EdgeCostByScope) {
  EXPECT_DOUBLE_EQ(Objective::edge_cost(100.0, dc::Scope::kSameHost), 0.0);
  EXPECT_DOUBLE_EQ(Objective::edge_cost(100.0, dc::Scope::kSameRack), 200.0);
  EXPECT_DOUBLE_EQ(Objective::edge_cost(100.0, dc::Scope::kSamePod), 400.0);
  EXPECT_DOUBLE_EQ(Objective::edge_cost(100.0, dc::Scope::kSameSite), 600.0);
  EXPECT_DOUBLE_EQ(Objective::edge_cost(100.0, dc::Scope::kCrossSite), 800.0);
}

TEST(ObjectiveTest, EdgelessTopologyStillDefined) {
  topo::TopologyBuilder builder;
  builder.add_vm("only", {1.0, 1.0, 0.0});
  const auto app = builder.build();
  const auto dc = small_dc();
  const Objective objective(app, dc, SearchConfig{});
  EXPECT_DOUBLE_EQ(objective.utility(0.0, 0.0), 0.0);
  EXPECT_GT(objective.ubw_worst(), 0.0);
}

TEST(ObjectiveTest, PureBandwidthWeights) {
  const auto dc = small_dc(2, 2);
  const auto app = tiny_app();
  SearchConfig config;
  config.theta_bw = 1.0;
  config.theta_c = 0.0;
  const Objective objective(app, dc, config);
  EXPECT_DOUBLE_EQ(objective.utility(0.0, 5.0), 0.0);  // hosts free
}

TEST(SearchConfigTest, ValidationRejectsBadValues) {
  SearchConfig config;
  config.theta_bw = -0.1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = SearchConfig{};
  config.theta_bw = 0.0;
  config.theta_c = 0.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  // Non-finite weights: NaN passes every sign comparison, and +inf or two
  // weights whose sum overflows would normalize to NaN utilities.
  for (const auto& [bw, c] : std::vector<std::pair<double, double>>{
           {std::numeric_limits<double>::quiet_NaN(), 0.4},
           {0.6, std::numeric_limits<double>::quiet_NaN()},
           {std::numeric_limits<double>::infinity(), 0.4},
           {0.6, std::numeric_limits<double>::infinity()},
           {std::numeric_limits<double>::max(),
            std::numeric_limits<double>::max()}}) {
    config = SearchConfig{};
    config.theta_bw = bw;
    config.theta_c = c;
    EXPECT_THROW(config.validate(), std::invalid_argument)
        << "theta_bw=" << bw << " theta_c=" << c;
  }
  config = SearchConfig{};
  config.initial_prune_range = -1.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  // Non-finite DBA* budgets: a NaN deadline never expires, and NaN passes
  // the prune range's sign check.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    config = SearchConfig{};
    config.deadline_seconds = bad;
    EXPECT_THROW(config.validate(), std::invalid_argument)
        << "deadline_seconds=" << bad;
    config = SearchConfig{};
    config.initial_prune_range = bad;
    EXPECT_THROW(config.validate(), std::invalid_argument)
        << "initial_prune_range=" << bad;
  }
  EXPECT_NO_THROW(SearchConfig{}.validate());
}

TEST(AlgorithmTest, ParseAndPrint) {
  EXPECT_EQ(parse_algorithm("eg"), Algorithm::kEg);
  EXPECT_EQ(parse_algorithm("EGC"), Algorithm::kEgC);
  EXPECT_EQ(parse_algorithm("egbw"), Algorithm::kEgBw);
  EXPECT_EQ(parse_algorithm("BA*"), Algorithm::kBaStar);
  EXPECT_EQ(parse_algorithm("dba"), Algorithm::kDbaStar);
  EXPECT_THROW((void)parse_algorithm("nope"), std::invalid_argument);
  EXPECT_STREQ(to_string(Algorithm::kEg), "EG");
  EXPECT_STREQ(to_string(Algorithm::kDbaStar), "DBA*");
}

}  // namespace
}  // namespace ostro::core
