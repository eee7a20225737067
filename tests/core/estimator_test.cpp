#include "core/estimator.h"

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "helpers.h"

namespace ostro::core {
namespace {

using ostro::testing::random_app;
using ostro::testing::small_dc;
using ostro::testing::tiny_app;

TEST(EstimatorTest, RestBoundExcludesIncidentEdges) {
  topo::TopologyBuilder builder;
  builder.add_vm("a", {1.0, 1.0, 0.0});
  builder.add_vm("b", {1.0, 1.0, 0.0});
  builder.add_vm("c", {8.0, 1.0, 0.0});
  builder.add_vm("d", {8.0, 1.0, 0.0});
  builder.connect("a", "b", 100.0);  // co-locatable: bound 0
  builder.connect("c", "d", 50.0);   // 8+8 cpu can never share: bound 100
  const auto app = builder.build();
  const auto datacenter = small_dc(2, 2);
  const dc::Occupancy occupancy(datacenter);
  const Objective objective(app, datacenter, SearchConfig{});
  const PartialPlacement p(app, occupancy, objective);
  EXPECT_DOUBLE_EQ(p.remaining_bw_bound(), 100.0);
  // rest_bound for node a excludes edge (a,b) but keeps (c,d).
  EXPECT_DOUBLE_EQ(Estimator::rest_bound(p, 0), 100.0);
  // rest_bound for c excludes (c,d).
  EXPECT_DOUBLE_EQ(Estimator::rest_bound(p, 2), 0.0);
}

TEST(EstimatorTest, CandidateEstimateChargesActivation) {
  const auto datacenter = small_dc(2, 2);
  dc::Occupancy occupancy(datacenter);
  occupancy.mark_active(0);
  const auto app = tiny_app();
  const Objective objective(app, datacenter, SearchConfig{});
  const PartialPlacement p(app, occupancy, objective);
  const double rest = Estimator::rest_bound(p, 0);
  const Estimate active = Estimator::candidate_estimate(p, 0, 0, rest);
  const Estimate idle = Estimator::candidate_estimate(p, 0, 1, rest);
  EXPECT_DOUBLE_EQ(active.uc, 0.0);
  EXPECT_DOUBLE_EQ(idle.uc, 1.0);
}

TEST(EstimatorTest, CandidateEstimatePricesPlacedNeighbors) {
  const auto datacenter = small_dc(2, 2);
  const dc::Occupancy occupancy(datacenter);
  const auto app = tiny_app();  // web--db 100, db--data 200
  const Objective objective(app, datacenter, SearchConfig{});
  PartialPlacement p(app, occupancy, objective);
  p.place(0, 0);  // web on h0
  const topo::NodeId db = 1;
  const double rest = Estimator::rest_bound(p, db);
  const Estimate same_host = Estimator::candidate_estimate(p, db, 0, rest);
  const Estimate same_rack = Estimator::candidate_estimate(p, db, 1, rest);
  const Estimate cross_rack = Estimator::candidate_estimate(p, db, 2, rest);
  // Pipe web--db: 0, 200, 400 by distance; the db--data term is equal
  // across candidates (data can join db anywhere).
  EXPECT_LT(same_host.ubw, same_rack.ubw);
  EXPECT_LT(same_rack.ubw, cross_rack.ubw);
  EXPECT_NEAR(same_rack.ubw - same_host.ubw, 200.0, 1e-9);
  EXPECT_NEAR(cross_rack.ubw - same_rack.ubw, 200.0, 1e-9);
}

TEST(EstimatorTest, CandidateEstimateSeesResidualForNeighbors) {
  // Placing a big node on a tight host makes its future neighbor unable to
  // join it there; the estimate must charge that pipe.
  topo::TopologyBuilder builder;
  builder.add_vm("big", {6.0, 1.0, 0.0});
  builder.add_vm("next", {4.0, 1.0, 0.0});
  builder.connect("big", "next", 100.0);
  const auto app = builder.build();
  const auto datacenter = small_dc(2, 2);  // hosts have 8 cores
  const dc::Occupancy occupancy(datacenter);
  const Objective objective(app, datacenter, SearchConfig{});
  const PartialPlacement p(app, occupancy, objective);
  const double rest = Estimator::rest_bound(p, 0);
  const Estimate est = Estimator::candidate_estimate(p, 0, 0, rest);
  // next (4 cores) cannot join big (6) on an 8-core host: >= 2 links.
  EXPECT_GE(est.ubw, 200.0 - 1e-9);
}

TEST(EstimatorTest, AdmissibleBoundNeverExceedsOptimum) {
  // The PartialPlacement bound (used by BA*) must stay below the true
  // optimal completion cost found by exhaustive search.
  util::Rng rng(4242);
  int checked = 0;
  for (int trial = 0; trial < 25; ++trial) {
    const auto datacenter = small_dc(2, 2);
    const dc::Occupancy occupancy(datacenter);
    const auto app = random_app(rng, 4);
    const Objective objective(app, datacenter, SearchConfig{});
    const PartialPlacement p(app, occupancy, objective);
    const BruteForceResult best = brute_force_optimal(p, false);
    if (!best.feasible) continue;
    ++checked;
    EXPECT_LE(p.utility_bound(), best.utility + 1e-9) << "trial " << trial;
  }
  EXPECT_GT(checked, 10);
}

TEST(EstimatorTest, AdmissibleBoundHoldsMidSearch) {
  util::Rng rng(515);
  int checked = 0;
  for (int trial = 0; trial < 25; ++trial) {
    const auto datacenter = small_dc(2, 2);
    const dc::Occupancy occupancy(datacenter);
    const auto app = random_app(rng, 4);
    const Objective objective(app, datacenter, SearchConfig{});
    PartialPlacement p(app, occupancy, objective);
    // Place the first node somewhere feasible, then check the bound of the
    // resulting partial state against its own optimal completion.
    std::vector<dc::HostId> candidates;
    for (dc::HostId h = 0; h < datacenter.host_count(); ++h) {
      if (p.can_place(0, h)) candidates.push_back(h);
    }
    if (candidates.empty()) continue;
    p.place(0, candidates[static_cast<std::size_t>(
                   rng.next_below(candidates.size()))]);
    const BruteForceResult best = brute_force_optimal(p, false);
    if (!best.feasible) continue;
    ++checked;
    EXPECT_LE(p.utility_bound(), best.utility + 1e-9) << "trial " << trial;
  }
  EXPECT_GT(checked, 10);
}

}  // namespace
}  // namespace ostro::core
