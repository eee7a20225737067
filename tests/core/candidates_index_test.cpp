// Differential tests for the feasibility-index candidate generation: the
// indexed descent must return exactly the candidate list of the linear
// can_place scan — same hosts, same ascending order, exact vector equality —
// over randomized topologies and occupancy states, after failed/rolled-back
// PlacementTransactions, and for diversity-zone-constrained nodes at every
// hierarchy level.  The full searches must be end-to-end identical with the
// index on and off.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/astar.h"
#include "core/candidates.h"
#include "core/greedy.h"
#include "net/reservation.h"
#include "helpers.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace ostro::core {
namespace {

using ostro::testing::random_app;
using ostro::testing::small_dc;
using ostro::testing::tiny_app;
using ostro::testing::two_site_dc;

/// 2 sites x 2 pods x 2 racks x 2 hosts: every hierarchy level is real.
dc::DataCenter deep_dc() {
  dc::DataCenterBuilder builder;
  for (int s = 0; s < 2; ++s) {
    const auto site = builder.add_site("site" + std::to_string(s), 64000.0);
    for (int p = 0; p < 2; ++p) {
      const auto pod = builder.add_pod(
          site, "s" + std::to_string(s) + "p" + std::to_string(p), 32000.0);
      for (int r = 0; r < 2; ++r) {
        const std::string prefix = "s" + std::to_string(s) + "p" +
                                   std::to_string(p) + "r" + std::to_string(r);
        const auto rack = builder.add_rack(pod, prefix, 16000.0);
        for (int h = 0; h < 2; ++h) {
          builder.add_host(rack, prefix + "h" + std::to_string(h),
                           {8.0, 16.0, 500.0}, 4000.0);
        }
      }
    }
  }
  return builder.build();
}

/// Random background tenants: host loads and uplink reservations, leaving
/// some hosts exhausted and some untouched so the index has real prunes.
void randomize_occupancy(dc::Occupancy& occupancy, util::Rng& rng) {
  const dc::DataCenter& dc = occupancy.datacenter();
  for (dc::HostId h = 0; h < dc.host_count(); ++h) {
    if (rng.chance(0.3)) continue;
    const topo::Resources load = {
        static_cast<double>(rng.uniform_int(0, 8)),
        static_cast<double>(rng.uniform_int(0, 16)),
        static_cast<double>(rng.uniform_int(0, 10)) * 50.0};
    if (load.fits_within(occupancy.available(h))) {
      occupancy.add_host_load(h, load);
    }
    if (rng.chance(0.5)) {
      const double free = occupancy.link_available_mbps(dc.host_link(h));
      const double mbps = free * rng.uniform(0.0, 1.0);
      if (mbps > 0.0) occupancy.reserve_link(dc.host_link(h), mbps);
    }
  }
}

/// Exact list equality for every unplaced node, with and without the
/// bandwidth constraint (the EG / EG_C views).
void expect_candidates_identical(const PartialPlacement& state,
                                 CandidateBuffer& buf, int trial) {
  for (topo::NodeId node = 0; node < state.topology().node_count(); ++node) {
    if (state.is_placed(node)) continue;
    for (const bool check_bandwidth : {true, false}) {
      const std::vector<dc::HostId> reference =
          get_candidates(state, node, check_bandwidth);
      get_candidates_indexed(state, node, buf, check_bandwidth);
      EXPECT_EQ(buf.hosts, reference)
          << "trial " << trial << " node " << node << " check_bandwidth "
          << check_bandwidth;
    }
  }
}

TEST(CandidatesIndexTest, RandomizedStatesMatchLinearScanExactly) {
  util::Rng rng(31337);
  CandidateBuffer buf;
  for (int trial = 0; trial < 40; ++trial) {
    const auto datacenter = trial % 3 == 0   ? small_dc(3, 3)
                            : trial % 3 == 1 ? two_site_dc(2, 3)
                                             : deep_dc();
    dc::Occupancy occupancy(datacenter);
    randomize_occupancy(occupancy, rng);
    const auto app = random_app(rng, 7);
    SearchConfig config;
    const Objective objective(app, datacenter, config);
    PartialPlacement state(app, occupancy, objective);
    // Random placed prefix so pipes to placed neighbors and partially
    // placed zones constrain the remaining nodes.
    const auto placed = static_cast<std::size_t>(rng.uniform_int(0, 5));
    for (std::size_t i = 0; i < placed; ++i) {
      const auto node = static_cast<topo::NodeId>(i);
      const auto host = static_cast<dc::HostId>(rng.uniform_int(
          0, static_cast<int>(datacenter.host_count()) - 1));
      if (!state.is_placed(node) && state.can_place(node, host)) {
        state.place(node, host);
      }
    }
    expect_candidates_identical(state, buf, trial);
  }
}

TEST(CandidatesIndexTest, ZoneConstrainedNodesMatchAtEveryLevel) {
  const auto datacenter = deep_dc();
  CandidateBuffer buf;
  const struct {
    topo::DiversityLevel level;
    std::size_t expected_candidates;  // 16 hosts minus the excluded unit
  } cases[] = {
      {topo::DiversityLevel::kHost, 15},
      {topo::DiversityLevel::kRack, 14},
      {topo::DiversityLevel::kPod, 12},
      {topo::DiversityLevel::kDatacenter, 8},
  };
  for (const auto& c : cases) {
    topo::TopologyBuilder app_builder;
    app_builder.add_vm("a", {1.0, 1.0, 0.0});
    app_builder.add_vm("b", {1.0, 1.0, 0.0});
    app_builder.add_vm("c", {1.0, 1.0, 0.0});
    app_builder.add_zone("dz", c.level, {"a", "b", "c"});
    const auto app = app_builder.build();
    const dc::Occupancy occupancy(datacenter);
    SearchConfig config;
    const Objective objective(app, datacenter, config);
    PartialPlacement state(app, occupancy, objective);
    state.place(0, 0);  // member "a" on host 0 masks its unit for b and c
    const std::vector<dc::HostId> reference = get_candidates(state, 1);
    get_candidates_indexed(state, 1, buf);
    EXPECT_EQ(buf.hosts, reference)
        << "level " << topo::to_string(c.level);
    EXPECT_EQ(buf.hosts.size(), c.expected_candidates)
        << "level " << topo::to_string(c.level);
    for (const dc::HostId host : buf.hosts) {
      EXPECT_TRUE(datacenter.separated_at(host, 0, c.level))
          << "level " << topo::to_string(c.level) << " host " << host;
    }
  }
}

TEST(CandidatesIndexTest, RolledBackTransactionLeavesCandidatesPristine) {
  util::Rng rng(90210);
  for (int trial = 0; trial < 10; ++trial) {
    const auto datacenter = small_dc(2, 2);
    dc::Occupancy occupancy(datacenter);
    randomize_occupancy(occupancy, rng);
    const dc::Occupancy pristine = occupancy;
    const auto app = tiny_app();

    // Overload host 0 until a staged apply fails, then roll back: the base
    // occupancy — index included — must be byte-identical to before, and
    // both candidate paths must agree with a never-touched control state.
    net::Assignment overload(app.node_count(), 0);
    net::PlacementTransaction txn(occupancy);
    bool threw = false;
    for (int round = 0; round < 50 && !threw; ++round) {
      try {
        txn.apply(app, overload);
      } catch (const std::invalid_argument&) {
        threw = true;
      }
    }
    ASSERT_TRUE(threw) << "trial " << trial;
    txn.rollback();
    ASSERT_TRUE(occupancy == pristine) << "trial " << trial;
    ASSERT_TRUE(occupancy.feasibility().selfcheck()) << "trial " << trial;

    SearchConfig config;
    const Objective objective(app, datacenter, config);
    PartialPlacement state(app, occupancy, objective);
    PartialPlacement control(app, pristine, objective);
    CandidateBuffer buf;
    for (topo::NodeId node = 0; node < app.node_count(); ++node) {
      const std::vector<dc::HostId> reference = get_candidates(control, node);
      get_candidates_indexed(state, node, buf);
      EXPECT_EQ(buf.hosts, reference) << "trial " << trial << " node " << node;
    }
    expect_candidates_identical(state, buf, trial);
  }
}

TEST(CandidatesIndexTest, GreedyVariantsIdenticalWithAndWithoutIndex) {
  util::Rng rng(555);
  for (int trial = 0; trial < 15; ++trial) {
    const auto datacenter = trial % 2 == 0 ? small_dc(3, 3) : deep_dc();
    dc::Occupancy occupancy(datacenter);
    randomize_occupancy(occupancy, rng);
    const auto app = random_app(rng, 6);
    SearchConfig config;
    const Objective objective(app, datacenter, config);
    for (const Algorithm variant :
         {Algorithm::kEg, Algorithm::kEgC, Algorithm::kEgBw}) {
      const auto order = variant == Algorithm::kEgBw
                             ? bandwidth_sort_order(app)
                             : eg_sort_order(app);
      const GreedyOutcome indexed = run_greedy(
          variant, {app, occupancy, objective}, order, nullptr,
          /*use_estimate_context=*/true, /*use_candidate_index=*/true);
      const GreedyOutcome linear = run_greedy(
          variant, {app, occupancy, objective}, order, nullptr,
          /*use_estimate_context=*/true, /*use_candidate_index=*/false);
      ASSERT_EQ(indexed.feasible, linear.feasible)
          << "trial " << trial << " variant " << to_string(variant);
      if (!linear.feasible) continue;
      EXPECT_EQ(indexed.state.assignment(), linear.state.assignment())
          << "trial " << trial << " variant " << to_string(variant);
      EXPECT_EQ(indexed.state.utility_committed(),
                linear.state.utility_committed())
          << "trial " << trial << " variant " << to_string(variant);
    }
  }
}

TEST(CandidatesIndexTest, AStarIdenticalWithAndWithoutIndex) {
  util::Rng rng(556);
  for (int trial = 0; trial < 10; ++trial) {
    const auto datacenter = trial % 2 == 0 ? small_dc(2, 2) : two_site_dc(1, 2);
    dc::Occupancy occupancy(datacenter);
    randomize_occupancy(occupancy, rng);
    const auto app = random_app(rng, 5);
    SearchConfig indexed_config;
    indexed_config.use_candidate_index = true;
    SearchConfig linear_config = indexed_config;
    linear_config.use_candidate_index = false;
    const Objective objective(app, datacenter, indexed_config);

    const AStarOutcome indexed = run_astar({app, occupancy, objective},
                                           indexed_config, false, nullptr);
    const AStarOutcome linear = run_astar({app, occupancy, objective},
                                          linear_config, false, nullptr);
    ASSERT_EQ(indexed.feasible, linear.feasible) << "trial " << trial;
    if (!linear.feasible) continue;
    EXPECT_EQ(indexed.state.assignment(), linear.state.assignment())
        << "trial " << trial;
    EXPECT_EQ(indexed.state.utility_committed(),
              linear.state.utility_committed())
        << "trial " << trial;
    EXPECT_EQ(indexed.state.ubw(), linear.state.ubw()) << "trial " << trial;
  }
}

TEST(CandidatesIndexTest, PruneCountersAdvanceOnPackedFleet) {
  util::metrics::set_enabled(true);
  const auto datacenter = small_dc(4, 3);
  dc::Occupancy occupancy(datacenter);
  // Exhaust every rack but the last: those subtrees must be pruned at the
  // rack level without any per-host can_place call.
  for (dc::HostId h = 0; h + 3 < datacenter.host_count(); ++h) {
    occupancy.add_host_load(h, occupancy.available(h));
  }
  const auto app = tiny_app();
  SearchConfig config;
  const Objective objective(app, datacenter, config);
  PartialPlacement state(app, occupancy, objective);

  auto& subtrees = util::metrics::counter("candidates.subtrees_pruned");
  auto& skipped = util::metrics::counter("candidates.hosts_skipped");
  const std::uint64_t subtrees_before = subtrees.value();
  const std::uint64_t skipped_before = skipped.value();
  CandidateBuffer buf;
  get_candidates_indexed(state, 0, buf);
  EXPECT_EQ(buf.hosts, get_candidates(state, 0));
  EXPECT_EQ(buf.hosts.size(), 3u);  // only the untouched rack survives
  EXPECT_EQ(subtrees.value() - subtrees_before, 3u);  // three full racks
  EXPECT_EQ(skipped.value() - skipped_before, 9u);    // their 9 hosts
}

}  // namespace
}  // namespace ostro::core
