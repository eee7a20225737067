// Differential tests for the feasibility-index candidate generation: the
// indexed descent must return exactly the candidate list of the linear
// can_place scan — same hosts, same ascending order, exact vector equality —
// over randomized topologies and occupancy states, after failed commits,
// and for diversity-zone-constrained nodes at every hierarchy level.  The
// full searches must be end-to-end identical with the index on and off.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/astar.h"
#include "core/candidates.h"
#include "core/greedy.h"
#include "datacenter/state_delta.h"
#include "net/reservation.h"
#include "helpers.h"
#include "sim/clusters.h"
#include "sim/workloads.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace ostro::core {
namespace {

using ostro::testing::add_host_load;
using ostro::testing::random_app;
using ostro::testing::release_link;
using ostro::testing::reserve_link;
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

/// small_dc(3, 3)'s shape with hosts added to the racks in turn (rack 0,
/// rack 1, rack 2, rack 0, ...): host ids interleave across racks, so the
/// indexed descent emits them out of order and must sort its list.
dc::DataCenter interleaved_dc() {
  dc::DataCenterBuilder builder;
  const auto site = builder.add_site("site0", 16000.0);
  const auto pod = builder.add_pod(site, "pod0", 16000.0);
  std::vector<std::uint32_t> racks;
  for (int r = 0; r < 3; ++r) {
    racks.push_back(builder.add_rack(pod, "rack" + std::to_string(r), 4000.0));
  }
  for (int h = 0; h < 3; ++h) {
    for (int r = 0; r < 3; ++r) {
      builder.add_host(racks[static_cast<std::size_t>(r)],
                       "h" + std::to_string(r) + "-" + std::to_string(h),
                       {8.0, 16.0, 500.0}, 1000.0);
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
      add_host_load(occupancy, h, load);
    }
    if (rng.chance(0.5)) {
      const double free = occupancy.link_available_mbps(dc.host_link(h));
      const double mbps = free * rng.uniform(0.0, 1.0);
      if (mbps > 0.0) reserve_link(occupancy, dc.host_link(h), mbps);
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
  ASSERT_EQ(interleaved_dc().racks()[0].hosts,
            (std::vector<dc::HostId>{0, 3, 6}));
  for (int trial = 0; trial < 56; ++trial) {
    const auto datacenter = trial % 4 == 0   ? small_dc(3, 3)
                            : trial % 4 == 1 ? two_site_dc(2, 3)
                            : trial % 4 == 2 ? deep_dc()
                                             : interleaved_dc();
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
    dc::Occupancy pristine = occupancy;
    const auto app = tiny_app();

    // Overload host 0 until a commit fails: the base occupancy — index
    // included — must be byte-identical to before the failed commit, and
    // both candidate paths must agree with a never-touched control state.
    net::Assignment overload(app.node_count(), 0);
    bool threw = false;
    for (int round = 0; round < 50 && !threw; ++round) {
      pristine = occupancy;
      try {
        net::commit_placement(occupancy, app, overload);
      } catch (const std::invalid_argument&) {
        threw = true;
      }
    }
    ASSERT_TRUE(threw) << "trial " << trial;
    ASSERT_TRUE(occupancy == pristine) << "trial " << trial;
    ASSERT_TRUE(occupancy.feasibility().selfcheck(occupancy))
        << "trial " << trial;

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

// The index keeps no pointer back to its Occupancy, so a copy mutated
// after its source is destroyed must stay exact (ASan catches a dangling
// read) and prune like a fresh occupancy driven through the same ops.
TEST(CandidatesIndexTest, CopyMutatedAfterSourceDiesMatchesFreshReplay) {
  const auto datacenter = deep_dc();
  const topo::Resources slice{2.0, 4.0, 100.0};
  // Direct ops in both directions, then one staged batch through
  // apply_delta.  Every op depends only on the state it runs against.
  const auto after_copy = [&](dc::Occupancy& occupancy) {
    std::vector<dc::HostId> loaded;
    for (dc::HostId h = 0; h < datacenter.host_count(); h += 2) {
      if (slice.fits_within(occupancy.available(h))) {
        add_host_load(occupancy, h, slice);
        loaded.push_back(h);
      }
    }
    const dc::LinkId released = datacenter.host_link(1);
    release_link(occupancy, released, occupancy.link_used_mbps(released));
    dc::OccupancyDelta delta(occupancy);
    for (dc::HostId h = 1; h < datacenter.host_count(); h += 2) {
      if (slice.fits_within(delta.available(h))) delta.add_host_load(h, slice);
      const dc::LinkId link = datacenter.host_link(h);
      delta.reserve_link(link, delta.link_available_mbps(link) / 2.0);
    }
    for (const dc::HostId h : loaded) delta.remove_host_load(h, slice);
    occupancy.apply_delta(delta);
  };

  util::Rng source_rng(4711);
  auto source = std::make_unique<dc::Occupancy>(datacenter);
  randomize_occupancy(*source, source_rng);
  dc::Occupancy copy = *source;
  after_copy(copy);
  source.reset();

  util::Rng fresh_rng(4711);
  dc::Occupancy fresh(datacenter);
  randomize_occupancy(fresh, fresh_rng);
  after_copy(fresh);

  ASSERT_TRUE(copy.feasibility().selfcheck(copy));
  EXPECT_TRUE(copy == fresh);

  util::Rng app_rng(4712);
  const auto app = random_app(app_rng, 7);
  SearchConfig config;
  const Objective objective(app, datacenter, config);
  const PartialPlacement on_copy(app, copy, objective, true);
  const PartialPlacement on_fresh(app, fresh, objective, true);
  CandidateBuffer copy_buf;
  CandidateBuffer fresh_buf;
  for (topo::NodeId node = 0; node < app.node_count(); ++node) {
    EXPECT_EQ(get_candidates(on_copy, node, copy_buf),
              get_candidates(on_fresh, node, fresh_buf))
        << "node " << node;
  }
  expect_candidates_identical(on_copy, copy_buf, 0);
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

/// One indexed candidate query for `node`: the list must equal the linear
/// scan's, and the prune counters must advance by exactly this call's
/// skipped subtrees and hosts.
void expect_indexed_prunes(const PartialPlacement& state, topo::NodeId node,
                           std::size_t candidates, std::uint64_t subtrees,
                           std::uint64_t hosts) {
  auto& subtrees_pruned = util::metrics::counter("candidates.subtrees_pruned");
  auto& hosts_skipped = util::metrics::counter("candidates.hosts_skipped");
  const std::uint64_t subtrees_before = subtrees_pruned.value();
  const std::uint64_t skipped_before = hosts_skipped.value();
  CandidateBuffer buf;
  get_candidates_indexed(state, node, buf);
  EXPECT_EQ(buf.hosts, get_candidates(state, node));
  EXPECT_EQ(buf.hosts.size(), candidates);
  EXPECT_EQ(subtrees_pruned.value() - subtrees_before, subtrees);
  EXPECT_EQ(hosts_skipped.value() - skipped_before, hosts);
}

TEST(CandidatesIndexTest, PruneCountersAdvanceOnPackedFleet) {
  util::metrics::set_enabled(true);
  {
    const auto datacenter = small_dc(4, 3);
    dc::Occupancy occupancy(datacenter);
    // Exhaust every rack but the last: those subtrees must be pruned at the
    // rack level without any per-host can_place call.
    for (dc::HostId h = 0; h + 3 < datacenter.host_count(); ++h) {
      add_host_load(occupancy, h, occupancy.available(h));
    }
    const auto app = tiny_app();
    SearchConfig config;
    const Objective objective(app, datacenter, config);
    const PartialPlacement state(app, occupancy, objective);
    // Only the untouched rack survives: three full racks, their 9 hosts.
    expect_indexed_prunes(state, 0, 3, 3, 9);
  }
  {
    // Figure-7 scale (150 racks x 16 hosts) with 19 of every 20 racks
    // exhausted, the steady state of a long-running fleet.  Node 0 of a
    // 50-VM stack is placed, and node 1 shares its host-level diversity
    // zone: 142 full racks and their 2,272 hosts are pruned, the zone mask
    // skips node 0's host, and the other 127 hosts of the 8 open racks
    // remain.
    SCOPED_TRACE("2400-host fleet");
    const auto datacenter = sim::make_sim_datacenter(150, 16);
    dc::Occupancy occupancy(datacenter);
    dc::OccupancyDelta fill(occupancy);
    for (const dc::Rack& rack : datacenter.racks()) {
      if (rack.id % 20 == 0) continue;
      for (const dc::HostId h : rack.hosts) {
        fill.add_host_load(h, occupancy.available(h));
      }
    }
    occupancy.apply_delta(fill);
    util::Rng rng(7);
    const auto app = sim::make_multitier(
        50, sim::RequirementMix::kHeterogeneous, rng);
    SearchConfig config;
    const Objective objective(app, datacenter, config);
    PartialPlacement state(app, occupancy, objective);
    state.place(0, get_candidates(state, 0).front());
    expect_indexed_prunes(state, 1, 127, 142, 2273);
  }
}

}  // namespace
}  // namespace ostro::core
