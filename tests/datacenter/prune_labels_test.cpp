// Prune-label invariants (DESIGN.md section 12).  The FeasibilityIndex's
// separation pair counters must equal a from-scratch rebuild after any
// sequence of Occupancy mutations (direct, via apply_delta batches, and
// across discarded deltas — the incremental O(depth) refresh is exact),
// the scope tighteners must escalate exactly when no completion can
// realize the entry scope, and the DataCenter's structural floors and tag
// bitmaps must mirror the tree and the per-host tag sets.
#include <gtest/gtest.h>

#include <vector>

#include "datacenter/datacenter.h"
#include "datacenter/feasibility_index.h"
#include "datacenter/occupancy.h"
#include "datacenter/state_delta.h"
#include "helpers.h"
#include "util/rng.h"

namespace ostro::dc {
namespace {

using ostro::testing::add_host_load;
using ostro::testing::remove_host_load;
using ostro::testing::reserve_link;
using ostro::testing::small_dc;
using ostro::testing::two_site_dc;

topo::Resources full_host() { return {8.0, 16.0, 500.0}; }

TEST(PruneLabelsTest, FreshOccupancyCounters) {
  const auto dc = small_dc(2, 3);  // 1 site, 1 pod, 2 racks x 3 hosts
  const Occupancy occupancy(dc);
  const FeasibilityIndex& labels = occupancy.feasibility();
  EXPECT_EQ(labels.racks_with_multi_feasible(), 2u);
  EXPECT_EQ(labels.pods_with_multi_feasible_racks(), 1u);
  EXPECT_EQ(labels.sites_with_multi_feasible_pods(), 0u);  // one pod only
  EXPECT_EQ(dc.multi_host_racks(), 2u);
  EXPECT_EQ(dc.multi_rack_pods(), 1u);
  EXPECT_EQ(dc.multi_pod_sites(), 0u);
  EXPECT_TRUE(labels.selfcheck(occupancy));
}

TEST(PruneLabelsTest, StaticFloorsEscalateImpossibleSeparations) {
  // two_site_dc: each site holds exactly one pod, so a same-site
  // different-pod placement is structurally impossible — the ladder must
  // push kSameSite to kCrossSite regardless of occupancy or positivity.
  const auto dc = two_site_dc(2, 2);
  const Occupancy occupancy(dc);
  const FeasibilityIndex& labels = occupancy.feasibility();
  EXPECT_EQ(dc.multi_pod_sites(), 0u);
  EXPECT_EQ(labels.tighten_separation(Scope::kSameSite, false),
            Scope::kCrossSite);
  EXPECT_EQ(labels.tighten_separation(Scope::kSameSite, true),
            Scope::kCrossSite);
  // Same-rack and same-pod separations are realizable in the fresh DC.
  EXPECT_EQ(labels.tighten_separation(Scope::kSameRack, true),
            Scope::kSameRack);
  EXPECT_EQ(labels.tighten_separation(Scope::kSamePod, true), Scope::kSamePod);
  // Identity on the endpoints of the ladder.
  EXPECT_EQ(labels.tighten_separation(Scope::kSameHost, true),
            Scope::kSameHost);
  EXPECT_EQ(labels.tighten_separation(Scope::kCrossSite, true),
            Scope::kCrossSite);
}

TEST(PruneLabelsTest, DynamicLadderChainsAsCapacityDrains) {
  const auto dc = small_dc(2, 2);  // racks {0,1}, {2,3}
  Occupancy occupancy(dc);
  const FeasibilityIndex& labels = occupancy.feasibility();
  EXPECT_EQ(labels.tighten_separation(Scope::kSameRack, true),
            Scope::kSameRack);

  // Exhaust one host per rack: no rack keeps two feasible hosts, so a
  // positive-positive same-rack pair must price at same-pod hops — but a
  // zero-requirement pair (both_positive=false) must not escalate.
  add_host_load(occupancy, 0, full_host());
  add_host_load(occupancy, 2, full_host());
  EXPECT_EQ(labels.racks_with_multi_feasible(), 0u);
  EXPECT_EQ(labels.tighten_separation(Scope::kSameRack, true), Scope::kSamePod);
  EXPECT_EQ(labels.tighten_separation(Scope::kSameRack, false),
            Scope::kSameRack);

  // Exhaust rack 1 entirely: the pod no longer holds two feasible racks,
  // so the ladder chains same-rack all the way to same-site, and same-site
  // (single-pod site) to cross-site.
  add_host_load(occupancy, 3, full_host());
  EXPECT_EQ(labels.pods_with_multi_feasible_racks(), 0u);
  EXPECT_EQ(labels.tighten_separation(Scope::kSameRack, true),
            Scope::kCrossSite);
  EXPECT_TRUE(labels.selfcheck(occupancy));

  // Releasing restores the fresh answers exactly.
  remove_host_load(occupancy, 0, full_host());
  remove_host_load(occupancy, 2, full_host());
  remove_host_load(occupancy, 3, full_host());
  EXPECT_EQ(labels.tighten_separation(Scope::kSameRack, true),
            Scope::kSameRack);
  EXPECT_TRUE(labels.selfcheck(occupancy));
}

TEST(PruneLabelsTest, TightenToHostClimbsOnFeasibilityAndUplink) {
  const auto dc = small_dc(2, 2);  // rack 0: hosts {0,1}, rack 1: {2,3}
  Occupancy occupancy(dc);
  const FeasibilityIndex& labels = occupancy.feasibility();
  const topo::Resources req{1.0, 1.0, 1.0};

  // Fresh DC: a same-rack neighbor for host 0 exists (host 1).
  EXPECT_EQ(labels.tighten_to_host(Scope::kSameRack, 0, req, true, 10.0,
                                   occupancy),
            Scope::kSameRack);

  // Exhaust host 1: rack 0's only feasible host is host 0 itself, so a
  // positive free node separated from it at host level must leave the rack.
  add_host_load(occupancy, 1, full_host());
  EXPECT_EQ(labels.tighten_to_host(Scope::kSameRack, 0, req, true, 10.0,
                                   occupancy),
            Scope::kSamePod);
  // The pod still offers feasible hosts outside rack 0 (hosts 2, 3).
  EXPECT_EQ(labels.tighten_to_host(Scope::kSamePod, 0, req, true, 10.0,
                                   occupancy),
            Scope::kSamePod);
  // Without strictly positive requirements the feasibility argument does
  // not apply (host 1 could still take a zero-requirement node).
  EXPECT_EQ(labels.tighten_to_host(Scope::kSameRack, 0, req, false, 10.0,
                                   occupancy),
            Scope::kSameRack);
  remove_host_load(occupancy, 1, full_host());

  // A pipe wider than every free host uplink (1000 Mbps in helpers.h) can
  // never terminate below the root: the climb runs to cross-site.
  EXPECT_EQ(labels.tighten_to_host(Scope::kSameRack, 0, req, true, 1500.0,
                                   occupancy),
            Scope::kCrossSite);
}

TEST(PruneLabelsTest, TagBitmapsMirrorHostTags) {
  DataCenterBuilder builder;
  const auto site = builder.add_site("site0", 16000.0);
  const auto pod = builder.add_pod(site, "pod0", 16000.0);
  const auto rack0 = builder.add_rack(pod, "rack0", 4000.0);
  const auto rack1 = builder.add_rack(pod, "rack1", 4000.0);
  builder.add_host(rack0, "h0", {8.0, 16.0, 500.0}, 1000.0, {"gpu", "ssd"});
  builder.add_host(rack0, "h1", {8.0, 16.0, 500.0}, 1000.0, {"ssd"});
  builder.add_host(rack1, "h2", {8.0, 16.0, 500.0}, 1000.0, {"sriov"});
  const auto dc = builder.build();
  ASSERT_TRUE(dc.tags_indexable());

  const std::uint64_t gpu = dc.required_tag_mask({"gpu"});
  const std::uint64_t ssd = dc.required_tag_mask({"ssd"});
  const std::uint64_t sriov = dc.required_tag_mask({"sriov"});
  EXPECT_EQ(dc.required_tag_mask({"gpu", "ssd"}), gpu | ssd);
  EXPECT_EQ(dc.host_tag_mask(0), gpu | ssd);
  EXPECT_EQ(dc.host_tag_mask(1), ssd);
  EXPECT_EQ(dc.host_tag_mask(2), sriov);
  EXPECT_EQ(dc.rack_tag_mask(rack0), gpu | ssd);
  EXPECT_EQ(dc.rack_tag_mask(rack1), sriov);
  EXPECT_EQ(dc.pod_tag_mask(pod), gpu | ssd | sriov);
  EXPECT_EQ(dc.site_tag_mask(site), gpu | ssd | sriov);
  // rack1's mask cannot cover "ssd": the descent would prune it, exactly
  // matching the per-host tag check that rejects h2.
  EXPECT_NE(dc.rack_tag_mask(rack1) & ssd, ssd);
  // A tag no host carries yields the all-ones mask, which nothing covers.
  EXPECT_EQ(dc.required_tag_mask({"fpga"}), ~0ULL);
}

// Property test: labels rebuilt from scratch equal labels maintained
// through a randomized soak of direct mutations, apply_delta commits, and
// discarded (rolled back) deltas.
TEST(PruneLabelsTest, RandomizedOpSoakMatchesFreshRebuild) {
  util::Rng rng(20260807);
  for (int trial = 0; trial < 6; ++trial) {
    const auto dc = trial % 2 == 0 ? small_dc(3, 3) : two_site_dc(2, 3);
    Occupancy occupancy(dc);
    std::vector<topo::Resources> added(dc.host_count(), {0.0, 0.0, 0.0});
    for (int op = 0; op < 100; ++op) {
      const auto h = static_cast<HostId>(
          rng.uniform_int(0, static_cast<int>(dc.host_count()) - 1));
      switch (rng.uniform_int(0, 3)) {
        case 0: {
          // Loads biased toward exhausting whole dimensions so feasibility
          // boundaries (the only transitions the counters react to) are
          // crossed often.
          const topo::Resources load = {
              static_cast<double>(rng.uniform_int(0, 8)),
              static_cast<double>(rng.uniform_int(0, 8)) * 2.0,
              static_cast<double>(rng.uniform_int(0, 10)) * 50.0};
          if (load.fits_within(occupancy.available(h))) {
            add_host_load(occupancy, h, load);
            added[h] = added[h] + load;
          }
          break;
        }
        case 1:
          if (!added[h].is_zero()) {
            remove_host_load(occupancy, h, added[h]);
            added[h] = {0.0, 0.0, 0.0};
          }
          break;
        case 2: {
          // A staged batch, sometimes committed, sometimes discarded: the
          // rollback path must leave the labels untouched.
          OccupancyDelta delta(occupancy);
          const topo::Resources load = {2.0, 4.0, 50.0};
          std::vector<HostId> staged;
          for (int k = 0; k < 3; ++k) {
            const auto g = static_cast<HostId>(
                rng.uniform_int(0, static_cast<int>(dc.host_count()) - 1));
            if (load.fits_within(delta.available(g))) {
              delta.add_host_load(g, load);
              staged.push_back(g);
            }
          }
          if (rng.chance(0.5)) {
            const FeasibilityIndex before = occupancy.feasibility();
            delta.clear();  // rollback: nothing may change
            EXPECT_TRUE(occupancy.feasibility() == before);
          } else if (!delta.empty()) {
            for (const HostId g : staged) added[g] = added[g] + load;
            occupancy.apply_delta(delta);
          }
          break;
        }
        default: {
          const double mbps = static_cast<double>(rng.uniform_int(1, 4)) * 50.0;
          const LinkId link = dc.host_link(h);
          if (occupancy.link_available_mbps(link) >= mbps) {
            reserve_link(occupancy, link, mbps);
          }
          break;
        }
      }
      ASSERT_TRUE(occupancy.feasibility().selfcheck(occupancy))
          << "trial " << trial << " op " << op;
    }
    // Final cross-check: an index rebuilt from scratch over the same
    // occupancy equals the incrementally maintained one, labels included.
    FeasibilityIndex fresh;
    fresh.rebuild(occupancy);
    EXPECT_TRUE(occupancy.feasibility() == fresh) << "trial " << trial;
  }
}

TEST(PruneLabelsTest, ApplyDeltaMatchesDirectMutation) {
  util::Rng rng(4242);
  const auto dc = two_site_dc(2, 2);
  Occupancy staged(dc);
  Occupancy direct(dc);
  OccupancyDelta delta(staged);
  for (int op = 0; op < 24; ++op) {
    const auto h = static_cast<HostId>(
        rng.uniform_int(0, static_cast<int>(dc.host_count()) - 1));
    const topo::Resources load = {4.0, 8.0, 250.0};  // two of these fill a host
    if (load.fits_within(delta.available(h))) {
      delta.add_host_load(h, load);
      add_host_load(direct, h, load);
    }
  }
  staged.apply_delta(delta);
  // Occupancy::operator== includes the index, so this checks the label
  // counters along with the resource state and the aggregates.
  EXPECT_TRUE(staged == direct);
  EXPECT_TRUE(staged.feasibility().selfcheck(staged));
}

}  // namespace
}  // namespace ostro::dc
