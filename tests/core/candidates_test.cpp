#include "core/candidates.h"

#include <gtest/gtest.h>

#include "helpers.h"

namespace ostro::core {
namespace {

using ostro::testing::add_host_load;
using ostro::testing::reserve_link;
using ostro::testing::small_dc;
using ostro::testing::tiny_app;

TEST(CandidatesTest, AllHostsWhenUnconstrained) {
  const auto datacenter = small_dc(2, 2);
  const dc::Occupancy occupancy(datacenter);
  const auto app = tiny_app();
  const Objective objective(app, datacenter, SearchConfig{});
  const PartialPlacement p(app, occupancy, objective);
  EXPECT_EQ(get_candidates(p, 0).size(), 4u);
}

TEST(CandidatesTest, CapacityFiltersHosts) {
  const auto datacenter = small_dc(2, 2);
  dc::Occupancy occupancy(datacenter);
  add_host_load(occupancy, 0, {5.0, 0.0, 0.0});  // 3 cores left
  add_host_load(occupancy, 1, {7.0, 0.0, 0.0});  // 1 core left
  const auto app = tiny_app();
  const Objective objective(app, datacenter, SearchConfig{});
  const PartialPlacement p(app, occupancy, objective);
  // db needs 4 cores.
  EXPECT_EQ(get_candidates(p, 1), (std::vector<dc::HostId>{2, 3}));
  // web needs 2 cores.
  EXPECT_EQ(get_candidates(p, 0), (std::vector<dc::HostId>{0, 2, 3}));
}

TEST(CandidatesTest, DiversityZoneFilters) {
  topo::TopologyBuilder builder;
  builder.add_vm("a", {1.0, 1.0, 0.0});
  builder.add_vm("b", {1.0, 1.0, 0.0});
  builder.add_zone("z", topo::DiversityLevel::kRack,
                   std::vector<std::string>{"a", "b"});
  const auto app = builder.build();
  const auto datacenter = small_dc(2, 2);
  const dc::Occupancy occupancy(datacenter);
  const Objective objective(app, datacenter, SearchConfig{});
  PartialPlacement p(app, occupancy, objective);
  p.place(0, 0);
  EXPECT_EQ(get_candidates(p, 1), (std::vector<dc::HostId>{2, 3}));
}

TEST(CandidatesTest, BandwidthFilters) {
  const auto datacenter = small_dc(2, 2);
  dc::Occupancy occupancy(datacenter);
  // Host 1's uplink nearly full: the 100 Mbps pipe to web cannot leave.
  reserve_link(occupancy, datacenter.host_link(1), 950.0);
  const auto app = tiny_app();
  const Objective objective(app, datacenter, SearchConfig{});
  PartialPlacement p(app, occupancy, objective);
  p.place(0, 1);  // web on the constrained host
  const auto candidates = get_candidates(p, 1);  // db, pipe 100 to web
  // db can share host 1 (no uplink needed) or... nothing else.
  EXPECT_EQ(candidates, (std::vector<dc::HostId>{1}));
}

TEST(CandidatesTest, EmptyWhenImpossible) {
  const auto datacenter = small_dc(1, 1);
  dc::Occupancy occupancy(datacenter);
  add_host_load(occupancy, 0, {8.0, 0.0, 0.0});
  const auto app = tiny_app();
  const Objective objective(app, datacenter, SearchConfig{});
  const PartialPlacement p(app, occupancy, objective);
  EXPECT_TRUE(get_candidates(p, 0).empty());
}

}  // namespace
}  // namespace ostro::core
