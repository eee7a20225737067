// Parameterized validity sweep on the wide-area data center: every
// algorithm, with randomized geo-replicated workloads combining
// datacenter-level zones, rack affinities and latency budgets.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "core/scheduler.h"
#include "core/verify.h"
#include "sim/clusters.h"
#include "util/string_util.h"

namespace ostro::core {
namespace {

topo::AppTopology random_geo_app(util::Rng& rng, int slices) {
  topo::TopologyBuilder builder;
  std::vector<std::string> replicas;
  for (int s = 0; s < slices; ++s) {
    const std::string fe = util::format("fe%d", s);
    const std::string db = util::format("db%d", s);
    builder.add_vm(fe, {2.0 + static_cast<double>(rng.next_below(3)), 4.0, 0.0});
    builder.add_vm(db, {4.0, 8.0, 0.0});
    // Site-local pipe; half the time with an intra-site latency budget.
    builder.connect(fe, db, 100.0 + 50.0 * static_cast<double>(rng.next_below(3)),
                    rng.chance(0.5) ? 200.0 : 0.0);
    if (rng.chance(0.5)) {
      builder.add_affinity(util::format("slice%d", s),
                           topo::DiversityLevel::kRack,
                           std::vector<std::string>{fe, db});
    }
    replicas.push_back(db);
  }
  for (int s = 0; s + 1 < slices; ++s) {
    builder.connect(replicas[static_cast<std::size_t>(s)],
                    replicas[static_cast<std::size_t>(s + 1)], 50.0);
  }
  if (slices >= 2) {
    builder.add_zone("geo", topo::DiversityLevel::kDatacenter, replicas);
  }
  return builder.build();
}

class WanSweep
    : public ::testing::TestWithParam<std::tuple<Algorithm, std::uint64_t>> {
};

TEST_P(WanSweep, GeoWorkloadsPlaceValidly) {
  const auto [algorithm, seed] = GetParam();
  util::Rng rng(seed);
  const auto datacenter = sim::make_wan(3, 1, 2, 4);
  const dc::Occupancy occupancy(datacenter);
  const auto app = random_geo_app(rng, 3);
  SearchConfig config;
  config.deadline_seconds = 0.3;
  config.seed = seed;
  const Placement placement = place_topology(occupancy, app, algorithm,
                                             config);
  if (!placement.feasible) {
    EXPECT_FALSE(placement.failure_reason.empty());
    return;
  }
  if (placement.bandwidth_overcommitted) {
    EXPECT_EQ(algorithm, Algorithm::kEgC);
    return;
  }
  const auto violations =
      verify_placement(occupancy, app, placement.assignment);
  EXPECT_TRUE(violations.empty())
      << to_string(algorithm) << " seed=" << seed << ": "
      << (violations.empty() ? "" : violations.front());
  // The geo zone held: three distinct sites.
  std::set<std::uint32_t> sites;
  for (int s = 0; s < 3; ++s) {
    sites.insert(
        datacenter.host(placement.assignment[app.node_id(
                            util::format("db%d", s))])
            .datacenter);
  }
  EXPECT_EQ(sites.size(), 3u);
}

INSTANTIATE_TEST_SUITE_P(
    GeoWorkloads, WanSweep,
    ::testing::Combine(::testing::Values(Algorithm::kEg, Algorithm::kEgC,
                                         Algorithm::kEgBw, Algorithm::kBaStar,
                                         Algorithm::kDbaStar),
                       ::testing::Values(7, 21, 63)),
    [](const ::testing::TestParamInfo<std::tuple<Algorithm, std::uint64_t>>&
           param_info) {
      std::string name = to_string(std::get<0>(param_info.param));
      for (auto& c : name) {
        if (c == '*') c = 'S';
      }
      return name + "_s" + std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace ostro::core
