// Parameterized property sweeps: every algorithm, across seeds and sizes,
// must produce placements that an independent verifier accepts, and the
// algorithm family must respect its quality ordering (BA* optimal, EG no
// worse than random-feasible, DBA*(no deadline) == BA*).
#include <gtest/gtest.h>

#include <tuple>

#include "core/brute_force.h"
#include "core/scheduler.h"
#include "core/verify.h"
#include "helpers.h"
#include "sim/clusters.h"
#include "sim/workloads.h"

namespace ostro::core {
namespace {

using ostro::testing::add_host_load;
using ostro::testing::random_app;
using ostro::testing::reserve_link;
using ostro::testing::small_dc;

// ---------------------------------------------------------------------------
// Validity: every algorithm, random instances, with and without preload.

struct ValidityParam {
  Algorithm algorithm;
  int vms;
  std::uint64_t seed;
  bool preload;
};

class PlacementValidity : public ::testing::TestWithParam<ValidityParam> {};

TEST_P(PlacementValidity, OutputSatisfiesAllConstraints) {
  const ValidityParam param = GetParam();
  util::Rng rng(param.seed);
  const auto datacenter = small_dc(3, 3);
  dc::Occupancy occupancy(datacenter);
  if (param.preload) {
    // Background tenants on a random half of the hosts.
    for (dc::HostId h = 0; h < datacenter.host_count(); ++h) {
      if (rng.chance(0.5)) {
        add_host_load(occupancy, h,
                      {static_cast<double>(rng.uniform_int(1, 5)),
                       static_cast<double>(rng.uniform_int(1, 8)), 0.0});
      }
    }
  }
  const auto app = random_app(rng, param.vms);
  SearchConfig config;
  config.deadline_seconds = 0.2;
  config.seed = param.seed;
  const Placement placement = place_topology(occupancy, app, param.algorithm,
                                             config);
  if (!placement.feasible) {
    // Infeasibility must come with a reason; nothing else to check.
    EXPECT_FALSE(placement.failure_reason.empty());
    return;
  }
  const auto violations =
      verify_placement(occupancy, app, placement.assignment);
  if (placement.bandwidth_overcommitted) {
    // Only EG_C may overcommit, and then only on links.
    EXPECT_EQ(param.algorithm, Algorithm::kEgC);
    for (const auto& violation : violations) {
      EXPECT_NE(violation.find("link"), std::string::npos) << violation;
    }
  } else {
    EXPECT_TRUE(violations.empty())
        << to_string(param.algorithm) << " seed=" << param.seed << ": "
        << (violations.empty() ? "" : violations.front());
  }
}

std::vector<ValidityParam> validity_params() {
  std::vector<ValidityParam> params;
  for (const auto algorithm :
       {Algorithm::kEg, Algorithm::kEgC, Algorithm::kEgBw, Algorithm::kBaStar,
        Algorithm::kDbaStar}) {
    for (const int vms : {3, 5, 7}) {
      for (const std::uint64_t seed : {11ULL, 22ULL, 33ULL}) {
        params.push_back({algorithm, vms, seed, false});
        params.push_back({algorithm, vms, seed, true});
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, PlacementValidity, ::testing::ValuesIn(validity_params()),
    [](const ::testing::TestParamInfo<ValidityParam>& param_info) {
      return std::string(to_string(param_info.param.algorithm) == std::string("BA*")
                             ? "BA"
                             : to_string(param_info.param.algorithm) ==
                                       std::string("DBA*")
                                 ? "DBA"
                                 : to_string(param_info.param.algorithm)) +
             "_v" + std::to_string(param_info.param.vms) + "_s" +
             std::to_string(param_info.param.seed) +
             (param_info.param.preload ? "_loaded" : "_idle");
    });

// ---------------------------------------------------------------------------
// Optimality: BA* == brute force on exhaustive instances.

class BaStarOptimality
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(BaStarOptimality, MatchesBruteForce) {
  const auto [vms, seed] = GetParam();
  util::Rng rng(seed);
  const auto datacenter = small_dc(2, 2);
  const dc::Occupancy occupancy(datacenter);
  const auto app = random_app(rng, vms);
  SearchConfig config;
  config.symmetry_reduction = (seed % 2) == 0;  // both modes over the sweep
  const Objective objective(app, datacenter, config);
  const BruteForceResult best =
      brute_force_optimal({app, occupancy, objective}, true);
  const Placement placement = place_topology(occupancy, app,
                                             Algorithm::kBaStar, config);
  ASSERT_EQ(placement.feasible, best.feasible);
  if (best.feasible) {
    EXPECT_NEAR(placement.utility, best.utility, 1e-9);
  }
}

/// An uneven fleet: 2-3 racks of 1-3 hosts with 2-8 vCPUs each.  No two
/// racks look alike, so a host is interchangeable only with a sibling in
/// its own rack.
dc::DataCenter uneven_fleet(util::Rng& rng) {
  dc::DataCenterBuilder builder;
  const auto site = builder.add_site("site0", 16000.0);
  const auto pod = builder.add_pod(site, "pod0", 16000.0);
  const auto racks = rng.uniform_int(2, 3);
  for (std::int64_t r = 0; r < racks; ++r) {
    const auto rack =
        builder.add_rack(pod, "rack" + std::to_string(r), 4000.0);
    const auto hosts = rng.uniform_int(1, 3);
    for (std::int64_t h = 0; h < hosts; ++h) {
      const auto vcpus = static_cast<double>(2 * rng.uniform_int(1, 4));
      builder.add_host(rack, "h" + std::to_string(r) + "-" + std::to_string(h),
                       {vcpus, 2.0 * vcpus, 500.0}, 1000.0);
    }
  }
  return builder.build();
}

/// Background load on about half the hosts and reserved bandwidth on some
/// host uplinks, so look-alike hosts differ in what they have left.
void preload(dc::Occupancy& occupancy, util::Rng& rng) {
  const dc::DataCenter& datacenter = occupancy.datacenter();
  for (dc::HostId h = 0; h < datacenter.host_count(); ++h) {
    if (rng.chance(0.5)) {
      const double cap = datacenter.host(h).capacity.vcpus;
      const auto load = static_cast<double>(
          rng.uniform_int(1, static_cast<std::int64_t>(cap) - 1));
      add_host_load(occupancy, h, {load, load, 0.0});
    }
    if (rng.chance(0.3)) {
      reserve_link(occupancy, datacenter.host_link(h),
                   100.0 * static_cast<double>(rng.uniform_int(1, 9)));
    }
  }
}

TEST_P(BaStarOptimality, MatchesBruteForceOnUnevenPreloadedFleet) {
  const auto [vms, seed] = GetParam();
  util::Rng rng(seed);
  const auto datacenter = uneven_fleet(rng);
  dc::Occupancy occupancy(datacenter);
  preload(occupancy, rng);
  const auto app = random_app(rng, vms);
  for (const bool symmetry_reduction : {true, false}) {
    SearchConfig config;
    config.symmetry_reduction = symmetry_reduction;
    const Objective objective(app, datacenter, config);
    const BruteForceResult best =
        brute_force_optimal({app, occupancy, objective}, false);
    const Placement placement = place_topology(
        occupancy, app, Algorithm::kBaStar, config);
    ASSERT_EQ(placement.feasible, best.feasible);
    if (best.feasible) {
      EXPECT_NEAR(placement.utility, best.utility, 1e-9)
          << "symmetry_reduction=" << symmetry_reduction;
    }
  }
}

const auto kBaStarOptimalityName =
    [](const ::testing::TestParamInfo<std::tuple<int, std::uint64_t>>&
           param_info) {
      return "v" + std::to_string(std::get<0>(param_info.param)) + "_s" +
             std::to_string(std::get<1>(param_info.param));
    };

INSTANTIATE_TEST_SUITE_P(
    SmallInstances, BaStarOptimality,
    ::testing::Combine(::testing::Values(3, 4, 5),
                       ::testing::Values(101, 202, 303, 404, 505)),
    kBaStarOptimalityName);

// Instances where merging look-alike hosts of different racks loses the
// optimum (found by sweeping seeds 1-100 at 3-5 VMs).
INSTANTIATE_TEST_SUITE_P(
    UnevenFleetSeeds, BaStarOptimality,
    ::testing::Values(std::make_tuple(4, std::uint64_t{20}),
                      std::make_tuple(4, std::uint64_t{28}),
                      std::make_tuple(4, std::uint64_t{96}),
                      std::make_tuple(5, std::uint64_t{10}),
                      std::make_tuple(5, std::uint64_t{28}),
                      std::make_tuple(5, std::uint64_t{75}),
                      std::make_tuple(5, std::uint64_t{80})),
    kBaStarOptimalityName);

// ---------------------------------------------------------------------------
// Dominance: BA* <= EG <= 1.0; utilities well-formed for all algorithms.

class UtilityOrdering : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UtilityOrdering, BaStarNeverWorseThanGreedy) {
  util::Rng rng(GetParam());
  const auto datacenter = small_dc(2, 3);
  const dc::Occupancy occupancy(datacenter);
  const auto app = random_app(rng, 6);
  const SearchConfig config;
  const Placement eg = place_topology(occupancy, app, Algorithm::kEg, config);
  const Placement ba = place_topology(occupancy, app, Algorithm::kBaStar,
                                      config);
  if (!eg.feasible) return;
  ASSERT_TRUE(ba.feasible);
  EXPECT_LE(ba.utility, eg.utility + 1e-9);
  EXPECT_GE(ba.utility, 0.0);
  EXPECT_LE(eg.utility, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, UtilityOrdering,
                         ::testing::Range<std::uint64_t>(1000, 1012));

// ---------------------------------------------------------------------------
// The paper's workloads at small scale on the paper's testbed.

class WorkloadSweep
    : public ::testing::TestWithParam<std::tuple<Algorithm, bool>> {};

TEST_P(WorkloadSweep, MultitierOnSimDatacenterIsValid) {
  const auto [algorithm, heterogeneous] = GetParam();
  util::Rng rng(99);
  const auto datacenter = sim::make_sim_datacenter(6, 8);  // shrunk
  dc::Occupancy occupancy(datacenter);
  sim::apply_sim_preload(occupancy, rng);
  const auto app = sim::make_multitier(
      25,
      heterogeneous ? sim::RequirementMix::kHeterogeneous
                    : sim::RequirementMix::kHomogeneous,
      rng);
  SearchConfig config;
  config.deadline_seconds = 0.3;
  const Placement placement = place_topology(occupancy, app, algorithm,
                                             config);
  ASSERT_TRUE(placement.feasible) << placement.failure_reason;
  if (!placement.bandwidth_overcommitted) {
    EXPECT_TRUE(
        verify_placement(occupancy, app, placement.assignment).empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, WorkloadSweep,
    ::testing::Combine(::testing::Values(Algorithm::kEg, Algorithm::kEgC,
                                         Algorithm::kEgBw,
                                         Algorithm::kDbaStar),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<Algorithm, bool>>& param_info) {
      std::string name = to_string(std::get<0>(param_info.param));
      for (auto& c : name) {
        if (c == '*') c = 'S';
      }
      return name + (std::get<1>(param_info.param) ? "_het" : "_hom");
    });

}  // namespace
}  // namespace ostro::core
