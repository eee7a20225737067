// Tests for the property extensions of the paper's introduction and future
// work (Section VI): pipe latency budgets, affinity groups (co-location)
// and hardware-tag affinities — across the topology model, the constraint
// engine, the verifier, the search algorithms and the Heat template.
#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "core/candidates.h"
#include "core/scheduler.h"
#include "core/verify.h"
#include "helpers.h"
#include "openstack/heat_template.h"

namespace ostro::core {
namespace {

using ostro::testing::small_dc;
using ostro::testing::two_site_dc;

// ---------------------------------------------------------------------------
// Latency budgets (Section VI).

topo::AppTopology latency_pair(double budget_us) {
  topo::TopologyBuilder builder;
  builder.add_vm("a", {2.0, 2.0, 0.0});
  builder.add_vm("b", {2.0, 2.0, 0.0});
  builder.connect("a", "b", 100.0, budget_us);
  return builder.build();
}

TEST(LatencyTest, DefaultScopeLatenciesAreMonotone) {
  const auto dc = small_dc();
  double previous = -1.0;
  for (int s = 0; s <= static_cast<int>(dc::Scope::kCrossSite); ++s) {
    const double latency = dc.scope_latency_us(static_cast<dc::Scope>(s));
    EXPECT_GE(latency, previous);
    previous = latency;
  }
}

TEST(LatencyTest, MaxScopeForLatency) {
  const auto dc = small_dc();  // defaults: 5/25/80/200/2000 us
  EXPECT_EQ(dc.max_scope_for_latency(5.0), dc::Scope::kSameHost);
  EXPECT_EQ(dc.max_scope_for_latency(30.0), dc::Scope::kSameRack);
  EXPECT_EQ(dc.max_scope_for_latency(100.0), dc::Scope::kSamePod);
  EXPECT_EQ(dc.max_scope_for_latency(1e9), dc::Scope::kCrossSite);
  EXPECT_FALSE(dc.max_scope_for_latency(1.0).has_value());
}

TEST(LatencyTest, CustomScopeLatenciesValidated) {
  dc::DataCenterBuilder builder;
  EXPECT_THROW(builder.set_scope_latencies({5.0, 4.0, 80.0, 200.0, 2000.0}),
               std::invalid_argument);  // decreasing
  EXPECT_THROW(builder.set_scope_latencies({-1.0, 4.0, 80.0, 200.0, 2000.0}),
               std::invalid_argument);
  EXPECT_NO_THROW(builder.set_scope_latencies({1.0, 2.0, 3.0, 4.0, 5.0}));
}

TEST(LatencyTest, TightBudgetForcesCoLocation) {
  const auto datacenter = small_dc(2, 2);
  const dc::Occupancy occupancy(datacenter);
  const auto app = latency_pair(10.0);  // only same-host (5us) fits
  const Objective objective(app, datacenter, SearchConfig{});
  PartialPlacement p(app, occupancy, objective);
  p.place(0, 0);
  EXPECT_TRUE(p.latency_ok(1, 0));
  EXPECT_FALSE(p.latency_ok(1, 1));  // same rack = 25us > 10us
  EXPECT_EQ(get_candidates(p, 1), (std::vector<dc::HostId>{0}));
}

TEST(LatencyTest, RackBudgetAllowsRackNotPod) {
  const auto datacenter = small_dc(2, 2);
  const dc::Occupancy occupancy(datacenter);
  const auto app = latency_pair(30.0);  // host(5) + rack(25) fit
  const Objective objective(app, datacenter, SearchConfig{});
  PartialPlacement p(app, occupancy, objective);
  p.place(0, 0);
  EXPECT_TRUE(p.latency_ok(1, 1));   // same rack
  EXPECT_FALSE(p.latency_ok(1, 2));  // other rack = same pod = 80us
}

TEST(LatencyTest, UnconstrainedPipeIgnoresLatency) {
  const auto datacenter = two_site_dc();
  const dc::Occupancy occupancy(datacenter);
  const auto app = latency_pair(0.0);
  const Objective objective(app, datacenter, SearchConfig{});
  PartialPlacement p(app, occupancy, objective);
  p.place(0, 0);
  for (dc::HostId h = 0; h < datacenter.host_count(); ++h) {
    EXPECT_TRUE(p.latency_ok(1, h));
  }
}

TEST(LatencyTest, ConflictWithDiversityMakesInfeasible) {
  // Latency demands co-location, the zone forbids it: no placement exists.
  topo::TopologyBuilder builder;
  builder.add_vm("a", {1.0, 1.0, 0.0});
  builder.add_vm("b", {1.0, 1.0, 0.0});
  builder.connect("a", "b", 50.0, 10.0);  // same host only
  builder.add_zone("z", topo::DiversityLevel::kHost,
                   std::vector<std::string>{"a", "b"});
  const auto app = builder.build();
  const auto datacenter = small_dc(2, 2);
  const dc::Occupancy occupancy(datacenter);
  const Placement placement = place_topology(
      occupancy, app, Algorithm::kBaStar, SearchConfig{});
  EXPECT_FALSE(placement.feasible);
}

TEST(LatencyTest, VerifierCatchesLatencyViolation) {
  const auto datacenter = small_dc(2, 2);
  const dc::Occupancy occupancy(datacenter);
  const auto app = latency_pair(10.0);
  const auto violations = verify_placement(occupancy, app, {0, 2});
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().find("latency"), std::string::npos);
  EXPECT_TRUE(verify_placement(occupancy, app, {0, 0}).empty());
}

TEST(LatencyTest, AllAlgorithmsHonorBudgets) {
  const auto datacenter = small_dc(2, 3);
  const dc::Occupancy occupancy(datacenter);
  topo::TopologyBuilder builder;
  builder.add_vm("fe", {2.0, 2.0, 0.0});
  builder.add_vm("cache", {2.0, 2.0, 0.0});
  builder.add_vm("be", {2.0, 2.0, 0.0});
  builder.connect("fe", "cache", 100.0, 30.0);   // <= rack
  builder.connect("cache", "be", 100.0, 100.0);  // <= pod
  const auto app = builder.build();
  for (const auto algorithm :
       {Algorithm::kEg, Algorithm::kEgC, Algorithm::kEgBw, Algorithm::kBaStar,
        Algorithm::kDbaStar}) {
    SearchConfig config;
    config.deadline_seconds = 0.2;
    const Placement placement = place_topology(occupancy, app, algorithm,
                                               config);
    ASSERT_TRUE(placement.feasible) << to_string(algorithm);
    EXPECT_TRUE(verify_placement(occupancy, app, placement.assignment).empty())
        << to_string(algorithm);
  }
}

TEST(LatencyTest, NegativeBudgetRejectedByBuilder) {
  topo::TopologyBuilder builder;
  builder.add_vm("a", {1.0, 1.0, 0.0});
  builder.add_vm("b", {1.0, 1.0, 0.0});
  EXPECT_THROW(builder.connect("a", "b", 10.0, -1.0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Affinity groups.

TEST(AffinityTest, BuilderValidation) {
  topo::TopologyBuilder builder;
  builder.add_vm("a", {1.0, 1.0, 0.0});
  builder.add_vm("b", {1.0, 1.0, 0.0});
  EXPECT_THROW(builder.add_affinity("g", topo::DiversityLevel::kHost,
                                    std::vector<std::string>{"a"}),
               std::invalid_argument);
  EXPECT_THROW(builder.add_affinity("", topo::DiversityLevel::kHost,
                                    std::vector<std::string>{"a", "b"}),
               std::invalid_argument);
  EXPECT_THROW(builder.add_affinity("g", topo::DiversityLevel::kHost,
                                    std::vector<std::string>{"a", "a"}),
               std::invalid_argument);
  builder.add_affinity("g", topo::DiversityLevel::kRack,
                       std::vector<std::string>{"a", "b"});
  const auto app = builder.build();
  EXPECT_EQ(app.affinities().size(), 1u);
  EXPECT_EQ(app.affinities_of(0).size(), 1u);
  EXPECT_EQ(app.affinities_of(1).size(), 1u);
}

TEST(AffinityTest, HostAffinityForcesSameHost) {
  topo::TopologyBuilder builder;
  builder.add_vm("a", {2.0, 2.0, 0.0});
  builder.add_vm("b", {2.0, 2.0, 0.0});
  builder.add_affinity("pair", topo::DiversityLevel::kHost,
                       std::vector<std::string>{"a", "b"});
  const auto app = builder.build();
  const auto datacenter = small_dc(2, 2);
  const dc::Occupancy occupancy(datacenter);
  const Objective objective(app, datacenter, SearchConfig{});
  PartialPlacement p(app, occupancy, objective);
  p.place(0, 1);
  EXPECT_TRUE(p.affinity_ok(1, 1));
  EXPECT_FALSE(p.affinity_ok(1, 0));
  EXPECT_EQ(get_candidates(p, 1), (std::vector<dc::HostId>{1}));
}

TEST(AffinityTest, RackAffinityAllowsRackSharing) {
  topo::TopologyBuilder builder;
  builder.add_vm("a", {6.0, 2.0, 0.0});
  builder.add_vm("b", {6.0, 2.0, 0.0});
  builder.add_affinity("rackmates", topo::DiversityLevel::kRack,
                       std::vector<std::string>{"a", "b"});
  const auto app = builder.build();
  const auto datacenter = small_dc(2, 2);
  const dc::Occupancy occupancy(datacenter);
  const Objective objective(app, datacenter, SearchConfig{});
  PartialPlacement p(app, occupancy, objective);
  p.place(0, 0);
  EXPECT_TRUE(p.affinity_ok(1, 0));
  EXPECT_TRUE(p.affinity_ok(1, 1));   // same rack
  EXPECT_FALSE(p.affinity_ok(1, 2));  // other rack
}

TEST(AffinityTest, AffinityPlusDiversityPicksMiddleGround) {
  // Same rack required (affinity) but different hosts (diversity): the only
  // valid placements are distinct hosts within one rack.
  topo::TopologyBuilder builder;
  builder.add_vm("a", {2.0, 2.0, 0.0});
  builder.add_vm("b", {2.0, 2.0, 0.0});
  builder.add_affinity("near", topo::DiversityLevel::kRack,
                       std::vector<std::string>{"a", "b"});
  builder.add_zone("apart", topo::DiversityLevel::kHost,
                   std::vector<std::string>{"a", "b"});
  const auto app = builder.build();
  const auto datacenter = small_dc(2, 2);
  const dc::Occupancy occupancy(datacenter);
  const Placement placement = place_topology(
      occupancy, app, Algorithm::kBaStar, SearchConfig{});
  ASSERT_TRUE(placement.feasible);
  const auto& h = placement.assignment;
  EXPECT_NE(h[0], h[1]);
  EXPECT_EQ(datacenter.host(h[0]).rack, datacenter.host(h[1]).rack);
  EXPECT_TRUE(verify_placement(occupancy, app, placement.assignment).empty());
}

TEST(AffinityTest, VerifierCatchesAffinityViolation) {
  topo::TopologyBuilder builder;
  builder.add_vm("a", {1.0, 1.0, 0.0});
  builder.add_vm("b", {1.0, 1.0, 0.0});
  builder.add_affinity("near", topo::DiversityLevel::kRack,
                       std::vector<std::string>{"a", "b"});
  const auto app = builder.build();
  const auto datacenter = small_dc(2, 2);
  const dc::Occupancy occupancy(datacenter);
  const auto violations = verify_placement(occupancy, app, {0, 2});
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().find("affinity"), std::string::npos);
  EXPECT_TRUE(verify_placement(occupancy, app, {0, 1}).empty());
}

// ---------------------------------------------------------------------------
// Hardware tags.

dc::DataCenter tagged_dc() {
  dc::DataCenterBuilder builder;
  const auto site = builder.add_site("s", 16000.0);
  const auto pod = builder.add_pod(site, "p", 16000.0);
  const auto rack = builder.add_rack(pod, "r", 8000.0);
  builder.add_host(rack, "plain", {8.0, 16.0, 500.0}, 1000.0);
  builder.add_host(rack, "fast", {8.0, 16.0, 500.0}, 1000.0,
                   {"ssd", "sriov"});
  builder.add_host(rack, "gpu-box", {8.0, 16.0, 500.0}, 1000.0,
                   {"gpu", "ssd"});
  return builder.build();
}

TEST(TagsTest, HostTagsSortedAndChecked) {
  const auto dc = tagged_dc();
  EXPECT_TRUE(dc.host(1).has_all_tags({"sriov"}));
  EXPECT_TRUE(dc.host(1).has_all_tags({"sriov", "ssd"}));
  EXPECT_FALSE(dc.host(1).has_all_tags({"gpu"}));
  EXPECT_TRUE(dc.host(0).has_all_tags({}));
  EXPECT_FALSE(dc.host(0).has_all_tags({"ssd"}));
}

TEST(TagsTest, RequireTagsFiltersCandidates) {
  topo::TopologyBuilder builder;
  builder.add_vm("nic-heavy", {2.0, 2.0, 0.0});
  builder.require_tags("nic-heavy", {"sriov"});
  const auto app = builder.build();
  const auto datacenter = tagged_dc();
  const dc::Occupancy occupancy(datacenter);
  const Objective objective(app, datacenter, SearchConfig{});
  const PartialPlacement p(app, occupancy, objective);
  EXPECT_EQ(get_candidates(p, 0), (std::vector<dc::HostId>{1}));
}

TEST(TagsTest, RequireTagsValidation) {
  topo::TopologyBuilder builder;
  builder.add_vm("a", {1.0, 1.0, 0.0});
  EXPECT_THROW(builder.require_tags("nope", {"x"}), std::invalid_argument);
  EXPECT_THROW(builder.require_tags("a", {""}), std::invalid_argument);
  builder.require_tags("a", {"b", "a", "b"});
  const auto app = builder.build();
  EXPECT_EQ(app.node(0).required_tags,
            (std::vector<std::string>{"a", "b"}));  // sorted, deduped
}

TEST(TagsTest, InfeasibleWhenNoHostCarriesTags) {
  topo::TopologyBuilder builder;
  builder.add_vm("exotic", {1.0, 1.0, 0.0});
  builder.require_tags("exotic", {"quantum"});
  const auto app = builder.build();
  const auto datacenter = tagged_dc();
  const dc::Occupancy occupancy(datacenter);
  const Placement placement = place_topology(
      occupancy, app, Algorithm::kEg, SearchConfig{});
  EXPECT_FALSE(placement.feasible);
}

TEST(TagsTest, VerifierCatchesTagViolation) {
  topo::TopologyBuilder builder;
  builder.add_vm("db", {1.0, 1.0, 0.0});
  builder.require_tags("db", {"ssd"});
  const auto app = builder.build();
  const auto datacenter = tagged_dc();
  const dc::Occupancy occupancy(datacenter);
  const auto violations = verify_placement(occupancy, app, {0});
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().find("tags"), std::string::npos);
  EXPECT_TRUE(verify_placement(occupancy, app, {1}).empty());
}

// ---------------------------------------------------------------------------
// Heat template integration for all three extensions.

TEST(ExtensionTemplateTest, ParsesLatencyAffinityAndTags) {
  const os::HeatTemplate parsed = os::HeatTemplate::parse_text(R"({
    "resources": {
      "fe": {"type": "OS::Nova::Server",
             "properties": {"flavor": "m1.small",
                            "required_tags": ["sriov"]}},
      "be": {"type": "OS::Nova::Server", "properties": {"flavor": "m1.small"}},
      "vol": {"type": "OS::Cinder::Volume", "properties": {"size_gb": 10}},
      "p": {"type": "ATT::QoS::Pipe",
            "properties": {"from": "fe", "to": "be",
                           "bandwidth_mbps": 100, "max_latency_us": 30}},
      "ag": {"type": "ATT::Valet::AffinityGroup",
             "properties": {"level": "rack", "members": ["be", "vol"]}}
    }
  })");
  EXPECT_EQ(parsed.topology.node(parsed.topology.node_id("fe")).required_tags,
            (std::vector<std::string>{"sriov"}));
  ASSERT_EQ(parsed.topology.edge_count(), 1u);
  EXPECT_DOUBLE_EQ(parsed.topology.edges()[0].max_latency_us, 30.0);
  ASSERT_EQ(parsed.topology.affinities().size(), 1u);
  EXPECT_EQ(parsed.topology.affinities()[0].level,
            topo::DiversityLevel::kRack);
}

TEST(ExtensionTemplateTest, BadAffinityGroupRejected) {
  EXPECT_THROW((void)os::HeatTemplate::parse_text(R"({
    "resources": {
      "a": {"type": "OS::Nova::Server", "properties": {"flavor": "m1.tiny"}},
      "ag": {"type": "ATT::Valet::AffinityGroup",
             "properties": {"level": "rack", "members": ["a"]}}
    }
  })"),
               os::TemplateError);
}

// ---------------------------------------------------------------------------
// Search quality interplay: latency/affinity constraints still yield
// optimal BA* results vs brute force.

TEST(ExtensionSearchTest, BaStarOptimalWithExtensions) {
  util::Rng rng(606);
  for (int trial = 0; trial < 8; ++trial) {
    const auto datacenter = small_dc(2, 2);
    const dc::Occupancy occupancy(datacenter);
    topo::TopologyBuilder builder;
    for (int i = 0; i < 4; ++i) {
      builder.add_vm("vm" + std::to_string(i),
                     {static_cast<double>(rng.uniform_int(1, 3)), 2.0, 0.0});
    }
    builder.connect("vm0", "vm1", 100.0, 30.0);  // rack budget
    builder.connect("vm2", "vm3", 50.0);
    builder.add_affinity("pair", topo::DiversityLevel::kRack,
                         std::vector<std::string>{"vm1", "vm2"});
    const auto app = builder.build();
    SearchConfig config;
    const Objective objective(app, datacenter, config);
    const BruteForceResult best =
        brute_force_optimal({app, occupancy, objective}, true);
    const Placement placement = place_topology(
        occupancy, app, Algorithm::kBaStar, config);
    ASSERT_EQ(placement.feasible, best.feasible) << trial;
    if (best.feasible) {
      EXPECT_NEAR(placement.utility, best.utility, 1e-9) << trial;
    }
  }
}

}  // namespace
}  // namespace ostro::core
