#include "openstack/heat_engine.h"

#include <gtest/gtest.h>

#include "helpers.h"

namespace ostro::os {
namespace {

using ostro::testing::add_host_load;
using ostro::testing::reserve_link;
using ostro::testing::small_dc;

constexpr const char* kPlainTemplate = R"({
  "resources": {
    "a": {"type": "OS::Nova::Server", "properties": {"flavor": "m1.small"}},
    "b": {"type": "OS::Nova::Server", "properties": {"flavor": "m1.small"}},
    "v": {"type": "OS::Cinder::Volume", "properties": {"size_gb": 50}},
    "p": {"type": "ATT::QoS::Pipe",
          "properties": {"from": "a", "to": "b", "bandwidth_mbps": 100}}
  }
})";

TEST(HeatEngineTest, DeploysWithoutHints) {
  const auto dc = small_dc(2, 2);
  dc::Occupancy occupancy(dc);
  HeatEngine engine(occupancy);
  const StackDeployment result = engine.deploy_text(kPlainTemplate);
  ASSERT_TRUE(result.success) << result.failure;
  EXPECT_EQ(result.assignment.size(), 3u);
  EXPECT_GT(occupancy.active_host_count(), 0u);
}

TEST(HeatEngineTest, NaiveSchedulerSpreadsAndWastesBandwidth) {
  // The stock weighers spread the two VMs across empty hosts, so the pipe
  // costs bandwidth — the paper's core criticism of per-request scheduling.
  const auto dc = small_dc(2, 2);
  dc::Occupancy occupancy(dc);
  HeatEngine engine(occupancy);
  const StackDeployment result = engine.deploy_text(kPlainTemplate);
  ASSERT_TRUE(result.success);
  EXPECT_NE(result.assignment[0], result.assignment[1]);
  EXPECT_GT(result.reserved_bandwidth_mbps, 0.0);
}

TEST(HeatEngineTest, HonorsForceHostHints) {
  const auto dc = small_dc(2, 2);
  dc::Occupancy occupancy(dc);
  HeatEngine engine(occupancy);
  util::Json doc = util::Json::parse(kPlainTemplate);
  for (const char* key : {"a", "b", "v"}) {
    util::JsonObject hints;
    hints["ATT::Ostro::force_host"] = dc.host(3).name;
    doc.as_object()["resources"].as_object()[key].as_object()
        ["scheduler_hints"] = util::Json(std::move(hints));
  }
  const StackDeployment result = engine.deploy(doc);
  ASSERT_TRUE(result.success) << result.failure;
  for (const auto host : result.assignment) EXPECT_EQ(host, 3u);
  EXPECT_DOUBLE_EQ(result.reserved_bandwidth_mbps, 0.0);
  EXPECT_EQ(result.new_active_hosts, 1);
}

TEST(HeatEngineTest, FailsWhenForcedHostFull) {
  const auto dc = small_dc(1, 2);
  dc::Occupancy occupancy(dc);
  add_host_load(occupancy, 0, {7.0, 0.0, 0.0});
  HeatEngine engine(occupancy);
  util::Json doc = util::Json::parse(kPlainTemplate);
  util::JsonObject hints;
  hints["ATT::Ostro::force_host"] = dc.host(0).name;
  doc.as_object()["resources"].as_object()["a"].as_object()
      ["scheduler_hints"] = util::Json(std::move(hints));
  const dc::Occupancy before = occupancy;
  const StackDeployment result = engine.deploy(doc);
  EXPECT_FALSE(result.success);
  EXPECT_NE(result.failure.find("a"), std::string::npos);
  EXPECT_TRUE(occupancy == before);  // nothing committed
}

TEST(HeatEngineTest, ZoneViolationCaughtAtValidation) {
  // Force both zone members onto one host: the engine's validation gate
  // must refuse the whole stack.
  const auto dc = small_dc(2, 2);
  dc::Occupancy occupancy(dc);
  HeatEngine engine(occupancy);
  util::Json doc = util::Json::parse(R"({
    "resources": {
      "a": {"type": "OS::Nova::Server", "properties": {"flavor": "m1.tiny"}},
      "b": {"type": "OS::Nova::Server", "properties": {"flavor": "m1.tiny"}},
      "z": {"type": "ATT::Valet::DiversityZone",
            "properties": {"level": "host", "members": ["a", "b"]}}
    }
  })");
  for (const char* key : {"a", "b"}) {
    util::JsonObject hints;
    hints["ATT::Ostro::force_host"] = dc.host(0).name;
    doc.as_object()["resources"].as_object()[key].as_object()
        ["scheduler_hints"] = util::Json(std::move(hints));
  }
  const StackDeployment result = engine.deploy(doc);
  EXPECT_FALSE(result.success);
  EXPECT_NE(result.failure.find("zone"), std::string::npos);
  EXPECT_EQ(occupancy.active_host_count(), 0u);
}

TEST(HeatEngineTest, BandwidthShortageFailsCleanly) {
  const auto dc = small_dc(1, 2);
  dc::Occupancy occupancy(dc);
  reserve_link(occupancy, dc.host_link(0), 950.0);
  reserve_link(occupancy, dc.host_link(1), 950.0);
  HeatEngine engine(occupancy);
  // Naive scheduling spreads a and b; the 100 pipe cannot fit anywhere.
  const dc::Occupancy before = occupancy;
  const StackDeployment result = engine.deploy_text(kPlainTemplate);
  EXPECT_FALSE(result.success);
  EXPECT_TRUE(occupancy == before);
}

TEST(HeatEngineTest, MalformedTemplateReported) {
  const auto dc = small_dc();
  dc::Occupancy occupancy(dc);
  HeatEngine engine(occupancy);
  EXPECT_FALSE(engine.deploy_text("{oops").success);
  EXPECT_FALSE(engine.deploy_text(R"({"no_resources": 1})").success);
}

TEST(HeatEngineTest, SequentialStacksAccumulate) {
  const auto dc = small_dc(2, 2);
  dc::Occupancy occupancy(dc);
  HeatEngine engine(occupancy);
  ASSERT_TRUE(engine.deploy_text(kPlainTemplate).success);
  const auto active_after_first = occupancy.active_host_count();
  ASSERT_TRUE(engine.deploy_text(kPlainTemplate).success);
  EXPECT_GE(occupancy.active_host_count(), active_after_first);
}

}  // namespace
}  // namespace ostro::os
