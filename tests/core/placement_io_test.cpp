#include "core/placement_io.h"

#include <gtest/gtest.h>

#include <string>

#include "core/scheduler.h"
#include "helpers.h"

namespace ostro::core {
namespace {

using ostro::testing::add_host_load;
using ostro::testing::small_dc;
using ostro::testing::tiny_app;

struct Fixture {
  dc::DataCenter datacenter = small_dc(2, 2);
  dc::Occupancy occupancy{datacenter};
  topo::AppTopology app = tiny_app();
  SearchConfig config;

  Placement place() {
    return place_topology(occupancy, app, Algorithm::kEg, config, nullptr,
                          nullptr);
  }
};

TEST(PlacementIoTest, RoundTripPreservesAssignmentAndMetrics) {
  Fixture f;
  const Placement original = f.place();
  ASSERT_TRUE(original.feasible);
  const util::Json document =
      placement_to_json(original, f.app, f.datacenter);
  const Placement restored =
      placement_from_json(document, f.app, f.occupancy, f.config);
  EXPECT_EQ(restored.assignment, original.assignment);
  EXPECT_NEAR(restored.utility, original.utility, 1e-12);
  EXPECT_NEAR(restored.reserved_bandwidth_mbps,
              original.reserved_bandwidth_mbps, 1e-9);
  EXPECT_EQ(restored.new_active_hosts, original.new_active_hosts);
  EXPECT_EQ(restored.hosts_used, original.hosts_used);
}

TEST(PlacementIoTest, TextRoundTrip) {
  Fixture f;
  const Placement original = f.place();
  const std::string text =
      placement_to_text(original, f.app, f.datacenter);
  const Placement restored =
      placement_from_text(text, f.app, f.occupancy, f.config);
  EXPECT_EQ(restored.assignment, original.assignment);
}

TEST(PlacementIoTest, DocumentUsesNames) {
  Fixture f;
  const Placement original = f.place();
  const util::Json document =
      placement_to_json(original, f.app, f.datacenter);
  const auto& mapping = document.at("assignment").as_object();
  EXPECT_EQ(mapping.size(), f.app.node_count());
  EXPECT_TRUE(mapping.count("web") == 1);
  EXPECT_TRUE(mapping.count("db") == 1);
  EXPECT_TRUE(mapping.count("data") == 1);
}

TEST(PlacementIoTest, InfeasibleExportRejected) {
  Fixture f;
  Placement infeasible;
  EXPECT_THROW((void)placement_to_json(infeasible, f.app, f.datacenter),
               PlacementIoError);
}

TEST(PlacementIoTest, UnknownNamesRejected) {
  Fixture f;
  EXPECT_THROW((void)placement_from_text(
                   R"({"assignment": {"ghost": "h0-0"}})", f.app,
                   f.occupancy, f.config),
               PlacementIoError);
  EXPECT_THROW((void)placement_from_text(
                   R"({"assignment": {"web": "no-such-host"}})", f.app,
                   f.occupancy, f.config),
               PlacementIoError);
}

TEST(PlacementIoTest, MissingNodesRejected) {
  Fixture f;
  EXPECT_THROW((void)placement_from_text(
                   R"({"assignment": {"web": "h0-0"}})", f.app, f.occupancy,
                   f.config),
               PlacementIoError);
}

TEST(PlacementIoTest, MalformedJsonRejected) {
  Fixture f;
  EXPECT_THROW(
      (void)placement_from_text("{oops", f.app, f.occupancy, f.config),
      PlacementIoError);
  EXPECT_THROW(
      (void)placement_from_text(R"({"no_assignment": 1})", f.app,
                                f.occupancy, f.config),
      PlacementIoError);
}

TEST(PlacementIoTest, MistypedFieldsRejectedByName) {
  // Valid JSON with the wrong types: a non-object assignment, and a host
  // value that is not a string.  Both must surface as PlacementIoError
  // naming the field, not as a JSON syntax error.
  Fixture f;
  const std::string wrong_assignment = R"({"assignment": 5})";
  const std::string wrong_host = R"({"assignment": {"web": 7}})";
  for (const std::string& text : {wrong_assignment, wrong_host}) {
    EXPECT_THROW((void)placement_from_json(util::Json::parse(text), f.app,
                                           f.occupancy, f.config),
                 PlacementIoError)
        << text;
    try {
      (void)placement_from_text(text, f.app, f.occupancy, f.config);
      ADD_FAILURE() << "accepted " << text;
    } catch (const PlacementIoError& e) {
      const std::string message = e.what();
      EXPECT_EQ(message.find("not valid JSON"), std::string::npos) << message;
      EXPECT_NE(message.find("assignment"), std::string::npos) << message;
    }
  }
}

TEST(PlacementIoTest, StaleDocumentFailsRevalidation) {
  // Export against an idle data center, then consume the capacity: the
  // import must refuse to resurrect the placement.
  Fixture f;
  const Placement original = f.place();
  const util::Json document =
      placement_to_json(original, f.app, f.datacenter);
  dc::Occupancy crowded = f.occupancy;
  for (dc::HostId h = 0; h < f.datacenter.host_count(); ++h) {
    add_host_load(crowded, h, {7.0, 14.0, 0.0});
  }
  EXPECT_THROW(
      (void)placement_from_json(document, f.app, crowded, f.config),
      PlacementIoError);
}

TEST(PlacementIoTest, MetricsRecomputedNotTrusted) {
  // Tamper with the document's metric fields: import ignores them.
  Fixture f;
  const Placement original = f.place();
  util::Json document = placement_to_json(original, f.app, f.datacenter);
  document.as_object()["utility"] = 999.0;
  document.as_object()["reserved_bandwidth_mbps"] = -5.0;
  const Placement restored =
      placement_from_json(document, f.app, f.occupancy, f.config);
  EXPECT_NEAR(restored.utility, original.utility, 1e-12);
  EXPECT_GE(restored.reserved_bandwidth_mbps, 0.0);
}

}  // namespace
}  // namespace ostro::core
