#include "datacenter/dc_io.h"

#include <gtest/gtest.h>

#include "helpers.h"
#include "net/reservation.h"
#include "sim/clusters.h"

namespace ostro::dc {
namespace {

using ostro::testing::add_host_load;
using ostro::testing::small_dc;
using ostro::testing::tiny_app;

TEST(DcIoTest, DataCenterRoundTripPreservesStructure) {
  const DataCenter original = sim::make_wan(2, 2, 2, 3);
  const util::Json document = datacenter_to_json(original);
  const DataCenter restored = datacenter_from_json(document);

  EXPECT_EQ(restored.sites().size(), original.sites().size());
  EXPECT_EQ(restored.pods().size(), original.pods().size());
  EXPECT_EQ(restored.racks().size(), original.racks().size());
  ASSERT_EQ(restored.host_count(), original.host_count());
  for (HostId h = 0; h < original.host_count(); ++h) {
    EXPECT_EQ(restored.host(h).name, original.host(h).name);
    EXPECT_EQ(restored.host(h).capacity, original.host(h).capacity);
    EXPECT_DOUBLE_EQ(restored.host(h).uplink_mbps,
                     original.host(h).uplink_mbps);
    EXPECT_EQ(restored.host(h).rack, original.host(h).rack);
  }
  for (int s = 0; s <= static_cast<int>(Scope::kCrossSite); ++s) {
    EXPECT_DOUBLE_EQ(restored.scope_latency_us(static_cast<Scope>(s)),
                     original.scope_latency_us(static_cast<Scope>(s)));
  }
}

TEST(DcIoTest, TagsSurviveRoundTrip) {
  DataCenterBuilder builder;
  const auto site = builder.add_site("s", 1000.0);
  const auto pod = builder.add_pod(site, "p", 1000.0);
  const auto rack = builder.add_rack(pod, "r", 1000.0);
  builder.add_host(rack, "h", {8.0, 16.0, 100.0}, 500.0, {"ssd", "gpu"});
  const DataCenter original = builder.build();
  const DataCenter restored =
      datacenter_from_json(datacenter_to_json(original));
  EXPECT_EQ(restored.host(0).tags,
            (std::vector<std::string>{"gpu", "ssd"}));  // sorted
}

TEST(DcIoTest, MalformedDataCenterRejected) {
  EXPECT_THROW((void)datacenter_from_text("not json"), DcIoError);
  EXPECT_THROW((void)datacenter_from_text("[]"), DcIoError);
  EXPECT_THROW((void)datacenter_from_text(R"({"sites": 5})"), DcIoError);
  EXPECT_THROW((void)datacenter_from_text(R"({"sites": []})"), DcIoError);
  // host missing capacity fields
  EXPECT_THROW((void)datacenter_from_text(R"({
    "sites": [{"name": "s", "pods": [{"name": "p", "racks": [
      {"name": "r", "hosts": [{"name": "h"}]}]}]}]
  })"),
               DcIoError);
  // bad latency vector length
  EXPECT_THROW((void)datacenter_from_text(R"({
    "scope_latencies_us": [1, 2, 3],
    "sites": [{"name": "s", "pods": [{"name": "p", "racks": [
      {"name": "r", "hosts": [
        {"name": "h", "vcpus": 1, "mem_gb": 1, "disk_gb": 1}]}]}]}]
  })"),
               DcIoError);
}

TEST(DcIoTest, OccupancyRoundTripExact) {
  const DataCenter datacenter = small_dc(2, 2);
  Occupancy original(datacenter);
  net::commit_placement(original, tiny_app(), {0, 2, 2});
  original.mark_active(3);  // active-without-load survives too

  const util::Json document = occupancy_to_json(original);
  const Occupancy restored = occupancy_from_json(datacenter, document);
  EXPECT_TRUE(restored == original);
}

TEST(DcIoTest, EmptyOccupancyRoundTrip) {
  const DataCenter datacenter = small_dc();
  const Occupancy original(datacenter);
  const Occupancy restored =
      occupancy_from_json(datacenter, occupancy_to_json(original));
  EXPECT_TRUE(restored == original);
}

TEST(DcIoTest, OccupancyUnknownNamesRejected) {
  const DataCenter datacenter = small_dc();
  EXPECT_THROW((void)occupancy_from_text(
                   datacenter, R"({"hosts": {"ghost": {"vcpus": 1}}})"),
               DcIoError);
  EXPECT_THROW(
      (void)occupancy_from_text(datacenter,
                                R"({"links": {"host:ghost": 10}})"),
      DcIoError);
}

TEST(DcIoTest, OccupancyOverCapacityRejected) {
  const DataCenter datacenter = small_dc();  // 8-core hosts
  EXPECT_THROW((void)occupancy_from_text(
                   datacenter, R"({"hosts": {"h0-0": {"vcpus": 99}}})"),
               DcIoError);
  EXPECT_THROW((void)occupancy_from_text(
                   datacenter, R"({"links": {"host:h0-0": 99999}})"),
               DcIoError);
}

TEST(DcIoTest, PlacementSurvivesPersistenceCycle) {
  // dc -> json -> dc' and occ -> json -> occ' still accept a placement
  // computed against the originals.
  const DataCenter datacenter = small_dc(2, 2);
  Occupancy occupancy(datacenter);
  add_host_load(occupancy, 0, {4.0, 4.0, 0.0});

  const DataCenter datacenter2 =
      datacenter_from_json(datacenter_to_json(datacenter));
  const Occupancy occupancy2 =
      occupancy_from_json(datacenter2, occupancy_to_json(occupancy));
  EXPECT_EQ(occupancy2.used(0), occupancy.used(0));
  EXPECT_EQ(occupancy2.active_host_count(), occupancy.active_host_count());
}

}  // namespace
}  // namespace ostro::dc
