// The CLI's file-based workflow, exercised through the same library calls
// the `ostro` tool makes: fleet JSON -> occupancy JSON -> template ->
// placement -> export -> re-validate -> commit -> snapshot -> next session.
#include <gtest/gtest.h>

#include "core/placement_io.h"
#include "core/scheduler.h"
#include "datacenter/dc_io.h"
#include "datacenter/report.h"
#include "net/reservation.h"
#include "openstack/heat_template.h"

namespace ostro {
namespace {

constexpr const char* kFleet = R"({
  "sites": [
    {"name": "east", "uplink_mbps": 100000,
     "pods": [
       {"name": "pod", "uplink_mbps": 50000,
        "racks": [
          {"name": "ra", "uplink_mbps": 20000,
           "hosts": [
             {"name": "a1", "vcpus": 16, "mem_gb": 64, "disk_gb": 1000,
              "uplink_mbps": 10000},
             {"name": "a2", "vcpus": 16, "mem_gb": 64, "disk_gb": 1000,
              "uplink_mbps": 10000, "tags": ["ssd"]}
           ]},
          {"name": "rb", "uplink_mbps": 20000,
           "hosts": [
             {"name": "b1", "vcpus": 16, "mem_gb": 64, "disk_gb": 1000,
              "uplink_mbps": 10000},
             {"name": "b2", "vcpus": 16, "mem_gb": 64, "disk_gb": 1000,
              "uplink_mbps": 10000}
           ]}
        ]}
     ]}
  ]
})";

constexpr const char* kApp = R"({
  "resources": {
    "fe": {"type": "OS::Nova::Server", "properties": {"flavor": "m1.medium"}},
    "db": {"type": "OS::Nova::Server",
           "properties": {"flavor": "m1.large", "required_tags": ["ssd"]}},
    "vol": {"type": "OS::Cinder::Volume", "properties": {"size_gb": 300}},
    "p0": {"type": "ATT::QoS::Pipe",
           "properties": {"from": "fe", "to": "db", "bandwidth_mbps": 200}},
    "p1": {"type": "ATT::QoS::Pipe",
           "properties": {"from": "db", "to": "vol", "bandwidth_mbps": 400}}
  }
})";

TEST(PersistenceFlowTest, FullSessionRoundTrip) {
  // Session 1: load fleet, place, persist everything.
  const dc::DataCenter datacenter = dc::datacenter_from_text(kFleet);
  const dc::Occupancy fresh(datacenter);
  const os::HeatTemplate parsed = os::HeatTemplate::parse_text(kApp);

  const core::Placement placement = core::place_topology(
      fresh, parsed.topology, core::Algorithm::kBaStar, core::SearchConfig{});
  ASSERT_TRUE(placement.feasible);
  EXPECT_EQ(datacenter
                .host(placement.assignment[parsed.topology.node_id("db")])
                .name,
            "a2");  // the only ssd host

  const std::string placement_text =
      core::placement_to_text(placement, parsed.topology, datacenter);
  dc::Occupancy committed = fresh;
  net::commit_placement(committed, parsed.topology, placement.assignment);
  const std::string fleet_text = dc::datacenter_to_json(datacenter).pretty();
  const std::string occupancy_text =
      dc::occupancy_to_json(committed).pretty();

  // Session 2: everything restored from text.
  const dc::DataCenter datacenter2 = dc::datacenter_from_text(fleet_text);
  const dc::Occupancy occupancy2 =
      dc::occupancy_from_text(datacenter2, occupancy_text);
  EXPECT_EQ(occupancy2.active_host_count(), committed.active_host_count());

  // The persisted placement validates against the *empty* restored fleet...
  const dc::Occupancy fresh2(datacenter2);
  const core::Placement restored = core::placement_from_text(
      placement_text, parsed.topology, fresh2, core::SearchConfig{});
  EXPECT_EQ(restored.assignment, placement.assignment);
  EXPECT_NEAR(restored.reserved_bandwidth_mbps,
              placement.reserved_bandwidth_mbps, 1e-9);

  // ...and a second copy of the app can still be planned on the restored
  // occupied fleet (capacity permitting), seeing the first one's load.
  const core::Placement second = core::place_topology(
      occupancy2, parsed.topology, core::Algorithm::kEg,
      core::SearchConfig{});
  ASSERT_TRUE(second.feasible);
  EXPECT_EQ(second.new_active_hosts, 0);  // reuses the active hosts

  // The utilization report reflects the restored load.
  const auto report = dc::utilization_report(occupancy2);
  EXPECT_GT(report.cpu_used, 0.0);
  // BA* may have co-located the whole stack (all pipes free), so reserved
  // bandwidth is only weakly bounded.
  EXPECT_GE(report.bandwidth_reserved_mbps, 0.0);
}

TEST(PersistenceFlowTest, TamperedOccupancyRejected) {
  const dc::DataCenter datacenter = dc::datacenter_from_text(kFleet);
  EXPECT_THROW((void)dc::occupancy_from_text(
                   datacenter, R"({"hosts": {"a1": {"vcpus": 1e9}}})"),
               dc::DcIoError);
}

}  // namespace
}  // namespace ostro
