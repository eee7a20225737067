#include "datacenter/report.h"

#include <gtest/gtest.h>

#include "helpers.h"
#include "net/reservation.h"

namespace ostro::dc {
namespace {

using ostro::testing::add_host_load;
using ostro::testing::small_dc;
using ostro::testing::tiny_app;

TEST(UtilizationReportTest, IdleDataCenterIsAllZero) {
  const DataCenter dc = small_dc(2, 2);
  const Occupancy occupancy(dc);
  const UtilizationReport report = utilization_report(occupancy);
  EXPECT_EQ(report.hosts, 4u);
  EXPECT_EQ(report.active_hosts, 0u);
  EXPECT_DOUBLE_EQ(report.cpu_used, 0.0);
  EXPECT_DOUBLE_EQ(report.cpu_capacity, 32.0);  // 4 x 8 cores
  EXPECT_DOUBLE_EQ(report.cpu_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(report.bandwidth_reserved_mbps, 0.0);
  ASSERT_EQ(report.racks.size(), 2u);
  EXPECT_EQ(report.racks[0].hosts, 2u);
}

TEST(UtilizationReportTest, TracksCommittedPlacement) {
  const DataCenter dc = small_dc(2, 2);
  Occupancy occupancy(dc);
  const auto app = tiny_app();  // web(2,2) db(4,4) data(100GB)
  net::commit_placement(occupancy, app, {0, 2, 2});  // web rack0, db rack1
  const UtilizationReport report = utilization_report(occupancy);
  EXPECT_EQ(report.active_hosts, 2u);
  EXPECT_DOUBLE_EQ(report.cpu_used, 6.0);
  EXPECT_DOUBLE_EQ(report.mem_used_gb, 6.0);
  EXPECT_DOUBLE_EQ(report.disk_used_gb, 100.0);
  // web--db crosses racks: 100 Mbps on 4 links.
  EXPECT_DOUBLE_EQ(report.bandwidth_reserved_mbps, 400.0);
  EXPECT_DOUBLE_EQ(report.racks[0].cpu_used, 2.0);
  EXPECT_DOUBLE_EQ(report.racks[1].cpu_used, 4.0);
  EXPECT_DOUBLE_EQ(report.racks[0].tor_used_mbps, 100.0);
  EXPECT_DOUBLE_EQ(report.racks[0].host_uplink_used_mbps, 100.0);
}

TEST(UtilizationReportTest, RackTotalsSumToGlobal) {
  const DataCenter dc = small_dc(3, 3);
  Occupancy occupancy(dc);
  util::Rng rng(4);
  for (HostId h = 0; h < dc.host_count(); ++h) {
    if (rng.chance(0.6)) {
      add_host_load(occupancy, h,
                    {static_cast<double>(rng.uniform_int(1, 4)),
                     static_cast<double>(rng.uniform_int(1, 8)), 10.0});
    }
  }
  const UtilizationReport report = utilization_report(occupancy);
  double cpu = 0.0, mem = 0.0, disk = 0.0;
  std::size_t active = 0;
  for (const auto& rack : report.racks) {
    cpu += rack.cpu_used;
    mem += rack.mem_used_gb;
    disk += rack.disk_used_gb;
    active += rack.active_hosts;
  }
  EXPECT_DOUBLE_EQ(cpu, report.cpu_used);
  EXPECT_DOUBLE_EQ(mem, report.mem_used_gb);
  EXPECT_DOUBLE_EQ(disk, report.disk_used_gb);
  EXPECT_EQ(active, report.active_hosts);
}

TEST(UtilizationReportTest, ToStringMentionsEveryRack) {
  const DataCenter dc = small_dc(2, 2);
  const Occupancy occupancy(dc);
  const std::string text = utilization_report(occupancy).to_string();
  EXPECT_NE(text.find("rack0"), std::string::npos);
  EXPECT_NE(text.find("rack1"), std::string::npos);
  EXPECT_NE(text.find("data center"), std::string::npos);
}

}  // namespace
}  // namespace ostro::dc
