#include "sim/clusters.h"

#include <gtest/gtest.h>

namespace ostro::sim {
namespace {

TEST(TestbedTest, SixteenHostsOneRack) {
  const auto dc = make_testbed();
  EXPECT_EQ(dc.host_count(), 16u);
  EXPECT_EQ(dc.racks().size(), 1u);
  for (const auto& host : dc.hosts()) {
    EXPECT_EQ(host.capacity, (topo::Resources{16.0, 32.0, 1000.0}));
    EXPECT_DOUBLE_EQ(host.uplink_mbps, 3200.0);
  }
  EXPECT_EQ(dc.max_scope(), dc::Scope::kSameRack);
}

TEST(TestbedTest, PreloadBands) {
  const auto dc = make_testbed();
  dc::Occupancy occupancy(dc);
  util::Rng rng(42);
  apply_testbed_preload(occupancy, rng);

  // Hosts 0-3: 8 or 10 available cores, > 20 GB free memory.
  for (dc::HostId h = 0; h < 4; ++h) {
    const auto avail = occupancy.available(h);
    EXPECT_TRUE(avail.vcpus == 8.0 || avail.vcpus == 10.0) << h;
    EXPECT_GT(avail.mem_gb, 20.0);
    EXPECT_TRUE(occupancy.is_active(h));
  }
  // Hosts 4-7: 5-6 cores, 15-19 GB.
  for (dc::HostId h = 4; h < 8; ++h) {
    const auto avail = occupancy.available(h);
    EXPECT_GE(avail.vcpus, 5.0);
    EXPECT_LE(avail.vcpus, 6.0);
    EXPECT_GE(avail.mem_gb, 15.0);
    EXPECT_LE(avail.mem_gb, 19.0);
  }
  // Hosts 8-11: < 5 cores, < 15 GB.
  for (dc::HostId h = 8; h < 12; ++h) {
    const auto avail = occupancy.available(h);
    EXPECT_LT(avail.vcpus, 5.0);
    EXPECT_LT(avail.mem_gb, 15.0);
  }
  // Hosts 12-15: idle.
  for (dc::HostId h = 12; h < 16; ++h) {
    EXPECT_FALSE(occupancy.is_active(h));
    EXPECT_EQ(occupancy.available(h), dc.host(h).capacity);
  }
  EXPECT_EQ(occupancy.active_host_count(), 12u);
}

TEST(TestbedTest, PreloadRejectsWrongDc) {
  const auto dc = make_sim_datacenter(2, 4);
  dc::Occupancy occupancy(dc);
  util::Rng rng(1);
  EXPECT_THROW(apply_testbed_preload(occupancy, rng), std::invalid_argument);
}

TEST(SimDatacenterTest, PaperScaleStructure) {
  const auto dc = make_sim_datacenter();
  EXPECT_EQ(dc.host_count(), 2400u);
  EXPECT_EQ(dc.racks().size(), 150u);
  EXPECT_EQ(dc.pods().size(), 1u);  // ToRs directly under the root
  for (const auto& rack : dc.racks()) {
    EXPECT_EQ(rack.hosts.size(), 16u);
    EXPECT_DOUBLE_EQ(rack.uplink_mbps, 100'000.0);
  }
  EXPECT_DOUBLE_EQ(dc.host(0).uplink_mbps, 10'000.0);
  // Cross-rack paths use exactly 4 links (no pod hop).
  EXPECT_EQ(dc.path_between(0, 16).size(), 4u);
}

TEST(SimDatacenterTest, CustomSizeAndValidation) {
  const auto dc = make_sim_datacenter(3, 5);
  EXPECT_EQ(dc.host_count(), 15u);
  EXPECT_THROW((void)make_sim_datacenter(0, 4), std::invalid_argument);
  EXPECT_THROW((void)make_sim_datacenter(4, -1), std::invalid_argument);
}

TEST(SimDatacenterTest, PreloadQuartiles) {
  const auto dc = make_sim_datacenter(4, 16);
  dc::Occupancy occupancy(dc);
  util::Rng rng(7);
  apply_sim_preload(occupancy, rng);
  for (const auto& rack : dc.racks()) {
    for (std::size_t i = 0; i < rack.hosts.size(); ++i) {
      const dc::HostId h = rack.hosts[i];
      const auto avail = occupancy.available(h);
      const double avail_bw =
          occupancy.link_available_mbps(dc.host_link(h));
      switch ((i * 4) / rack.hosts.size()) {
        case 0:
          EXPECT_GE(avail.vcpus, 9.0);
          EXPECT_LE(avail_bw, 1500.0 + 1e-9);
          break;
        case 1:
          EXPECT_GE(avail.vcpus, 6.0);
          EXPECT_LE(avail.vcpus, 8.0);
          EXPECT_GE(avail_bw, 2000.0 - 1e-9);
          EXPECT_LE(avail_bw, 5000.0 + 1e-9);
          break;
        case 2:
          EXPECT_LE(avail.vcpus, 5.0);
          EXPECT_GE(avail_bw, 6000.0 - 1e-9);
          EXPECT_LE(avail_bw, 8000.0 + 1e-9);
          break;
        default:
          EXPECT_EQ(avail, dc.host(h).capacity);
          EXPECT_DOUBLE_EQ(avail_bw, 10'000.0);
          EXPECT_FALSE(occupancy.is_active(h));
      }
    }
  }
  // 3 quartiles of every rack are busy.
  EXPECT_EQ(occupancy.active_host_count(), 4u * 16u * 3u / 4u);
}

TEST(SimDatacenterTest, PreloadDeterministicPerSeed) {
  const auto dc = make_sim_datacenter(2, 8);
  dc::Occupancy a(dc), b(dc);
  util::Rng rng1(5), rng2(5);
  apply_sim_preload(a, rng1);
  apply_sim_preload(b, rng2);
  EXPECT_TRUE(a == b);
}

}  // namespace
}  // namespace ostro::sim
