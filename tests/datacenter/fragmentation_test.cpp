// dc::fragmentation: the unusable-free accounting against a reference VM,
// the stranded-uplink and dispersion measures, and the degenerate cases
// (empty cluster, full cluster, zero-dimension reference).
#include "datacenter/fragmentation.h"

#include <gtest/gtest.h>

#include <cmath>

#include "datacenter/occupancy.h"
#include "helpers.h"

namespace ostro::dc {
namespace {

using ostro::testing::add_host_load;
using ostro::testing::small_dc;

TEST(FragmentationTest, EmptyClusterHasNoCpuFragmentation) {
  const auto datacenter = small_dc(2, 2);  // 8-core/16-GB hosts
  const Occupancy occupancy(datacenter);
  const FragmentationStats stats =
      compute_fragmentation(occupancy, {2.0, 2.0, 0.0});

  EXPECT_DOUBLE_EQ(stats.used_cpu_fraction, 0.0);
  EXPECT_DOUBLE_EQ(stats.active_host_fraction, 0.0);
  EXPECT_DOUBLE_EQ(stats.feasible_host_fraction, 1.0);
  // Every free vcpu is reachable by 2/2 VMs (8 = 4 units of 2)...
  EXPECT_DOUBLE_EQ(stats.unusable_free_cpu_fraction, 0.0);
  // ...but each host strands the memory beyond its cpu-bound unit count:
  // 4 units use 8 of 16 GB.
  EXPECT_DOUBLE_EQ(stats.unusable_free_mem_fraction, 0.5);
  EXPECT_DOUBLE_EQ(stats.frag_index, 0.5);
  EXPECT_DOUBLE_EQ(stats.stranded_uplink_fraction, 0.0);
  EXPECT_EQ(stats.total_placeable_vms, 16u);   // 4 hosts x 4 units
  EXPECT_EQ(stats.largest_placeable_stack_vms, 8u);  // best single rack
  EXPECT_DOUBLE_EQ(stats.rack_free_cpu_cv, 0.0);  // perfectly even
}

TEST(FragmentationTest, SliversCountAsUnusable) {
  const auto datacenter = small_dc(1, 2);
  Occupancy occupancy(datacenter);
  // Host 0: 7 of 8 cores used -> 1 free cpu, below one 2/2 unit.
  add_host_load(occupancy, 0, {7.0, 7.0, 0.0});
  const FragmentationStats stats =
      compute_fragmentation(occupancy, {2.0, 2.0, 0.0});

  // Free cpu: 1 (host 0, unusable) + 8 (host 1, all usable).
  EXPECT_DOUBLE_EQ(stats.total_free_cpu, 9.0);
  EXPECT_DOUBLE_EQ(stats.usable_free_cpu, 8.0);
  EXPECT_DOUBLE_EQ(stats.unusable_free_cpu_fraction, 1.0 / 9.0);
  // Host 0 cannot fit one reference VM, so its free uplink is stranded.
  EXPECT_DOUBLE_EQ(stats.stranded_uplink_fraction, 0.5);
  EXPECT_DOUBLE_EQ(stats.feasible_host_fraction, 1.0);  // both still free
}

TEST(FragmentationTest, FullClusterIsFullyFragmentedByConvention) {
  const auto datacenter = small_dc(1, 1);
  Occupancy occupancy(datacenter);
  add_host_load(occupancy, 0, {8.0, 16.0, 0.0});
  const FragmentationStats stats =
      compute_fragmentation(occupancy, {2.0, 2.0, 0.0});
  // Nothing free at all: unusable fractions are 0 by the 0/0 convention,
  // and nothing is placeable.
  EXPECT_DOUBLE_EQ(stats.total_free_cpu, 0.0);
  EXPECT_DOUBLE_EQ(stats.frag_index, 0.0);
  EXPECT_EQ(stats.total_placeable_vms, 0u);
  EXPECT_EQ(stats.largest_placeable_stack_vms, 0u);
  EXPECT_DOUBLE_EQ(stats.used_cpu_fraction, 1.0);
}

TEST(FragmentationTest, ZeroDimensionsOfReferenceAreIgnored) {
  const auto datacenter = small_dc(1, 1);
  Occupancy occupancy(datacenter);
  add_host_load(occupancy, 0, {6.0, 0.0, 0.0});
  // Reference with mem = 0: units counted on cpu alone (2 free / 1 = 2).
  const FragmentationStats stats =
      compute_fragmentation(occupancy, {1.0, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(stats.usable_free_cpu, 2.0);
  EXPECT_DOUBLE_EQ(stats.unusable_free_cpu_fraction, 0.0);
  EXPECT_EQ(stats.total_placeable_vms, 2u);
}

TEST(FragmentationTest, DispersionRisesWhenFreeCpuConcentrates) {
  const auto datacenter = small_dc(2, 2);
  Occupancy occupancy(datacenter);
  const FragmentationStats even = compute_fragmentation(occupancy);
  // Empty rack 0, full rack 1: same total free as half-full everywhere,
  // maximally uneven across racks.
  add_host_load(occupancy, 2, {8.0, 16.0, 0.0});
  add_host_load(occupancy, 3, {8.0, 16.0, 0.0});
  const FragmentationStats skewed = compute_fragmentation(occupancy);
  EXPECT_GT(skewed.rack_free_cpu_cv, even.rack_free_cpu_cv);
  EXPECT_DOUBLE_EQ(skewed.rack_free_cpu_cv, 1.0);  // one rack 16, one 0
}

// Regression: a host-less rack combined with zero free CPU anywhere drove
// the dispersion mean to 0/0 — every frag.* consumer downstream (the
// lifecycle reports via observe_fragmentation) then saw NaN.  The
// degenerate case must report exactly 0.
TEST(FragmentationTest, HostlessRackWithNoFreeCpuReportsZeroNotNaN) {
  DataCenterBuilder builder;
  const auto site = builder.add_site("site0", 16000.0);
  const auto pod = builder.add_pod(site, "pod0", 16000.0);
  const auto rack0 = builder.add_rack(pod, "rack0", 4000.0);
  builder.add_rack(pod, "rack1-empty", 4000.0);  // host-less rack
  builder.add_host(rack0, "h0", {8.0, 16.0, 500.0}, 1000.0);
  const DataCenter datacenter = builder.build();

  Occupancy occupancy(datacenter);
  add_host_load(occupancy, 0, {8.0, 16.0, 500.0});  // zero free CPU anywhere

  // Both entry points — the raw computation and the metrics-observing path
  // the lifecycle reports go through — must yield finite stats.
  for (const FragmentationStats& stats :
       {compute_fragmentation(occupancy, {2.0, 2.0, 0.0}),
        observe_fragmentation(occupancy, {2.0, 2.0, 0.0})}) {
    EXPECT_DOUBLE_EQ(stats.rack_free_cpu_cv, 0.0);
    EXPECT_FALSE(std::isnan(stats.rack_free_cpu_cv));
    EXPECT_FALSE(std::isnan(stats.frag_index));
    EXPECT_FALSE(std::isnan(stats.stranded_uplink_fraction));
    EXPECT_DOUBLE_EQ(stats.used_cpu_fraction, 1.0);
  }
}

}  // namespace
}  // namespace ostro::dc
