#include "datacenter/fragmentation.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/metrics.h"

namespace ostro::dc {

namespace {

/// Whole reference-VM units that fit into `free`, ignoring the reference's
/// zero dimensions.  0 when any positive dimension lacks one unit.
std::uint32_t units_of(const topo::Resources& free,
                       const topo::Resources& ref) {
  double units = std::numeric_limits<double>::infinity();
  if (ref.vcpus > 0.0) units = std::min(units, std::floor(free.vcpus / ref.vcpus));
  if (ref.mem_gb > 0.0) units = std::min(units, std::floor(free.mem_gb / ref.mem_gb));
  if (ref.disk_gb > 0.0) units = std::min(units, std::floor(free.disk_gb / ref.disk_gb));
  if (!std::isfinite(units) || units <= 0.0) return 0;
  return static_cast<std::uint32_t>(units);
}

double fraction(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

}  // namespace

FragmentationStats compute_fragmentation(const Occupancy& occupancy,
                                         const topo::Resources& reference_vm) {
  topo::require_nonnegative(reference_vm, "compute_fragmentation");
  if (reference_vm.vcpus <= 0.0 && reference_vm.mem_gb <= 0.0 &&
      reference_vm.disk_gb <= 0.0) {
    throw std::invalid_argument(
        "compute_fragmentation: reference VM has no positive dimension");
  }
  const DataCenter& dc = occupancy.datacenter();
  FragmentationStats stats;

  double capacity_cpu = 0.0;
  double capacity_mem = 0.0;
  double free_uplink_total = 0.0;
  double free_uplink_stranded = 0.0;
  std::uint64_t total_units = 0;
  for (HostId h = 0; h < dc.host_count(); ++h) {
    const topo::Resources free = occupancy.available(h);
    capacity_cpu += dc.host(h).capacity.vcpus;
    capacity_mem += dc.host(h).capacity.mem_gb;
    stats.total_free_cpu += free.vcpus;
    stats.total_free_mem += free.mem_gb;
    const std::uint32_t units = units_of(free, reference_vm);
    total_units += units;
    stats.usable_free_cpu += units * reference_vm.vcpus;
    stats.usable_free_mem += units * reference_vm.mem_gb;
    const double uplink_free = occupancy.link_available_mbps(dc.host_link(h));
    free_uplink_total += uplink_free;
    if (units == 0) free_uplink_stranded += uplink_free;
  }

  stats.used_cpu_fraction =
      fraction(capacity_cpu - stats.total_free_cpu, capacity_cpu);
  stats.used_mem_fraction =
      fraction(capacity_mem - stats.total_free_mem, capacity_mem);
  stats.active_host_fraction =
      fraction(static_cast<double>(occupancy.active_host_count()),
               static_cast<double>(dc.host_count()));
  stats.feasible_host_fraction = fraction(
      static_cast<double>(occupancy.feasibility().root().feasible_hosts),
      static_cast<double>(dc.host_count()));
  stats.unusable_free_cpu_fraction = fraction(
      stats.total_free_cpu - stats.usable_free_cpu, stats.total_free_cpu);
  stats.unusable_free_mem_fraction = fraction(
      stats.total_free_mem - stats.usable_free_mem, stats.total_free_mem);
  stats.frag_index = std::max(stats.unusable_free_cpu_fraction,
                              stats.unusable_free_mem_fraction);
  stats.stranded_uplink_fraction =
      fraction(free_uplink_stranded, free_uplink_total);
  stats.total_placeable_vms = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(total_units, UINT32_MAX));

  // Per-rack pass: dispersion of free CPU and the best single-rack stack.
  double rack_sum = 0.0;
  double rack_sum_sq = 0.0;
  for (const Rack& rack : dc.racks()) {
    double rack_free_cpu = 0.0;
    std::uint64_t rack_units = 0;
    for (const HostId h : rack.hosts) {
      const topo::Resources free = occupancy.available(h);
      rack_free_cpu += free.vcpus;
      rack_units += units_of(free, reference_vm);
    }
    rack_sum += rack_free_cpu;
    rack_sum_sq += rack_free_cpu * rack_free_cpu;
    stats.largest_placeable_stack_vms =
        std::max(stats.largest_placeable_stack_vms,
                 static_cast<std::uint32_t>(
                     std::min<std::uint64_t>(rack_units, UINT32_MAX)));
  }
  // Dispersion (coefficient of variation) of per-rack free CPU.  The
  // degenerate cases — no racks at all, host-less racks only, or zero free
  // CPU everywhere — must report 0, never the NaN a 0/0 mean would produce
  // downstream in the frag.* summaries.
  const double rack_count = static_cast<double>(dc.racks().size());
  if (rack_count <= 0.0 || rack_sum <= 0.0) {
    stats.rack_free_cpu_cv = 0.0;
  } else {
    const double mean = rack_sum / rack_count;
    const double variance =
        std::max(0.0, rack_sum_sq / rack_count - mean * mean);
    stats.rack_free_cpu_cv = std::sqrt(variance) / mean;
  }
  return stats;
}

FragmentationStats observe_fragmentation(const Occupancy& occupancy,
                                         const topo::Resources& reference_vm) {
  static util::metrics::Summary& m_index =
      util::metrics::summary("frag.index");
  static util::metrics::Summary& m_cpu =
      util::metrics::summary("frag.unusable_free_cpu_fraction");
  static util::metrics::Summary& m_mem =
      util::metrics::summary("frag.unusable_free_mem_fraction");
  static util::metrics::Summary& m_uplink =
      util::metrics::summary("frag.stranded_uplink_fraction");
  static util::metrics::Summary& m_feasible =
      util::metrics::summary("frag.feasible_host_fraction");
  static util::metrics::Summary& m_stack =
      util::metrics::summary("frag.largest_placeable_stack_vms");
  static util::metrics::Summary& m_cv =
      util::metrics::summary("frag.rack_free_cpu_cv");
  const FragmentationStats stats =
      compute_fragmentation(occupancy, reference_vm);
  m_index.observe(stats.frag_index);
  m_cpu.observe(stats.unusable_free_cpu_fraction);
  m_mem.observe(stats.unusable_free_mem_fraction);
  m_uplink.observe(stats.stranded_uplink_fraction);
  m_feasible.observe(stats.feasible_host_fraction);
  m_stack.observe(static_cast<double>(stats.largest_placeable_stack_vms));
  m_cv.observe(stats.rack_free_cpu_cv);
  return stats;
}

}  // namespace ostro::dc
