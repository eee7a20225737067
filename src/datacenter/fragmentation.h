// Fragmentation metrics over an Occupancy (DESIGN.md section 13).
//
// A long-running cluster under churn ends up with plenty of free capacity
// that no request can use: slivers of CPU on memory-exhausted hosts, free
// uplink bandwidth behind full hosts, free capacity scattered one-VM-wide
// across many racks so no multi-VM stack fits anywhere.  These metrics
// quantify that gap between *total* free capacity and *usable* free
// capacity, measured against a caller-supplied reference VM shape (default:
// the medium/homogeneous class of sim::workloads, 2 vcpus / 2 GB).
//
// Everything is derived from state the FeasibilityIndex already maintains
// (per-host free vectors, per-host free uplink, per-subtree feasible-host
// counts), so one computation is O(hosts) with no occupancy locking beyond
// the caller's — cheap enough to sample every few simulated seconds from
// the lifecycle loop.
//
// The headline number, `frag_index` in [0, 1], is the larger of the
// unusable-free fractions of CPU and memory: 0 means every free byte could
// be packed with reference VMs, 1 means free capacity exists but none of it
// can host even one.
#pragma once

#include <cstdint>

#include "datacenter/occupancy.h"
#include "topology/resources.h"

namespace ostro::dc {

struct FragmentationStats {
  // ---- fill ----
  double used_cpu_fraction = 0.0;  ///< total used / total capacity
  double used_mem_fraction = 0.0;
  double active_host_fraction = 0.0;  ///< non-idle hosts / all hosts

  // ---- feasibility ----
  /// Hosts with strictly positive free capacity in every dimension
  /// (FeasibilityIndex root aggregate) over all hosts.
  double feasible_host_fraction = 0.0;

  // ---- free-capacity usability vs the reference VM ----
  double total_free_cpu = 0.0;   ///< sum of free vcpus over all hosts
  double total_free_mem = 0.0;   ///< sum of free mem_gb over all hosts
  /// Free capacity reachable by reference VMs: per host, the whole units of
  /// the reference shape that fit (min over its positive dimensions) times
  /// the reference demand, summed.
  double usable_free_cpu = 0.0;
  double usable_free_mem = 0.0;
  /// (total - usable) / total free per dimension; 0 when nothing is free.
  double unusable_free_cpu_fraction = 0.0;
  double unusable_free_mem_fraction = 0.0;
  /// max of the two unusable fractions — the headline fragmentation index.
  double frag_index = 0.0;

  // ---- stranded bandwidth ----
  /// Fraction of free host-uplink bandwidth sitting on hosts that cannot
  /// fit one reference VM (bandwidth no new placement can reach).
  double stranded_uplink_fraction = 0.0;

  // ---- dispersion / largest placeable stack ----
  /// Coefficient of variation (stddev / mean) of per-rack free CPU; rises
  /// as churn concentrates free capacity unevenly.  0 when mean is 0.
  double rack_free_cpu_cv = 0.0;
  /// Reference VMs that fit in the single best rack — an upper-bound
  /// estimate of the largest stack placeable without leaving one rack.
  std::uint32_t largest_placeable_stack_vms = 0;
  /// Reference VMs that fit data-center-wide (sum of per-host units).
  std::uint32_t total_placeable_vms = 0;
};

/// Computes the stats in one O(hosts) pass over the occupancy.
/// `reference_vm` must be non-negative with at least one positive dimension;
/// zero dimensions (e.g. disk for the paper's VM classes) are ignored when
/// counting units.
[[nodiscard]] FragmentationStats compute_fragmentation(
    const Occupancy& occupancy,
    const topo::Resources& reference_vm = {2.0, 2.0, 0.0});

/// compute_fragmentation + one observation per frag.* summary (frag.index,
/// frag.unusable_free_cpu_fraction, frag.unusable_free_mem_fraction,
/// frag.stranded_uplink_fraction, frag.feasible_host_fraction,
/// frag.largest_placeable_stack_vms, frag.rack_free_cpu_cv).
FragmentationStats observe_fragmentation(
    const Occupancy& occupancy,
    const topo::Resources& reference_vm = {2.0, 2.0, 0.0});

}  // namespace ostro::dc
