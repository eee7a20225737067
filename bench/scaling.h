// Shared scalability sweep used by the Figure 7-9 (multi-tier) and Figure
// 10-11 (mesh) benches: for each topology size and each algorithm, place
// the application on the 2400-host simulated data center and aggregate
// reserved bandwidth, total active hosts and run time over seeded runs.
#pragma once

#include <map>

#include "common.h"

namespace ostro::bench {

enum class Workload { kMultitier, kMesh };

struct SweepCell {
  util::Samples bandwidth_gbps;
  util::Samples total_hosts;
  util::Samples new_hosts;
  util::Samples runtime_seconds;
  int infeasible = 0;
};

/// cell key: (vms, algorithm)
using SweepResult = std::map<std::pair<int, core::Algorithm>, SweepCell>;

/// Sizes are VM counts (mesh sizes must be multiples of 5 = one zone).
[[nodiscard]] inline SweepResult run_scaling_sweep(
    Workload workload, sim::RequirementMix mix, const std::vector<int>& sizes,
    const std::vector<core::Algorithm>& algorithms, int runs,
    std::uint64_t seed, int racks, bool uniform_availability) {
  const auto datacenter = sim::make_sim_datacenter(racks);
  SweepResult result;
  for (const int vms : sizes) {
    for (const auto algorithm : algorithms) {
      SweepCell& cell = result[{vms, algorithm}];
      for (int run = 0; run < runs; ++run) {
        util::Rng rng(seed + static_cast<std::uint64_t>(run));
        dc::Occupancy occupancy(datacenter);
        if (!uniform_availability) sim::apply_sim_preload(occupancy, rng);
        const auto app =
            workload == Workload::kMultitier
                ? sim::make_multitier(vms, mix, rng)
                : sim::make_mesh(vms / 5, mix, rng);
        core::SearchConfig config;  // theta = 0.6 / 0.4 (Section IV-C)
        config.deadline_seconds = dba_deadline_for(vms);
        config.seed = seed + static_cast<std::uint64_t>(run);
        const core::Placement placement = core::place_topology(
            occupancy, app, algorithm, config);
        if (!placement.feasible) {
          ++cell.infeasible;
          std::cerr << core::to_string(algorithm) << " @" << vms
                    << " run " << run
                    << ": infeasible: " << placement.failure_reason << "\n";
          continue;
        }
        cell.bandwidth_gbps.add(placement.reserved_bandwidth_mbps / 1000.0);
        cell.total_hosts.add(static_cast<double>(
            occupancy.active_host_count() +
            static_cast<std::size_t>(placement.new_active_hosts)));
        cell.new_hosts.add(placement.new_active_hosts);
        cell.runtime_seconds.add(placement.stats.runtime_seconds);
      }
    }
  }
  return result;
}

/// Emits one metric of the sweep as a table: rows = sizes, one column per
/// algorithm.
inline void emit_sweep_metric(
    const SweepResult& sweep, const std::vector<int>& sizes,
    const std::vector<core::Algorithm>& algorithms,
    const std::function<std::string(const SweepCell&)>& metric,
    const std::string& metric_name, const util::ArgParser& args,
    const std::string& caption) {
  std::vector<std::string> headers{"Size"};
  for (const auto algorithm : algorithms) {
    headers.emplace_back(core::to_string(algorithm));
  }
  util::TablePrinter table(std::move(headers));
  for (const int vms : sizes) {
    std::vector<std::string> row{std::to_string(vms)};
    for (const auto algorithm : algorithms) {
      row.push_back(metric(sweep.at({vms, algorithm})));
    }
    table.add_row(row);
  }
  emit(table, args, caption + " — " + metric_name);
}

}  // namespace ostro::bench
