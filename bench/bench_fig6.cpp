// Figure 6 of the paper: the tradeoff between DBA*'s running-time budget T
// and the optimality of the placement.  A 200-VM heterogeneous multi-tier
// application is placed on the 2400-host simulated data center with the
// Table IV non-uniform availability; each T produces one point (reserved
// bandwidth, newly used hosts).  The paper's shape: bandwidth drops quickly
// as T grows past ~2x EG's run time, then flattens (diminishing returns).
#include "common.h"

int main(int argc, char** argv) {
  using namespace ostro;
  util::ArgParser args("bench_fig6", "Figure 6: DBA* deadline sweep");
  bench::add_common_flags(args);
  args.add_string("deadlines", "6,9,12,18,24,36",
                  "comma-separated T values in seconds");
  args.add_int("vms", 200, "multi-tier size");
  args.add_int("racks", 150, "data-center racks (16 hosts each)");
  if (!args.parse(argc, argv)) return 0;
  bench::apply_metrics_flags(args);

  const auto datacenter =
      sim::make_sim_datacenter(static_cast<int>(args.get_int("racks")));
  const auto deadlines = util::parse_int_list(args.get_string("deadlines"));

  util::TablePrinter table({"T (sec)", "Reserved bandwidth (Gbps)",
                            "Newly used hosts", "Actual run-time (sec)"});
  for (const int deadline : deadlines) {
    util::Samples bw, nh, rt;
    for (int run = 0; run < args.get_int("runs"); ++run) {
      util::Rng rng(static_cast<std::uint64_t>(args.get_int("seed")) +
                    static_cast<std::uint64_t>(run));
      dc::Occupancy occupancy(datacenter);
      sim::apply_sim_preload(occupancy, rng);
      const auto app =
          sim::make_multitier(static_cast<int>(args.get_int("vms")),
                              sim::RequirementMix::kHeterogeneous, rng);
      core::SearchConfig config;  // theta = 0.6 / 0.4 (Section IV-C)
      config.deadline_seconds = deadline;
      config.seed = static_cast<std::uint64_t>(args.get_int("seed")) +
                    static_cast<std::uint64_t>(run);
      const core::Placement placement = core::place_topology(
          occupancy, app, core::Algorithm::kDbaStar, config);
      if (!placement.feasible) {
        std::cerr << "T=" << deadline
                  << ": infeasible: " << placement.failure_reason << "\n";
        continue;
      }
      bw.add(placement.reserved_bandwidth_mbps / 1000.0);
      nh.add(placement.new_active_hosts);
      rt.add(placement.stats.runtime_seconds);
    }
    table.add_row({util::TablePrinter::cell(std::int64_t{deadline}),
                   bench::mean_pm(bw, 1), bench::mean_pm(nh, 1),
                   bench::mean_pm(rt, 1)});
  }
  bench::emit(table, args,
              util::format("Figure 6: DBA* T vs optimality (multi-tier %d "
                           "VMs, heterogeneous, non-uniform DC)",
                           static_cast<int>(args.get_int("vms"))));
  bench::emit_metrics(args);
  return 0;
}
