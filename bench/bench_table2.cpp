// Table II of the paper: the QFS application on the 16-host testbed under
// UNIFORM resource availability (all hosts idle).  All algorithms except
// EG_C should converge to the same bandwidth and the same number of newly
// activated hosts, and the bounded searches should finish faster than in
// the non-uniform case of Table I.  The Truncated row counts runs that
// stopped at the max_open_paths valve and so returned their EG incumbent
// instead of a completed search.
#include "common.h"

int main(int argc, char** argv) {
  using namespace ostro;
  util::ArgParser args("bench_table2",
                       "Table II: QFS on the uniform (idle) testbed");
  bench::add_common_flags(args);
  args.add_double("deadline", 0.5, "DBA* deadline T in seconds");
  if (!args.parse(argc, argv)) return 0;
  bench::apply_metrics_flags(args);

  const auto datacenter = sim::make_testbed();
  const auto app = sim::make_qfs();

  util::TablePrinter table(
      {"Metric", "EGC", "EGBW", "EG", "BA*", "DBA*"});
  std::vector<std::string> bandwidth{"Bandwidth (Mbps)"};
  std::vector<std::string> hosts{"New active hosts"};
  std::vector<std::string> runtime{"Run-time (sec)"};
  std::vector<std::string> truncated{"Truncated"};

  for (const auto algorithm : bench::table_algorithms()) {
    util::Samples bw, nh, rt;
    int truncated_count = 0;
    for (int run = 0; run < args.get_int("runs"); ++run) {
      const dc::Occupancy occupancy(datacenter);  // uniform: everything idle
      core::SearchConfig config;
      config.theta_bw = 0.99;
      config.theta_c = 0.01;
      config.deadline_seconds = args.get_double("deadline");
      config.seed = static_cast<std::uint64_t>(args.get_int("seed")) +
                    static_cast<std::uint64_t>(run);
      const core::Placement placement = core::place_topology(
          occupancy, app, algorithm, config);
      if (!placement.feasible) {
        std::cerr << core::to_string(algorithm)
                  << ": infeasible: " << placement.failure_reason << "\n";
        continue;
      }
      bw.add(placement.reserved_bandwidth_mbps);
      nh.add(placement.new_active_hosts);
      rt.add(placement.stats.runtime_seconds);
      if (placement.stats.truncated) ++truncated_count;
    }
    bandwidth.push_back(bench::mean_pm(bw, 0));
    hosts.push_back(bench::mean_pm(nh, 1));
    runtime.push_back(bench::mean_pm(rt, 3));
    truncated.push_back(bench::truncated_runs(truncated_count));
  }
  table.add_row(bandwidth);
  table.add_row(hosts);
  table.add_row(runtime);
  table.add_row(truncated);
  bench::emit(table, args, "Table II: QFS, uniform availability");
  bench::emit_metrics(args);
  return 0;
}
