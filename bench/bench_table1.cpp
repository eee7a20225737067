// Table I of the paper: the QFS application placed on the 16-host testbed
// under NON-UNIFORM resource availability (Section IV-A pre-load).
// Compares EG_C / EG_BW / EG / BA* / DBA* on reserved bandwidth, newly
// activated hosts and run time, with theta_bw = 0.99 / theta_c = 0.01 and
// DBA* T = 0.5 s, exactly as Section IV-B describes.  --theta-c runs the
// paper's follow-up experiment (theta_c raised to 0.4).  The Truncated row
// counts runs that stopped at the max_open_paths valve and so returned
// their EG incumbent instead of a completed search.
#include "common.h"

int main(int argc, char** argv) {
  using namespace ostro;
  util::ArgParser args("bench_table1",
                       "Table I: QFS on the non-uniform testbed");
  bench::add_common_flags(args);
  args.add_double("theta-c", 0.01, "theta_c (paper: 0.01, then 0.4)");
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
      dc::Occupancy occupancy(datacenter);
      util::Rng rng(static_cast<std::uint64_t>(args.get_int("seed")) +
                    static_cast<std::uint64_t>(run));
      sim::apply_testbed_preload(occupancy, rng);

      core::SearchConfig config;
      config.theta_c = args.get_double("theta-c");
      config.theta_bw = 1.0 - config.theta_c;
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
  bench::emit(table, args,
              util::format("Table I: QFS, non-uniform availability "
                           "(theta_bw=%.2f, theta_c=%.2f, T=%.2fs)",
                           1.0 - args.get_double("theta-c"),
                           args.get_double("theta-c"),
                           args.get_double("deadline")));
  bench::emit_metrics(args);
  return 0;
}
