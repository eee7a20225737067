// Extension of the paper's testbed experiment: the QFS client benchmark's
// achievable throughput under each algorithm's placement.  The paper argues
// qualitatively that bin-packing (EG_C-style) placements starve the
// network; this bench quantifies it by driving the write/read benchmark of
// the QFS simulator (src/qfs) over the max-min fair network model.
#include "common.h"

#include "qfs/qfs.h"

int main(int argc, char** argv) {
  using namespace ostro;
  util::ArgParser args("bench_qfs_throughput",
                       "QFS client throughput by placement algorithm");
  bench::add_common_flags(args);
  args.add_double("file-mb", 4096.0, "benchmark file size (MB)");
  args.add_double("offered", 16000.0, "aggregate offered load (Mbps)");
  args.add_int("replication", 2, "QFS replication factor");
  if (!args.parse(argc, argv)) return 0;
  bench::apply_metrics_flags(args);

  const auto datacenter = sim::make_testbed();
  const auto app = sim::make_qfs();

  util::TablePrinter table({"Algorithm", "Write agg (Mbps)",
                            "Write time (s)", "Read agg (Mbps)",
                            "Read time (s)", "Co-located flows"});
  for (const auto algorithm : bench::table_algorithms()) {
    util::Samples wr_rate, wr_time, rd_rate, rd_time, colocated;
    for (int run = 0; run < args.get_int("runs"); ++run) {
      dc::Occupancy occupancy(datacenter);
      util::Rng rng(static_cast<std::uint64_t>(args.get_int("seed")) +
                    static_cast<std::uint64_t>(run));
      sim::apply_testbed_preload(occupancy, rng);
      core::SearchConfig config;
      config.theta_bw = 0.99;
      config.theta_c = 0.01;
      config.deadline_seconds = 0.5;
      const core::Placement placement = core::place_topology(
          occupancy, app, algorithm, config);
      if (!placement.feasible || placement.bandwidth_overcommitted) {
        continue;  // EG_C may overcommit; no throughput run is meaningful
      }
      net::commit_placement(occupancy, app, placement.assignment);

      const qfs::QfsCluster cluster(app, placement.assignment, occupancy);
      const auto write = cluster.write_benchmark(
          args.get_double("file-mb"),
          static_cast<int>(args.get_int("replication")),
          args.get_double("offered"));
      const auto read = cluster.read_benchmark(args.get_double("file-mb"),
                                               args.get_double("offered"));
      wr_rate.add(write.aggregate_mbps);
      wr_time.add(write.completion_seconds);
      rd_rate.add(read.aggregate_mbps);
      rd_time.add(read.completion_seconds);
      colocated.add(static_cast<double>(write.colocated_flows));
    }
    table.add_row({core::to_string(algorithm), bench::mean_pm(wr_rate, 0),
                   bench::mean_pm(wr_time, 1), bench::mean_pm(rd_rate, 0),
                   bench::mean_pm(rd_time, 1), bench::mean_pm(colocated, 1)});
  }
  bench::emit(table, args,
              util::format("QFS benchmark throughput (file %.0f MB, "
                           "replication %d, non-uniform testbed)",
                           args.get_double("file-mb"),
                           static_cast<int>(args.get_int("replication"))));
  bench::emit_metrics(args);
  return 0;
}
