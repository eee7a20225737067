// Ablation for the objective weights (Section II-B-1 and the Table I
// follow-up where theta_c is raised from 0.01 to 0.4): sweep theta_c and
// show how EG and DBA* trade reserved bandwidth against newly activated
// hosts.  The paper observes that BA*/DBA* adjust their placement with
// theta while the pre-sorted greedy variants barely move.
#include "common.h"

int main(int argc, char** argv) {
  using namespace ostro;
  util::ArgParser args("bench_ablation_theta",
                       "Ablation: objective weight sweep on QFS");
  bench::add_common_flags(args);
  args.add_string("theta-c-percent", "1,10,40,75,95",
                  "theta_c values in percent");
  if (!args.parse(argc, argv)) return 0;
  bench::apply_metrics_flags(args);

  const auto datacenter = sim::make_testbed();
  const auto app = sim::make_qfs();

  util::TablePrinter table({"theta_c", "Algorithm", "Bandwidth (Mbps)",
                            "New active hosts", "Utility"});
  for (const int percent :
       util::parse_int_list(args.get_string("theta-c-percent"))) {
    for (const auto algorithm :
         {core::Algorithm::kEg, core::Algorithm::kDbaStar}) {
      util::Samples bw, nh, utility;
      for (int run = 0; run < args.get_int("runs"); ++run) {
        dc::Occupancy occupancy(datacenter);
        util::Rng rng(static_cast<std::uint64_t>(args.get_int("seed")) +
                      static_cast<std::uint64_t>(run));
        sim::apply_testbed_preload(occupancy, rng);
        core::SearchConfig config;
        config.theta_c = static_cast<double>(percent) / 100.0;
        config.theta_bw = 1.0 - config.theta_c;
        config.deadline_seconds = 0.5;
        const core::Placement placement = core::place_topology(
            occupancy, app, algorithm, config);
        if (!placement.feasible) continue;
        bw.add(placement.reserved_bandwidth_mbps);
        nh.add(placement.new_active_hosts);
        utility.add(placement.utility);
      }
      table.add_row({util::format("%.2f", percent / 100.0),
                     core::to_string(algorithm), bench::mean_pm(bw, 0),
                     bench::mean_pm(nh, 1), bench::mean_pm(utility, 4)});
    }
  }
  bench::emit(table, args,
              "theta sweep: bandwidth vs host-count tradeoff (QFS, "
              "non-uniform testbed)");
  bench::emit_metrics(args);
  return 0;
}
