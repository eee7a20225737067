// Related-work comparison (Section V): the paper argues that evolutionary
// methods such as simulated annealing make it "non-trivial to guarantee an
// optimal solution in a tight time bound".  This bench gives simulated
// annealing and DBA* identical wall-clock budgets on the same instances
// and reports the utility each achieves, plus EG as the no-search baseline.
#include "common.h"

#include "core/annealing.h"

int main(int argc, char** argv) {
  using namespace ostro;
  util::ArgParser args("bench_vs_annealing",
                       "DBA* vs simulated annealing under equal budgets");
  bench::add_common_flags(args);
  args.add_string("sizes", "25,50,100", "multi-tier sizes");
  args.add_int("racks", 50, "data-center racks");
  if (!args.parse(argc, argv)) return 0;
  bench::apply_metrics_flags(args);

  const auto datacenter =
      sim::make_sim_datacenter(static_cast<int>(args.get_int("racks")));
  util::TablePrinter table({"Size", "Budget (s)", "Method",
                            "Utility", "Bandwidth (Gbps)", "New hosts"});
  for (const int vms : util::parse_int_list(args.get_string("sizes"))) {
    const double budget = bench::dba_deadline_for(vms);
    struct Cell {
      util::Samples utility, bw, hosts;
    };
    Cell eg_cell, dba_cell, sa_cell;
    for (int run = 0; run < args.get_int("runs"); ++run) {
      util::Rng rng(static_cast<std::uint64_t>(args.get_int("seed")) +
                    static_cast<std::uint64_t>(run));
      dc::Occupancy occupancy(datacenter);
      sim::apply_sim_preload(occupancy, rng);
      const auto app = sim::make_multitier(
          vms, sim::RequirementMix::kHeterogeneous, rng);

      core::SearchConfig config;
      config.seed = static_cast<std::uint64_t>(args.get_int("seed")) +
                    static_cast<std::uint64_t>(run);

      const core::Placement eg = core::place_topology(
          occupancy, app, core::Algorithm::kEg, config);

      core::SearchConfig dba_config = config;
      dba_config.deadline_seconds = budget;
      const core::Placement dba = core::place_topology(
          occupancy, app, core::Algorithm::kDbaStar, dba_config);

      core::AnnealingConfig sa_config;
      sa_config.deadline_seconds = budget;
      sa_config.seed = config.seed;
      const core::Placement sa =
          core::simulated_annealing(occupancy, app, config, sa_config);

      const auto record = [](Cell& cell, const core::Placement& p) {
        if (!p.feasible) return;
        cell.utility.add(p.utility);
        cell.bw.add(p.reserved_bandwidth_mbps / 1000.0);
        cell.hosts.add(p.new_active_hosts);
      };
      record(eg_cell, eg);
      record(dba_cell, dba);
      record(sa_cell, sa);
    }
    const auto emit_row = [&](const char* method, const Cell& cell,
                              double cell_budget) {
      table.add_row({std::to_string(vms),
                     util::format("%.1f", cell_budget), method,
                     bench::mean_pm(cell.utility, 4),
                     bench::mean_pm(cell.bw, 1),
                     bench::mean_pm(cell.hosts, 1)});
    };
    emit_row("EG (no search)", eg_cell, 0.0);
    emit_row("DBA*", dba_cell, budget);
    emit_row("Simulated annealing", sa_cell, budget);
  }
  bench::emit(table, args,
              "DBA* vs simulated annealing, equal wall-clock budgets "
              "(heterogeneous multi-tier, non-uniform DC)");
  bench::emit_metrics(args);
  return 0;
}
