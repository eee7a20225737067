// Ablation for the search heuristics: BA* in its pure admissible best-first
// form vs the EG-estimate-guided depth-first ordering of DBA* with no
// deadline (the paper's GetHeuristic of Section III-A-2 driving the dive
// order, without probabilistic pruning), crossed with the precomputed prune
// labels (SearchConfig::use_prune_labels) that tighten the admissible
// bounds.  The guided anytime mode reaches a good placement orders of
// magnitude sooner; pure BA* certifies optimality but pays for it in
// expansions, and the labels cut what it pays.
#include <stdexcept>
#include <vector>

#include "common.h"

int main(int argc, char** argv) {
  using namespace ostro;
  util::ArgParser args(
      "bench_ablation_heuristic",
      "Ablation: admissible best-first vs estimate-guided depth-first");
  bench::add_common_flags(args);
  args.add_string("sizes", "10,15,20", "multi-tier sizes (multiples of 5)");
  args.add_string("use-prune-labels", "both",
                  "prune labels for the admissible bounds: on | off | both "
                  "(ablate: one row per setting)");
  if (!args.parse(argc, argv)) return 0;
  bench::apply_metrics_flags(args);

  std::vector<bool> label_modes;
  const std::string labels_arg = args.get_string("use-prune-labels");
  if (labels_arg == "on") {
    label_modes = {true};
  } else if (labels_arg == "off") {
    label_modes = {false};
  } else if (labels_arg == "both") {
    label_modes = {false, true};
  } else {
    throw std::invalid_argument("--use-prune-labels must be on|off|both, got " +
                                labels_arg);
  }

  const auto datacenter = sim::make_testbed();
  util::TablePrinter table({"Size", "Search", "Labels", "Utility",
                            "Bandwidth (Mbps)", "Paths expanded",
                            "Run-time (sec)", "Truncated"});
  for (const int vms : util::parse_int_list(args.get_string("sizes"))) {
    for (const bool guided : {false, true}) {
      for (const bool labels : label_modes) {
        util::Samples utility, bw, expanded, runtime;
        int truncated = 0;
        for (int run = 0; run < args.get_int("runs"); ++run) {
          util::Rng rng(static_cast<std::uint64_t>(args.get_int("seed")) +
                        static_cast<std::uint64_t>(run));
          const dc::Occupancy occupancy(datacenter);
          const auto app = sim::make_multitier(
              vms, sim::RequirementMix::kHeterogeneous, rng);
          core::SearchConfig config;
          config.use_prune_labels = labels;  // deadline_seconds stays 0
          const core::Placement placement = core::place_topology(
              occupancy, app,
              guided ? core::Algorithm::kDbaStar : core::Algorithm::kBaStar,
              config, nullptr, nullptr);
          if (!placement.feasible) continue;
          utility.add(placement.utility);
          bw.add(placement.reserved_bandwidth_mbps);
          expanded.add(static_cast<double>(placement.stats.paths_expanded));
          runtime.add(placement.stats.runtime_seconds);
          if (placement.stats.truncated) ++truncated;
        }
        table.add_row({std::to_string(vms),
                       guided ? "estimate-guided DFS" : "admissible best-first",
                       labels ? "on" : "off", bench::mean_pm(utility, 4),
                       bench::mean_pm(bw, 0), bench::mean_pm(expanded, 0),
                       bench::mean_pm(runtime, 3),
                       bench::truncated_runs(truncated)});
      }
    }
  }
  bench::emit(table, args,
              "BA* heuristic ablation (heterogeneous multi-tier on the idle "
              "testbed)");
  bench::emit_metrics(args);
  return 0;
}
