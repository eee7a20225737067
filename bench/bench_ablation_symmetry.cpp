// Ablation for Section III-B-3: the diversity-zone symmetry reduction.
// BA* is run with and without the interchangeable-node floor rule on
// symmetric workloads (homogeneous multi-tier slices on the testbed); the
// same-rack host rule stays on in both arms.  An untruncated arm is
// optimal, so two untruncated arms find the same utility.  Without the
// floor rule the search visits every permutation of interchangeable nodes:
// it expands more paths and may hit the max_open_paths valve, and a
// truncated arm returns its EG incumbent (the Truncated column).
#include "common.h"

int main(int argc, char** argv) {
  using namespace ostro;
  util::ArgParser args("bench_ablation_symmetry",
                       "Ablation: Section III-B-3 symmetry reduction in BA*");
  bench::add_common_flags(args);
  args.add_string("sizes", "10,15,20", "multi-tier sizes (multiples of 5)");
  if (!args.parse(argc, argv)) return 0;
  bench::apply_metrics_flags(args);

  const auto datacenter = sim::make_testbed();
  util::TablePrinter table({"Size", "Mode", "Utility", "Bandwidth (Mbps)",
                            "Paths generated", "Paths expanded",
                            "Run-time (sec)", "Truncated"});
  for (const int vms : util::parse_int_list(args.get_string("sizes"))) {
    for (const bool reduce : {true, false}) {
      util::Samples utility, bw, generated, expanded, runtime;
      int truncated = 0;
      for (int run = 0; run < args.get_int("runs"); ++run) {
        util::Rng rng(static_cast<std::uint64_t>(args.get_int("seed")) +
                      static_cast<std::uint64_t>(run));
        const dc::Occupancy occupancy(datacenter);
        const auto app =
            sim::make_multitier(vms, sim::RequirementMix::kHomogeneous, rng);
        core::SearchConfig config;
        config.symmetry_reduction = reduce;
        const core::Placement placement = core::place_topology(
            occupancy, app, core::Algorithm::kBaStar, config, nullptr,
            nullptr);
        if (!placement.feasible) continue;
        utility.add(placement.utility);
        bw.add(placement.reserved_bandwidth_mbps);
        generated.add(static_cast<double>(placement.stats.paths_generated));
        expanded.add(static_cast<double>(placement.stats.paths_expanded));
        runtime.add(placement.stats.runtime_seconds);
        if (placement.stats.truncated) ++truncated;
      }
      table.add_row({std::to_string(vms), reduce ? "reduced" : "plain",
                     bench::mean_pm(utility, 4), bench::mean_pm(bw, 0),
                     bench::mean_pm(generated, 0),
                     bench::mean_pm(expanded, 0),
                     bench::mean_pm(runtime, 3),
                     bench::truncated_runs(truncated)});
    }
  }
  bench::emit(table, args,
              "BA* with vs without diversity-zone symmetry reduction "
              "(homogeneous multi-tier on the idle testbed)");
  bench::emit_metrics(args);
  return 0;
}
