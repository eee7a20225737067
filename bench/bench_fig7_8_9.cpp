// Figures 7, 8 and 9 of the paper: the multi-tier application scalability
// sweep on the 2400-host simulated data center.
//   Figure 7a/7b — reserved bandwidth vs topology size (het / hom);
//   Figure 8    — total used (active) hosts vs size (heterogeneous);
//   Figure 9a/9b — run time vs size (het / hom).
// Expected shape: EG_C reserves by far the most bandwidth (it ignores the
// pipes), EG_BW/EG/DBA* cluster below it with DBA* best; EG_BW activates
// the most hosts while EG_C packs tightest; greedy run times stay low while
// DBA* uses its size-scaled deadline.
#include "scaling.h"

int main(int argc, char** argv) {
  using namespace ostro;
  util::ArgParser args("bench_fig7_8_9", "Figures 7-9: multi-tier sweep");
  bench::add_common_flags(args);
  args.add_string("sizes", "25,50,100,150,200",
                  "topology sizes (--full: 25,50,75,100,125,150,175,200)");
  args.add_int("racks", 150, "data-center racks (16 hosts each)");
  if (!args.parse(argc, argv)) return 0;
  bench::apply_metrics_flags(args);

  const std::vector<int> sizes =
      args.flag("full")
          ? std::vector<int>{25, 50, 75, 100, 125, 150, 175, 200}
          : util::parse_int_list(args.get_string("sizes"));
  const auto algorithms = bench::figure_algorithms();

  for (const auto mix : {sim::RequirementMix::kHeterogeneous,
                         sim::RequirementMix::kHomogeneous}) {
    // Paper pairing: heterogeneous requirements with non-uniform
    // availability, homogeneous with uniform (Section IV-D).
    const bool uniform = mix == sim::RequirementMix::kHomogeneous;
    const auto sweep = bench::run_scaling_sweep(
        bench::Workload::kMultitier, mix, sizes, algorithms,
        static_cast<int>(args.get_int("runs")),
        static_cast<std::uint64_t>(args.get_int("seed")),
        static_cast<int>(args.get_int("racks")), uniform);
    const std::string suffix =
        std::string(sim::to_string(mix)) +
        (uniform ? ", uniform availability" : ", non-uniform availability");

    bench::emit_sweep_metric(
        sweep, sizes, algorithms,
        [](const bench::SweepCell& cell) {
          return bench::mean_pm(cell.bandwidth_gbps, 1);
        },
        "reserved bandwidth (Gbps)", args,
        "Figure 7 (multi-tier, " + suffix + ")");
    if (mix == sim::RequirementMix::kHeterogeneous) {
      bench::emit_sweep_metric(
          sweep, sizes, algorithms,
          [](const bench::SweepCell& cell) {
            return bench::mean_pm(cell.total_hosts, 0);
          },
          "total used hosts", args, "Figure 8 (multi-tier, " + suffix + ")");
    }
    bench::emit_sweep_metric(
        sweep, sizes, algorithms,
        [](const bench::SweepCell& cell) {
          return bench::mean_pm(cell.runtime_seconds, 2);
        },
        "run time (sec)", args, "Figure 9 (multi-tier, " + suffix + ")");
  }
  bench::emit_metrics(args);
  return 0;
}
