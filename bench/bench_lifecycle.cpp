// Cluster churn under the lifecycle simulator: fragmentation trajectory,
// placement success rate, and plan latency, with the defragmentation
// planner as the ablation axis.
//
// Two identical runs (same seed, same arrival/lifetime streams) drive a
// PlacementService through sim::Lifecycle at high steady-state fill — one
// with the DefragPlanner ticking, one without.  The run without defrag
// shows the fragmentation index rising as departures shred the packing;
// the run with defrag shows it measurably lower and the placement success
// rate at least as high.  Both claims are asserted at the end (exit 1 on
// violation), so CI's --smoke invocation gates them.
#include "common.h"

#include <cstdint>

#include "core/service.h"
#include "sim/lifecycle.h"

namespace {

// Mean of the free-CPU sliver fraction over the steady-state second half
// of the run.  Single samples are noisy (fragmentation swings with every
// departure); the assertions below compare windows, not endpoints.
double steady_cpu_sliver_mean(
    const std::vector<ostro::sim::TrajectoryPoint>& trajectory) {
  if (trajectory.empty()) return 0.0;
  const std::size_t from = trajectory.size() / 2;
  double sum = 0.0;
  for (std::size_t i = from; i < trajectory.size(); ++i) {
    sum += trajectory[i].unusable_free_cpu_fraction;
  }
  return sum / static_cast<double>(trajectory.size() - from);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ostro;
  util::ArgParser args("bench_lifecycle",
                       "cluster churn with defrag on/off ablation");
  bench::add_common_flags(args);
  args.add_int("racks", 8, "data-center racks (16 hosts each)");
  args.add_int("stack-vms", 15, "VMs per arriving stack (multiple of 5)");
  args.add_double("arrival-rate", 0.12,
                  "stack arrivals per simulated second (--smoke halves this "
                  "to match the halved rack count)");
  args.add_double("lifetime", 300.0, "mean stack lifetime (simulated s)");
  args.add_double("duration", 2400.0, "simulated horizon (s)");
  args.add_double("mtbf", 0.0, "per-host MTBF (simulated s; 0 = no failures)");
  args.add_double("repair", 120.0, "host repair time (simulated s)");
  args.add_double("defrag-interval", 30.0, "defrag tick period (simulated s)");
  args.add_int("defrag-moves", 8, "max VM moves per defrag batch");
  args.add_flag("smoke", "tiny sizes for CI (overrides --racks/--duration)");
  if (!args.parse(argc, argv)) return 0;
  bench::apply_metrics_flags(args);

  const bool smoke = args.flag("smoke");
  const int racks = smoke ? 4 : static_cast<int>(args.get_int("racks"));
  const double duration =
      smoke ? 1200.0 : args.get_double("duration");
  const int stack_vms = static_cast<int>(args.get_int("stack-vms"));
  const auto datacenter = sim::make_sim_datacenter(racks);

  sim::LifecycleConfig config;
  config.arrival_rate_per_s =
      smoke ? args.get_double("arrival-rate") / 2.0
            : args.get_double("arrival-rate");
  config.mean_lifetime_s = args.get_double("lifetime");
  config.duration_s = duration;
  config.stack_vms = stack_vms;
  config.mix = sim::RequirementMix::kHeterogeneous;
  config.algorithm = core::Algorithm::kEg;
  config.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  config.host_mtbf_s = args.get_double("mtbf");
  config.host_repair_s = args.get_double("repair");
  config.defrag_interval_s = args.get_double("defrag-interval");
  config.defrag_config.max_moves =
      static_cast<std::uint32_t>(args.get_int("defrag-moves"));
  // Measure fragmentation against the LARGE class (Table III): free
  // capacity that cannot host another large VM is what strands arrivals,
  // and small-VM slivers the defrag planner repacks show up directly.
  config.reference_vm = {4.0, 4.0, 0.0};

  // The ablation: identical config and seed, defrag off vs on.  Each run
  // gets a fresh scheduler/service so occupancies are independent.
  sim::LifecycleStats stats[2];
  for (int axis = 0; axis < 2; ++axis) {
    config.defrag = axis == 1;
    core::OstroScheduler scheduler(datacenter);
    core::PlacementService service(scheduler);
    sim::Lifecycle lifecycle(service, config);
    stats[axis] = lifecycle.run();
  }
  const sim::LifecycleStats& off = stats[0];
  const sim::LifecycleStats& on = stats[1];

  util::TablePrinter table(
      {"Defrag", "Arrivals", "Committed", "Success", "Departures",
       "Frag final", "p50 plan (ms)", "p99 plan (ms)", "Moves"});
  for (int axis = 0; axis < 2; ++axis) {
    const sim::LifecycleStats& s = stats[axis];
    table.add_row(
        {axis == 0 ? "off" : "on",
         util::format("%llu", static_cast<unsigned long long>(s.arrivals)),
         util::format("%llu",
                      static_cast<unsigned long long>(s.placements_committed)),
         util::format("%.3f", s.success_rate()),
         util::format("%llu", static_cast<unsigned long long>(s.departures)),
         util::format("%.4f", s.final_frag.frag_index),
         util::format("%.2f", s.plan_seconds.percentile(50.0) * 1e3),
         util::format("%.2f", s.plan_seconds.percentile(99.0) * 1e3),
         util::format("%llu",
                      static_cast<unsigned long long>(s.defrag_moves))});
  }
  bench::emit(table, args, "lifecycle churn, defrag ablation");
  bench::emit_metrics(args);

  const double frag_first_off =
      off.trajectory.empty() ? 0.0
                             : off.trajectory.front().unusable_free_cpu_fraction;
  const double frag_steady_off = steady_cpu_sliver_mean(off.trajectory);
  const double frag_steady_on = steady_cpu_sliver_mean(on.trajectory);

  // The claims this bench exists to check; CI runs --smoke and fails on a
  // nonzero exit.  Comparisons use the steady-state mean of the cpu sliver
  // fraction (cpu is the binding dimension), not single noisy samples.
  bool ok = true;
  if (frag_steady_off <= frag_first_off) {
    std::cout << "FAIL: fragmentation did not rise under churn (first "
              << frag_first_off << ", steady mean " << frag_steady_off
              << ")\n";
    ok = false;
  }
  if (frag_steady_on >= frag_steady_off) {
    std::cout << "FAIL: defrag did not lower steady-state fragmentation (off "
              << frag_steady_off << ", on " << frag_steady_on << ")\n";
    ok = false;
  }
  if (on.success_rate() < off.success_rate()) {
    std::cout << "FAIL: defrag lowered placement success rate (off "
              << off.success_rate() << ", on " << on.success_rate() << ")\n";
    ok = false;
  }
  if (ok) {
    std::cout << "lifecycle ablation OK: cpu sliver fraction "
              << frag_first_off << " -> " << frag_steady_off
              << " steady without defrag, " << frag_steady_on
              << " with; success " << off.success_rate() << " -> "
              << on.success_rate() << "\n";
  }
  return ok ? 0 : 1;
}
