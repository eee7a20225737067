// Concurrent placement service: thread sweep over a fixed batch of stacks.
//
// Measures the optimistic snapshot/plan/validate-commit protocol of
// core::PlacementService under load.  A fixed set of multi-tier stacks is
// pushed through one service by 1/2/4/8 client threads; each sweep point
// reports request throughput, commit rate, and the conflict/retry pressure
// of the commit gate (plus the mean writer-lock wait from the metrics
// registry).  With one thread the protocol is pure overhead on top of
// OstroScheduler::deploy, so the T=1 row doubles as the serial baseline.
#include "common.h"

#include "core/service.h"
#include "util/thread_pool.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace ostro;
  util::ArgParser args("bench_service",
                       "concurrent placement-service thread sweep");
  bench::add_common_flags(args);
  args.add_int("stacks", 160, "total stacks per sweep point");
  args.add_int("stack-vms", 5, "VMs per stack");
  args.add_int("racks", 12, "data-center racks (8 hosts each)");
  args.add_flag("smoke", "tiny sizes for CI (overrides --stacks/--racks)");
  if (!args.parse(argc, argv)) return 0;
  bench::apply_metrics_flags(args);

  const bool smoke = args.flag("smoke");
  const int total_stacks =
      smoke ? 32 : static_cast<int>(args.get_int("stacks"));
  const int stack_vms = static_cast<int>(args.get_int("stack-vms"));
  const int racks = smoke ? 4 : static_cast<int>(args.get_int("racks"));
  const auto datacenter = sim::make_sim_datacenter(racks);

  // One shared batch of stacks so every sweep point places the same work.
  util::Rng rng(static_cast<std::uint64_t>(args.get_int("seed")));
  std::vector<topo::AppTopology> stacks;
  stacks.reserve(static_cast<std::size_t>(total_stacks));
  for (int i = 0; i < total_stacks; ++i) {
    stacks.push_back(sim::make_multitier(
        stack_vms, sim::RequirementMix::kHomogeneous, rng));
  }

  core::SearchConfig config;

  util::TablePrinter table({"Threads", "Requests/sec", "Committed",
                            "Conflicts", "Retries", "Wall (sec)"});
  for (const int threads : {1, 2, 4, 8}) {
    core::OstroScheduler scheduler(datacenter, config);
    core::PlacementService service(scheduler);
    std::vector<core::ServiceResult> results(
        static_cast<std::size_t>(total_stacks));

    util::WallTimer timer;
    // run_workers (not bare std::thread): a place() exception propagates
    // to this call after every worker joined instead of std::terminate.
    util::run_workers(static_cast<std::size_t>(threads), [&](std::size_t t) {
      for (int i = static_cast<int>(t); i < total_stacks; i += threads) {
        const auto index = static_cast<std::size_t>(i);
        results[index] =
            service.place(stacks[index], core::Algorithm::kEg, config);
      }
    });
    const double wall = timer.elapsed_seconds();

    int committed = 0;
    std::uint64_t conflicts = 0, retries = 0;
    for (const core::ServiceResult& result : results) {
      if (result.placement.committed) ++committed;
      conflicts += result.conflicts;
      retries += result.retries;
    }
    const double rps = static_cast<double>(total_stacks) / wall;
    table.add_row({util::format("%d", threads), util::format("%.1f", rps),
                   util::format("%d/%d", committed, total_stacks),
                   util::format("%llu",
                                static_cast<unsigned long long>(conflicts)),
                   util::format("%llu",
                                static_cast<unsigned long long>(retries)),
                   util::format("%.3f", wall)});
  }
  bench::emit(table, args, "placement service thread sweep");
  bench::emit_metrics(args);
  return 0;
}
