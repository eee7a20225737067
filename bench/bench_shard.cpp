// Sharded scale-out throughput: placement requests per second through the
// core::ShardRouter as the shard count grows, at fixed cluster size.
//
// One wide-area cluster (full scale: 4 sites x 8 pods x 200 racks x 16
// hosts = 102,400 hosts) serves the SAME pre-generated multi-tier request
// stream under every shard count; client threads hammer the router
// concurrently.  A monolithic service pays O(hosts) per request (snapshot
// copy + candidate scan) behind one writer lock; with N shards each
// request touches one shard's O(hosts/N) state behind its own lock, so
// throughput should scale with the shard count.  Every run, --smoke (CI)
// included, exits nonzero when a multi-shard router commits fewer stacks
// than the 1-shard router did from the same stream: sharding must not lose
// placements.  The full run also asserts the headline claim — at least 3x
// throughput at 4 shards over 1.
#include "common.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/shard_router.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

struct SweepPoint {
  std::uint32_t shards = 0;
  std::uint64_t committed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cross_shard = 0;
  double seconds = 0.0;

  [[nodiscard]] double throughput() const {
    return seconds > 0.0 ? static_cast<double>(committed) / seconds : 0.0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace ostro;
  util::ArgParser args("bench_shard",
                       "router throughput vs shard count at fixed scale");
  bench::add_common_flags(args);
  args.add_int("sites", 4, "wide-area sites");
  args.add_int("pods", 8, "pods per site");
  args.add_int("racks", 200, "racks per pod (16 hosts each)");
  args.add_int("stacks", 256, "placement requests per shard-count run");
  args.add_int("stack-vms", 10, "VMs per stack (multiple of 5)");
  args.add_int("threads", 8, "concurrent client threads");
  args.add_flag("smoke", "tiny sizes for CI (overrides the scale flags; "
                         "skips the full-scale 3x speedup assertion)");
  if (!args.parse(argc, argv)) return 0;
  bench::apply_metrics_flags(args);

  const bool smoke = args.flag("smoke");
  const int sites = smoke ? 2 : static_cast<int>(args.get_int("sites"));
  const int pods = smoke ? 2 : static_cast<int>(args.get_int("pods"));
  const int racks = smoke ? 2 : static_cast<int>(args.get_int("racks"));
  const int hosts_per_rack = smoke ? 4 : 16;
  const int stacks = smoke ? 48 : static_cast<int>(args.get_int("stacks"));
  const int stack_vms = static_cast<int>(args.get_int("stack-vms"));
  const std::size_t threads =
      static_cast<std::size_t>(args.get_int("threads"));
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed"));

  const dc::DataCenter datacenter =
      sim::make_wan(sites, pods, racks, hosts_per_rack);
  const std::uint32_t total_pods =
      static_cast<std::uint32_t>(datacenter.pods().size());

  // The same request stream for every shard count: pre-generated so the
  // sweep measures the router, not the workload generator.
  std::vector<std::shared_ptr<const topo::AppTopology>> apps;
  apps.reserve(static_cast<std::size_t>(stacks));
  {
    util::Rng rng(seed);
    for (int i = 0; i < stacks; ++i) {
      apps.push_back(std::make_shared<const topo::AppTopology>(
          sim::make_multitier(stack_vms, sim::RequirementMix::kHeterogeneous,
                              rng)));
    }
  }

  std::vector<std::uint32_t> shard_counts;
  for (const std::uint32_t n : {1u, 2u, 4u, 8u}) {
    if (n <= total_pods) shard_counts.push_back(n);
  }

  std::vector<SweepPoint> points;
  for (const std::uint32_t shards : shard_counts) {
    core::ShardConfig config;
    config.shards = shards;
    core::ShardRouter router(datacenter, config);

    std::atomic<std::size_t> next{0};
    std::atomic<std::uint64_t> committed{0};
    std::atomic<std::uint64_t> failed{0};
    std::atomic<std::uint64_t> cross{0};
    const util::WallTimer timer;
    util::run_workers(threads, [&](std::size_t) {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= apps.size()) break;
        const core::ShardRouter::Result result =
            router.place(apps[i], core::Algorithm::kEg);
        if (result.service.placement.committed) {
          committed.fetch_add(1, std::memory_order_relaxed);
          if (result.cross_shard) {
            cross.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
    SweepPoint point;
    point.shards = shards;
    point.seconds = timer.elapsed_seconds();
    point.committed = committed.load();
    point.failed = failed.load();
    point.cross_shard = cross.load();
    points.push_back(point);
  }

  util::TablePrinter table({"Shards", "Committed", "Failed", "Cross-shard",
                            "Seconds", "Stacks/s", "Speedup"});
  const double base = points.empty() ? 0.0 : points.front().throughput();
  for (const SweepPoint& point : points) {
    table.add_row(
        {util::format("%u", point.shards),
         util::format("%llu", static_cast<unsigned long long>(point.committed)),
         util::format("%llu", static_cast<unsigned long long>(point.failed)),
         util::format("%llu",
                      static_cast<unsigned long long>(point.cross_shard)),
         util::format("%.3f", point.seconds),
         util::format("%.1f", point.throughput()),
         util::format("%.2fx", base > 0.0 ? point.throughput() / base : 0.0)});
  }
  bench::emit(table, args,
              util::format("router throughput vs shard count, %zu hosts, %zu "
                           "client threads",
                           datacenter.host_count(), threads));
  bench::emit_metrics(args);

  bool ok = true;
  // Sharding must not lose placements, at any scale: the 1-shard run is
  // the first point of the sweep.
  for (const SweepPoint& point : points) {
    if (point.committed < points.front().committed) {
      std::cout << "FAIL: " << point.shards << "-shard router committed "
                << point.committed << " stacks, fewer than the 1-shard "
                << points.front().committed << "\n";
      ok = false;
    }
  }
  // The headline claim, asserted only at full scale: small smoke clusters
  // finish requests too fast for the sharding win to dominate thread and
  // snapshot overheads, so asserting there would gate on noise.
  double tp4 = 0.0;
  for (const SweepPoint& point : points) {
    if (point.shards == 4) tp4 = point.throughput();
  }
  if (!smoke && base > 0.0 && tp4 > 0.0 && tp4 < 3.0 * base) {
    std::cout << "FAIL: 4-shard throughput " << tp4
              << " stacks/s is below 3x the 1-shard " << base
              << " stacks/s\n";
    ok = false;
  }
  return ok ? 0 : 1;
}
