// Streaming admission under Poisson load: the repo's first
// latency-under-load number.
//
// Drives core::StreamingService with Poisson arrivals at increasing offered
// rates over generated multi-tier stacks.  The serial placement rate of the
// same workload is measured first and the offered rates are set as
// fractions/multiples of it, so the sweep brackets the saturation knee on
// any machine.  Each rate point reports the p50/p99 admission wait (submit
// to dispatcher pickup), commit/expiry/rejection counts, and achieved
// throughput; the sweep ends with a max-sustainable-QPS estimate — the
// highest offered rate whose miss fraction (expired + rejected + failed)
// stayed under 1%.
#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <thread>

#include "core/stream.h"
#include "util/timer.h"

namespace {

/// Percentile of an unsorted sample set (nearest-rank); 0 when empty.
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank > 0 ? rank - 1 : 0)];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ostro;
  util::ArgParser args("bench_stream",
                       "streaming admission Poisson arrival-rate sweep");
  bench::add_common_flags(args);
  args.add_int("requests", 160, "requests per rate point");
  args.add_int("stack-vms", 5, "VMs per stack");
  args.add_int("racks", 12, "data-center racks (8 hosts each)");
  args.add_int("batch", 8, "stream_max_batch (snapshot-shared batching)");
  args.add_int("dispatchers", 2, "stream_dispatch_threads");
  args.add_double("admission-deadline", 1.0,
                  "per-request admission deadline (seconds; 0 = none)");
  args.add_flag("smoke", "tiny sizes for CI (overrides --requests/--racks)");
  if (!args.parse(argc, argv)) return 0;
  bench::apply_metrics_flags(args);

  const bool smoke = args.flag("smoke");
  const int total_requests =
      smoke ? 24 : static_cast<int>(args.get_int("requests"));
  const int stack_vms = static_cast<int>(args.get_int("stack-vms"));
  const int racks = smoke ? 4 : static_cast<int>(args.get_int("racks"));
  const double admission_deadline = args.get_double("admission-deadline");
  const auto datacenter = sim::make_sim_datacenter(racks);

  util::Rng rng(static_cast<std::uint64_t>(args.get_int("seed")));
  std::vector<topo::AppTopology> stacks;
  stacks.reserve(static_cast<std::size_t>(total_requests));
  for (int i = 0; i < total_requests; ++i) {
    stacks.push_back(sim::make_multitier(
        stack_vms, sim::RequirementMix::kHomogeneous, rng));
  }

  core::SearchConfig config;
  config.threads = 1;  // dispatcher concurrency is the subject under test
  config.stream_max_batch =
      static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int("batch")));
  config.stream_dispatch_threads = static_cast<std::size_t>(
      std::max<std::int64_t>(1, args.get_int("dispatchers")));
  config.stream_queue_capacity =
      static_cast<std::size_t>(total_requests) + 1;

  // Baseline: serial placement rate of the same workload, which anchors the
  // offered-rate ladder (0.25x .. 2x serial keeps the knee in frame).
  double serial_rate = 0.0;
  {
    const int probe = std::min(total_requests, smoke ? 8 : 32);
    core::OstroScheduler scheduler(datacenter, config);
    core::PlacementService service(scheduler);
    util::WallTimer timer;
    for (int i = 0; i < probe; ++i) {
      (void)service.place(stacks[static_cast<std::size_t>(i)],
                          core::Algorithm::kEg, config);
    }
    serial_rate = static_cast<double>(probe) / timer.elapsed_seconds();
  }
  const std::vector<double> rate_factors = {0.25, 0.5, 1.0, 2.0};

  util::TablePrinter table({"Offered QPS", "Achieved QPS", "p50 wait (ms)",
                            "p99 wait (ms)", "Committed", "Expired",
                            "Failed", "Spills"});
  double max_sustainable_qps = 0.0;
  for (const double factor : rate_factors) {
    const double offered_qps = serial_rate * factor;
    core::OstroScheduler scheduler(datacenter, config);
    core::PlacementService service(scheduler);
    core::StreamingService stream(service, config);

    // Poisson arrivals: exponential inter-arrival gaps at the offered
    // rate, submitted on schedule from this thread.
    util::Rng arrivals(rng.fork(static_cast<std::uint64_t>(factor * 1000)));
    std::vector<std::future<core::StreamResult>> futures;
    futures.reserve(stacks.size());
    const auto start = std::chrono::steady_clock::now();
    double next_arrival = 0.0;
    util::WallTimer timer;
    for (const topo::AppTopology& stack : stacks) {
      next_arrival += -std::log(1.0 - arrivals.uniform01()) / offered_qps;
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(next_arrival)));
      core::StreamRequest request;
      request.topology = stack;
      request.algorithm = core::Algorithm::kEg;
      request.deadline_seconds = admission_deadline;
      futures.push_back(stream.submit(std::move(request)));
    }
    stream.close();
    stream.shutdown();
    const double wall = timer.elapsed_seconds();

    int committed = 0, expired = 0, failed = 0, rejected = 0;
    std::uint64_t spills = 0;
    std::vector<double> waits;
    waits.reserve(futures.size());
    for (std::future<core::StreamResult>& future : futures) {
      const core::StreamResult result = future.get();
      switch (result.status) {
        case core::StreamStatus::kCommitted: ++committed; break;
        case core::StreamStatus::kExpired: ++expired; break;
        case core::StreamStatus::kFailed: ++failed; break;
        case core::StreamStatus::kRejected: ++rejected; break;
      }
      if (result.status != core::StreamStatus::kRejected) {
        waits.push_back(result.wait_seconds);
      }
      spills += result.spills;
    }
    const double p50 = percentile(waits, 0.50);
    const double p99 = percentile(waits, 0.99);
    const double achieved_qps = static_cast<double>(committed) / wall;
    const double misses =
        static_cast<double>(expired + failed + rejected) /
        static_cast<double>(total_requests);
    if (misses <= 0.01 && offered_qps > max_sustainable_qps) {
      max_sustainable_qps = offered_qps;
    }

    table.add_row({util::format("%.1f", offered_qps),
                   util::format("%.1f", achieved_qps),
                   util::format("%.2f", p50 * 1e3),
                   util::format("%.2f", p99 * 1e3),
                   util::format("%d/%d", committed, total_requests),
                   util::format("%d", expired), util::format("%d", failed),
                   util::format("%llu",
                                static_cast<unsigned long long>(spills))});
  }
  bench::emit(table, args, "streaming admission Poisson sweep");
  std::cout << "max sustainable QPS (miss fraction <= 1%): "
            << util::format("%.1f", max_sustainable_qps) << "\n";
  bench::emit_metrics(args);
  return 0;
}
