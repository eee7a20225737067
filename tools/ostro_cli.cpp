// ostro — command-line front end for the placement engine.
//
// Usage:
//   ostro place    --datacenter dc.json --template app.json
//                  [--occupancy occ.json] [--algorithm eg|egc|egbw|ba|dba]
//                  [--deadline SECONDS] [--theta-bw X --theta-c Y]
//                  [--out placement.json] [--annotated annotated.json]
//                  [--commit-out occ2.json] [--service-threads N]
//   ostro serve    --datacenter dc.json [--occupancy occ.json]
//                  [--in FIFO|-] [--results FILE|-]
//                  [--stream-queue-capacity N] [--stream-batch K]
//                  [--stream-dispatch-threads D]
//   ostro validate --datacenter dc.json --template app.json
//                  --placement placement.json [--occupancy occ.json]
//   ostro report   --datacenter dc.json [--occupancy occ.json]
//
// All files are JSON: the data-center grammar lives in
// src/datacenter/dc_io.h, the QoS-enhanced Heat template grammar in
// src/openstack/heat_template.h, placements in src/core/placement_io.h.
// `serve` is the daemon mode: newline-delimited JSON placement requests on
// stdin (or a FIFO), NDJSON results out — see cmd_serve below.
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <mutex>
#include <sstream>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "core/placement_io.h"
#include "core/scheduler.h"
#include "core/service.h"
#include "core/shard_router.h"
#include "core/stream.h"
#include "core/verify.h"
#include "datacenter/dc_io.h"
#include "datacenter/dot.h"
#include "datacenter/report.h"
#include "net/reservation.h"
#include "openstack/heat_template.h"
#include "util/args.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace {

using namespace ostro;

std::string read_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

/// Largest template file `ostro serve` reads.  examples/data/three_tier.json
/// spends 300 bytes per VM, pipes and zones included, so this admits some
/// 200,000 VMs.
constexpr std::uintmax_t kMaxTemplateBytes = std::uintmax_t{64} << 20;

/// Reads a serve request's "template" file.  read_file reads to end of
/// file, so a device such as /dev/zero would grow one string until memory
/// runs out, a FIFO would block the reader so that no later request is
/// read, and a huge or sparse file would be read whole.  Only a regular
/// file of at most kMaxTemplateBytes is opened, and no more than the size
/// it had when checked is read.  A path swapped for a FIFO between the
/// check and the open still blocks: serve trusts the directories its
/// templates live in.
std::string read_template_file(const std::string& path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::file_status status = fs::status(path, ec);
  if (ec) throw std::runtime_error("cannot open " + path + ": " + ec.message());
  if (!fs::is_regular_file(status)) {
    throw std::runtime_error("template " + path + " is not a regular file");
  }
  const std::uintmax_t size = fs::file_size(path, ec);
  if (ec) throw std::runtime_error("cannot open " + path + ": " + ec.message());
  if (size > kMaxTemplateBytes) {
    throw std::runtime_error("template " + path + " has " +
                             std::to_string(size) + " bytes, over the " +
                             std::to_string(kMaxTemplateBytes) + " limit");
  }
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("cannot open " + path);
  std::string text(static_cast<std::size_t>(size), '\0');
  file.read(text.data(), static_cast<std::streamsize>(size));
  text.resize(static_cast<std::size_t>(file.gcount()));
  return text;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("cannot write " + path);
  file << content << '\n';
}

dc::Occupancy load_occupancy(const dc::DataCenter& datacenter,
                             const std::string& path) {
  if (path.empty()) return dc::Occupancy(datacenter);
  return dc::occupancy_from_text(datacenter, read_file(path));
}

[[nodiscard]] bool parse_on_off(const std::string& value, const char* flag) {
  if (value == "on") return true;
  if (value == "off") return false;
  throw std::invalid_argument(std::string("--") + flag +
                              " must be on|off, got " + value);
}

/// The search flags `place` and `serve` share: --theta-bw, --theta-c,
/// --deadline and --use-prune-labels.  Every other field keeps its default.
[[nodiscard]] core::SearchConfig search_config_from_flags(
    const util::ArgParser& args) {
  core::SearchConfig config;
  config.theta_bw = args.get_double("theta-bw");
  config.theta_c = args.get_double("theta-c");
  config.deadline_seconds = args.get_double("deadline");
  config.use_prune_labels =
      parse_on_off(args.get_string("use-prune-labels"), "use-prune-labels");
  return config;
}

/// --service-threads N: places N copies of the stack concurrently through
/// core::PlacementService — a smoke/demo mode for the optimistic
/// snapshot/plan/validate-commit protocol.  Reports per-request outcomes
/// plus the conflict/retry totals; --commit-out captures the occupancy
/// after every committed stack.
int cmd_place_service(util::ArgParser& args, int threads) {
  const auto datacenter =
      dc::datacenter_from_text(read_file(args.get_string("datacenter")));
  const auto occupancy =
      load_occupancy(datacenter, args.get_string("occupancy"));
  const auto parsed =
      os::HeatTemplate::parse_text(read_file(args.get_string("template")));

  const core::SearchConfig config = search_config_from_flags(args);
  const auto algorithm = core::parse_algorithm(args.get_string("algorithm"));

  core::OstroScheduler scheduler(datacenter, config);
  scheduler.occupancy() = occupancy;
  core::PlacementService service(scheduler);

  std::vector<core::ServiceResult> results(
      static_cast<std::size_t>(threads));
  // run_workers (not bare std::thread): a place() exception propagates to
  // main's handler after every worker joined instead of std::terminate.
  util::run_workers(static_cast<std::size_t>(threads), [&](std::size_t t) {
    results[t] = service.place(parsed.topology, algorithm, config);
  });

  int committed = 0;
  std::uint32_t conflicts = 0, retries = 0;
  for (int t = 0; t < threads; ++t) {
    const core::ServiceResult& result =
        results[static_cast<std::size_t>(t)];
    conflicts += result.conflicts;
    retries += result.retries;
    if (result.placement.committed) {
      ++committed;
    } else {
      std::cerr << "request " << t
                << " not committed: " << result.placement.failure_reason
                << "\n";
    }
  }
  std::cout << "service placed " << committed << "/" << threads
            << " concurrent stacks with " << core::to_string(algorithm)
            << ": " << conflicts << " commit conflicts, " << retries
            << " replans\n";
  if (!args.get_string("commit-out").empty()) {
    write_file(args.get_string("commit-out"),
               dc::occupancy_to_json(scheduler.occupancy()).pretty());
  }
  return committed > 0 ? 0 : 2;
}

/// `place --shards N --service-threads T` — the sharded front end.  Routes
/// T concurrent copies of the stack through a core::ShardRouter over an
/// N-shard partition of the cluster; reports committed/cross-shard counts
/// and, with --commit-out, the stitched global occupancy.  Sharded mode
/// always starts from an idle cluster: shard occupancies are internal, so a
/// pre-loaded --occupancy snapshot cannot be decomposed onto them.
int cmd_place_shards(util::ArgParser& args, int threads,
                     std::uint32_t shards) {
  if (!args.get_string("occupancy").empty()) {
    throw std::runtime_error(
        "--shards > 1 starts from an idle cluster and cannot load an "
        "--occupancy snapshot");
  }
  const auto datacenter =
      dc::datacenter_from_text(read_file(args.get_string("datacenter")));
  const auto parsed =
      os::HeatTemplate::parse_text(read_file(args.get_string("template")));
  const auto topology =
      std::make_shared<const topo::AppTopology>(parsed.topology);

  const core::SearchConfig config = search_config_from_flags(args);
  const auto algorithm = core::parse_algorithm(args.get_string("algorithm"));

  core::ShardConfig shard_config;
  shard_config.shards = shards;
  core::ShardRouter router(datacenter, shard_config, config);

  std::vector<core::ShardRouter::Result> results(
      static_cast<std::size_t>(threads));
  util::run_workers(static_cast<std::size_t>(threads), [&](std::size_t t) {
    results[t] = router.place(topology, algorithm, config);
  });

  int committed = 0;
  int cross_shard = 0;
  std::uint32_t conflicts = 0, retries = 0;
  for (int t = 0; t < threads; ++t) {
    const core::ShardRouter::Result& result =
        results[static_cast<std::size_t>(t)];
    conflicts += result.service.conflicts;
    retries += result.service.retries;
    if (result.service.placement.committed) {
      ++committed;
      if (result.cross_shard) ++cross_shard;
    } else {
      std::cerr << "request " << t << " not committed: "
                << result.service.placement.failure_reason << "\n";
    }
  }
  std::cout << "router placed " << committed << "/" << threads
            << " concurrent stacks across " << shards << " shards with "
            << core::to_string(algorithm) << ": " << cross_shard
            << " cross-shard, " << conflicts << " commit conflicts, "
            << retries << " replans\n";
  if (!args.get_string("commit-out").empty()) {
    write_file(args.get_string("commit-out"),
               dc::occupancy_to_json(router.stitched_snapshot()).pretty());
  }
  return committed > 0 ? 0 : 2;
}

int cmd_place(util::ArgParser& args) {
  const int service_threads =
      static_cast<int>(args.get_int("service-threads"));
  // Reject negatives instead of silently falling through to the serial
  // path: "--service-threads -2" is a mistake, not a mode selection.
  if (service_threads < 0) {
    throw std::invalid_argument("--service-threads must be >= 0, got " +
                                std::to_string(service_threads));
  }
  const std::int64_t shards = args.get_int("shards");
  if (shards < 1) {
    throw std::invalid_argument("--shards must be >= 1, got " +
                                std::to_string(shards));
  }
  if (shards > 1) {
    if (service_threads == 0) {
      throw std::invalid_argument(
          "--shards > 1 requires --service-threads > 0 (the sharded front "
          "end is a concurrent-service mode)");
    }
    return cmd_place_shards(args, service_threads,
                            static_cast<std::uint32_t>(shards));
  }
  if (service_threads > 0) return cmd_place_service(args, service_threads);
  const auto datacenter =
      dc::datacenter_from_text(read_file(args.get_string("datacenter")));
  const auto occupancy =
      load_occupancy(datacenter, args.get_string("occupancy"));
  const auto parsed =
      os::HeatTemplate::parse_text(read_file(args.get_string("template")));

  const core::SearchConfig config = search_config_from_flags(args);
  const auto algorithm = core::parse_algorithm(args.get_string("algorithm"));

  const core::Placement placement = core::place_topology(
      occupancy, parsed.topology, algorithm, config, nullptr, nullptr);
  if (placement.stats.truncated) {
    std::cerr << "search truncated by "
              << (placement.stats.hit_open_limit
                      ? "the open-queue limit (max_open_paths = " +
                            std::to_string(config.max_open_paths) + ")"
                      : "the expansion cap (max_expansions = " +
                            std::to_string(config.max_expansions) + ")")
              << "\n";
  }
  if (!placement.feasible) {
    std::cerr << "no feasible placement: " << placement.failure_reason
              << "\n";
    return 2;
  }
  std::cout << "placed " << parsed.topology.node_count() << " nodes with "
            << core::to_string(algorithm) << ": utility "
            << placement.utility << ", "
            << placement.reserved_bandwidth_mbps << " Mbps reserved, "
            << placement.new_active_hosts << " newly active hosts"
            << (placement.bandwidth_overcommitted
                    ? " (WARNING: overcommits link bandwidth)"
                    : "")
            << "\n";
  const std::string placement_text =
      core::placement_to_text(placement, parsed.topology, datacenter);
  if (args.get_string("out").empty()) {
    std::cout << placement_text << "\n";
  } else {
    write_file(args.get_string("out"), placement_text);
  }
  if (!args.get_string("annotated").empty()) {
    const auto document =
        util::Json::parse(read_file(args.get_string("template")));
    write_file(args.get_string("annotated"),
               os::annotate_with_placement(document, parsed,
                                           placement.assignment, datacenter)
                   .pretty());
  }
  if (!args.get_string("dot").empty()) {
    write_file(args.get_string("dot"),
               dc::placement_to_dot(parsed.topology, placement.assignment,
                                    datacenter));
  }
  if (!args.get_string("commit-out").empty()) {
    if (placement.bandwidth_overcommitted) {
      std::cerr << "refusing to commit an overcommitted placement\n";
      return 2;
    }
    dc::Occupancy committed = occupancy;
    net::commit_placement(committed, parsed.topology, placement.assignment);
    write_file(args.get_string("commit-out"),
               dc::occupancy_to_json(committed).pretty());
  }
  return 0;
}

/// `ostro serve` — the long-running daemon mode.  Reads newline-delimited
/// JSON placement requests from --in (a path, typically a FIFO; "-" =
/// stdin) and writes one NDJSON result line per request to --results in
/// submission order.  Request grammar:
///
///   {"id": "r1", "template": "stack.json"}            // path form
///   {"id": "r2", "stack": { ...heat template... },    // inline form
///    "algorithm": "dba", "priority": "high", "deadline": 0.25}
///
/// "algorithm" defaults to --algorithm, "priority" (low|normal|high) to
/// normal, "deadline" is the per-request ADMISSION deadline in seconds
/// (how long the request may wait queued; --deadline stays the DBA*
/// search deadline).  A line reading "quit" (or EOF) ends the session;
/// queued requests still drain before exit.
int cmd_serve(util::ArgParser& args) {
  const auto datacenter =
      dc::datacenter_from_text(read_file(args.get_string("datacenter")));
  const auto occupancy =
      load_occupancy(datacenter, args.get_string("occupancy"));

  core::SearchConfig config = search_config_from_flags(args);
  const auto default_algorithm =
      core::parse_algorithm(args.get_string("algorithm"));

  // Negative or zero stream knobs are argument errors, not silent modes
  // (the --service-threads lesson applied to the new flags).
  const auto stream_knob = [&](const char* name) {
    const std::int64_t value = args.get_int(name);
    if (value <= 0) {
      throw std::invalid_argument(std::string("--") + name +
                                  " must be >= 1, got " +
                                  std::to_string(value));
    }
    return static_cast<std::size_t>(value);
  };
  config.stream_queue_capacity = stream_knob("stream-queue-capacity");
  config.stream_max_batch = stream_knob("stream-batch");
  config.stream_dispatch_threads = stream_knob("stream-dispatch-threads");

  core::OstroScheduler scheduler(datacenter, config);
  scheduler.occupancy() = occupancy;
  core::PlacementService service(scheduler);
  core::StreamingService stream(service, config);

  std::ifstream in_file;
  std::istream* in = &std::cin;
  if (args.get_string("in") != "-") {
    in_file.open(args.get_string("in"));
    if (!in_file) {
      throw std::runtime_error("cannot open " + args.get_string("in"));
    }
    in = &in_file;
  }
  std::ofstream out_file;
  std::ostream* out = &std::cout;
  if (args.get_string("results") != "-") {
    out_file.open(args.get_string("results"));
    if (!out_file) {
      throw std::runtime_error("cannot write " + args.get_string("results"));
    }
    out = &out_file;
  }

  // The reader (this thread) submits requests; the writer thread resolves
  // futures in submission order and streams result lines out, so results
  // flow back while stdin is still open.
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<std::pair<std::string, std::future<core::StreamResult>>>
      inflight;
  bool input_done = false;
  struct Tally {
    std::uint64_t committed = 0, failed = 0, expired = 0, rejected = 0,
                  errors = 0;
  } tally;

  std::thread writer([&] {
    for (;;) {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return !inflight.empty() || input_done; });
      if (inflight.empty()) return;
      auto item = std::move(inflight.front());
      inflight.pop_front();
      lock.unlock();

      util::JsonObject response;
      response["id"] = item.first;
      try {
        const core::StreamResult result = item.second.get();
        response["status"] = core::to_string(result.status);
        response["wait_seconds"] = result.wait_seconds;
        response["batch_size"] = static_cast<int>(result.batch_size);
        response["spills"] = static_cast<int>(result.spills);
        response["conflicts"] =
            static_cast<int>(result.service.conflicts);
        response["retries"] = static_cast<int>(result.service.retries);
        const core::Placement& placement = result.service.placement;
        response["truncated"] = placement.stats.truncated;
        response["hit_open_limit"] = placement.stats.hit_open_limit;
        if (result.status == core::StreamStatus::kCommitted) {
          response["utility"] = placement.utility;
          response["reserved_bandwidth_mbps"] =
              placement.reserved_bandwidth_mbps;
          response["new_active_hosts"] = placement.new_active_hosts;
          response["commit_epoch"] =
              static_cast<std::int64_t>(result.service.commit_epoch);
          ++tally.committed;
        } else {
          if (!placement.failure_reason.empty()) {
            response["failure"] = placement.failure_reason;
          }
          switch (result.status) {
            case core::StreamStatus::kFailed: ++tally.failed; break;
            case core::StreamStatus::kExpired: ++tally.expired; break;
            case core::StreamStatus::kRejected: ++tally.rejected; break;
            case core::StreamStatus::kCommitted: break;
          }
        }
      } catch (const std::exception& e) {
        response["status"] = "error";
        response["failure"] = e.what();
        ++tally.errors;
      }
      (*out) << util::Json(std::move(response)).dump() << '\n'
             << std::flush;
    }
  });

  std::string line;
  std::uint64_t next_id = 0;
  while (std::getline(*in, line)) {
    const std::string_view trimmed = util::trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    if (trimmed == "quit" || trimmed == "exit") break;

    std::string id = "req-" + std::to_string(next_id);
    std::future<core::StreamResult> future;
    try {
      const util::Json doc = util::Json::parse(trimmed);
      id = doc.string_or("id", id);
      os::HeatTemplate parsed;
      if (doc.contains("stack")) {
        parsed = os::HeatTemplate::parse(doc.at("stack"));
      } else if (doc.contains("template")) {
        parsed = os::HeatTemplate::parse_text(
            read_template_file(doc.at("template").as_string()));
      } else {
        throw std::runtime_error(
            "request needs \"template\" (path) or \"stack\" (inline)");
      }
      core::StreamRequest request;
      request.topology = parsed.topology;
      request.algorithm = doc.contains("algorithm")
                              ? core::parse_algorithm(
                                    doc.at("algorithm").as_string())
                              : default_algorithm;
      request.priority =
          core::parse_stream_priority(doc.string_or("priority", "normal"));
      request.deadline_seconds = doc.number_or("deadline", 0.0);
      future = stream.submit(std::move(request));
    } catch (const std::exception& e) {
      // A malformed request fails that request, not the daemon.
      std::promise<core::StreamResult> bad;
      core::StreamResult result;
      result.status = core::StreamStatus::kRejected;
      result.service.placement.failure_reason =
          std::string("bad request: ") + e.what();
      bad.set_value(std::move(result));
      future = bad.get_future();
    }
    ++next_id;
    {
      const std::lock_guard<std::mutex> lock(mutex);
      inflight.emplace_back(std::move(id), std::move(future));
    }
    cv.notify_one();
  }

  stream.close();  // no new admissions; dispatchers drain the queue
  {
    const std::lock_guard<std::mutex> lock(mutex);
    input_done = true;
  }
  cv.notify_all();
  writer.join();
  stream.shutdown();

  std::cerr << "served " << next_id << " request(s): " << tally.committed
            << " committed, " << tally.failed << " failed, " << tally.expired
            << " expired, " << tally.rejected << " rejected, " << tally.errors
            << " errors\n";
  return tally.errors == 0 ? 0 : 2;
}

int cmd_validate(util::ArgParser& args) {
  const auto datacenter =
      dc::datacenter_from_text(read_file(args.get_string("datacenter")));
  const auto occupancy =
      load_occupancy(datacenter, args.get_string("occupancy"));
  const auto parsed =
      os::HeatTemplate::parse_text(read_file(args.get_string("template")));
  try {
    const core::Placement placement = core::placement_from_text(
        read_file(args.get_string("placement")), parsed.topology, occupancy,
        core::SearchConfig{});
    std::cout << "placement is valid: utility " << placement.utility << ", "
              << placement.reserved_bandwidth_mbps << " Mbps reserved\n";
    return 0;
  } catch (const core::PlacementIoError& e) {
    std::cerr << "placement is INVALID: " << e.what() << "\n";
    return 2;
  }
}

/// Dumps the metrics registry after the command ran: to a file with
/// --metrics-out, to stderr with --metrics (stderr keeps placement JSON on
/// stdout pipeable).
void dump_metrics(const util::ArgParser& args) {
  const std::string json =
      util::metrics::Registry::global().to_json().pretty();
  if (!args.get_string("metrics-out").empty()) {
    write_file(args.get_string("metrics-out"), json);
  } else if (args.flag("metrics")) {
    std::cerr << json << "\n";
  }
}

int cmd_report(util::ArgParser& args) {
  const auto datacenter =
      dc::datacenter_from_text(read_file(args.get_string("datacenter")));
  const auto occupancy =
      load_occupancy(datacenter, args.get_string("occupancy"));
  std::cout << dc::utilization_report(occupancy).to_string();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: ostro <place|serve|validate|report> [options]\n"
                 "       ostro <command> --help\n";
    return 1;
  }
  const std::string command = argv[1];
  util::ArgParser args("ostro " + command,
                       "Ostro placement engine command-line front end");
  args.add_string("datacenter", "", "data-center JSON (required)");
  args.add_string("occupancy", "", "occupancy snapshot JSON (optional)");
  args.add_flag("metrics",
                "dump the metrics registry (JSON) to stderr after the run");
  args.add_string("metrics-out", "",
                  "write the metrics registry JSON to this file instead");
  if (command == "place" || command == "validate") {
    args.add_string("template", "", "QoS-enhanced Heat template JSON");
  }
  if (command == "place" || command == "serve") {
    args.add_string("algorithm", "eg", "eg | egc | egbw | ba | dba");
    args.add_string("use-prune-labels", "on",
                    "precomputed subtree pruning labels for the admissible "
                    "bounds: on (bit-identical, fewer expansions) | off "
                    "(reference bounds)");
    args.add_double("deadline", 0.0, "DBA* deadline (seconds)");
    args.add_double("theta-bw", 0.6, "bandwidth objective weight");
    args.add_double("theta-c", 0.4, "host-count objective weight");
  }
  if (command == "place") {
    args.add_string("out", "", "write placement JSON here (default stdout)");
    args.add_string("annotated", "", "write annotated template here");
    args.add_string("dot", "", "write a Graphviz rendering of the placement");
    args.add_string("commit-out", "", "write post-commit occupancy here");
    args.add_int("service-threads", 0,
                 "place this many copies of the stack concurrently through "
                 "the placement service (0 = classic single placement)");
    args.add_int("shards", 1,
                 "partition the data center into this many pod/site shards "
                 "and route placements through the sharded front end "
                 "(requires --service-threads > 0 and an empty starting "
                 "occupancy; 1 = unsharded)");
  }
  if (command == "serve") {
    args.add_string("in", "-",
                    "NDJSON request source: a path (FIFO or file) or - for "
                    "stdin");
    args.add_string("results", "-",
                    "NDJSON result sink: a path or - for stdout");
    args.add_int("stream-queue-capacity", 1024,
                 "bounded admission-queue capacity (submits beyond it are "
                 "rejected)");
    args.add_int("stream-batch", 8,
                 "requests batched against one shared occupancy snapshot");
    args.add_int("stream-dispatch-threads", 1,
                 "dispatcher threads draining the admission queue");
  }
  if (command == "validate") {
    args.add_string("placement", "", "placement JSON to validate");
  }

  try {
    if (!args.parse(argc - 1, argv + 1)) return 0;
    if (args.get_string("datacenter").empty()) {
      throw std::runtime_error("--datacenter is required");
    }
    int status = 1;
    if (command == "place") {
      status = cmd_place(args);
    } else if (command == "serve") {
      status = cmd_serve(args);
    } else if (command == "validate") {
      status = cmd_validate(args);
    } else if (command == "report") {
      status = cmd_report(args);
    } else {
      std::cerr << "unknown command: " << command << "\n";
      return 1;
    }
    dump_metrics(args);
    return status;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
