// End-to-end placement benchmark over the public API of the placement core
// (core::ShardRouter, core::PlacementService, core::OstroScheduler).
//
//   perfbench --workload NAME --seed N --seconds T --trace 0|1
//             [--trace-out FILE]
//
// Workloads (PREDICTIONS.md records why each was chosen and which metric
// each later change should move on it):
//
//   router_burst  25,600-host idle WAN fleet behind a 1-shard ShardRouter;
//                 4 closed-loop clients place 10-VM multi-tier stacks with
//                 EG.
//   search_dive   2,400-host Table IV data center; one client places
//                 25-50-VM multi-tier stacks with DBA* at a fixed expansion
//                 budget, keeping at most 64 of them live.
//   churn         2,432-host WAN fleet; one client interleaves EG
//                 placements of 10-VM stacks with releases of random live
//                 stacks around a steady population.
//
// Every plan runs with SearchConfig::threads = 1.  The timing metrics leave
// out a serial client's requests and the set-ups that ran while their CPU
// was slowed by other tenants of the host (quiet_flags).
//
// Every input (topologies, churn event sequence, preload) is generated from
// --seed before the clock starts.  A run measures for --seconds, then
// replays every committed placement and release onto a fresh
// OstroScheduler in commit order, verifying each placement against the
// replayed state before it and requiring the final occupancy to equal the
// router's stitched snapshot.  The serial workloads also re-run their first
// requests on a fresh fleet and require the same assignment digest and work
// counts (the determinism anchor).
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same phase
// untraced, then again through the service's step-wise protocol with spans
// around each call into a layer, replays sampled EG steps through the
// candidate / estimate / bandwidth_ok functions, and prints the per-layer
// metrics.  The last stdout line is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// The exit code is nonzero when a correctness check fails.

#include <algorithm>
#include <barrier>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <sched.h>

#include "core/candidates.h"
#include "core/estimator.h"
#include "core/greedy.h"
#include "core/objective.h"
#include "core/partial.h"
#include "core/service.h"
#include "core/shard_router.h"
#include "core/verify.h"
#include "net/reservation.h"
#include "sim/clusters.h"
#include "sim/workloads.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace ostro;
using Clock = std::chrono::steady_clock;
using TopologyPtr = std::shared_ptr<const topo::AppTopology>;

[[nodiscard]] double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ------------------------------------------------------------- workloads

enum class Kind : std::uint8_t { kRouterBurst, kSearchDive, kChurn };

struct Workload {
  Kind kind = Kind::kRouterBurst;
  std::string name;
  std::size_t clients = 1;
  core::Algorithm algorithm = core::Algorithm::kEg;
  core::SearchConfig config;
  /// Stacks each client places before the clock starts (fills the
  /// thread-local search arenas; churn's warm-up is its initial population).
  std::size_t warmup_stacks = 0;
  /// Serial workloads: timed requests covered by the determinism anchor.
  std::size_t anchor_requests = 0;
};

constexpr std::size_t kBurstClients = 4;
constexpr std::size_t kBurstPool = 1024;
constexpr std::size_t kDivePool = 256;
constexpr std::size_t kDiveExpansions = 32;
constexpr std::size_t kDiveBeam = 8;
constexpr std::size_t kDiveWindow = 64;
constexpr std::size_t kChurnPool = 512;
constexpr std::size_t kChurnPopulation = 160;
constexpr std::size_t kChurnEvents = std::size_t{1} << 17;
/// A stack whose request exhausted the conflict ladder is resubmitted until
/// it commits; only a stack still losing after this many requests counts
/// as failed.
constexpr std::uint32_t kMaxSubmits = 1000;
constexpr int kSetupSlots = 11;
constexpr int kSetupsPerSlot = 3;
/// Serial workloads run at least this many timed requests, so the p90
/// latency has at least ten samples beyond it.
constexpr std::size_t kMinSerialRequests = 100;
/// Committed traced requests whose EG steps the layer replay re-runs.
constexpr std::size_t kReplaySamples = 12;

[[nodiscard]] std::optional<Workload> find_workload(const std::string& name) {
  Workload w;
  w.name = name;
  w.config.threads = 1;
  if (name == "router_burst") {
    w.kind = Kind::kRouterBurst;
    w.clients = kBurstClients;
    w.warmup_stacks = 1;
  } else if (name == "search_dive") {
    w.kind = Kind::kSearchDive;
    w.algorithm = core::Algorithm::kDbaStar;
    w.config.deadline_seconds = 0.0;
    w.config.dba_beam_width = kDiveBeam;
    w.config.max_expansions = kDiveExpansions;
    w.warmup_stacks = 2;
    w.anchor_requests = 12;
  } else if (name == "churn") {
    w.kind = Kind::kChurn;
    w.warmup_stacks = kChurnPopulation;
    w.anchor_requests = 200;
  } else {
    return std::nullopt;
  }
  return w;
}

/// One pre-generated churn step: whether to release when the population is
/// between its bounds, and which live stack a release removes.
struct ChurnEvent {
  bool release = false;
  std::uint64_t pick = 0;
};

struct Inputs {
  std::vector<TopologyPtr> stacks;  ///< request stream, used cyclically
  std::vector<ChurnEvent> events;   ///< churn only, used cyclically
};

/// Independent random streams derived from the workload seed.
enum Stream : std::uint64_t { kStacksStream = 1, kEventsStream = 2, kPreloadStream = 3 };

[[nodiscard]] Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  Inputs in;
  util::Rng rng = util::Rng(seed).fork(kStacksStream);
  const auto multitier = [&rng](int vms) {
    return std::make_shared<const topo::AppTopology>(sim::make_multitier(
        vms, sim::RequirementMix::kHeterogeneous, rng));
  };
  switch (w.kind) {
    case Kind::kRouterBurst:
      for (std::size_t i = 0; i < kBurstPool; ++i) in.stacks.push_back(multitier(10));
      break;
    case Kind::kSearchDive: {
      // Every size from 25 to 50 VMs equally often, shuffled per block, so
      // each run of a given length sees the same mix of sizes.
      std::vector<int> sizes;
      while (in.stacks.size() < kDivePool) {
        if (sizes.empty()) {
          for (int vms = 25; vms <= 50; vms += 5) sizes.push_back(vms);
          rng.shuffle(sizes);
        }
        in.stacks.push_back(multitier(sizes.back()));
        sizes.pop_back();
      }
      break;
    }
    case Kind::kChurn: {
      for (std::size_t i = 0; i < kChurnPool; ++i) in.stacks.push_back(multitier(10));
      util::Rng events = util::Rng(seed).fork(kEventsStream);
      in.events.resize(kChurnEvents);
      for (ChurnEvent& e : in.events) {
        e.release = events.chance(0.5);
        e.pick = events.next();
      }
      break;
    }
  }
  return in;
}

// ----------------------------------------------------------------- fleet

/// The system under test: a data center behind a one-shard router.
struct Fleet {
  std::unique_ptr<dc::DataCenter> datacenter;
  std::unique_ptr<core::ShardRouter> router;  // destroyed before datacenter
};

[[nodiscard]] dc::DataCenter make_datacenter(Kind kind) {
  switch (kind) {
    case Kind::kRouterBurst: return sim::make_wan(4, 8, 50, 16);
    case Kind::kSearchDive: return sim::make_sim_datacenter(150, 16);
    case Kind::kChurn: return sim::make_wan(2, 4, 19, 16);
  }
  throw std::logic_error("unknown workload kind");
}

void apply_preload(const Workload& w, dc::Occupancy& occupancy, std::uint64_t seed) {
  if (w.kind != Kind::kSearchDive) return;
  util::Rng rng = util::Rng(seed).fork(kPreloadStream);
  sim::apply_sim_preload(occupancy, rng);
}

[[nodiscard]] Fleet build_fleet(const Workload& w, std::uint64_t seed) {
  Fleet fleet;
  fleet.datacenter = std::make_unique<dc::DataCenter>(make_datacenter(w.kind));
  core::ShardConfig shards;
  shards.shards = 1;
  shards.router_commit_log = true;
  fleet.router = std::make_unique<core::ShardRouter>(*fleet.datacenter, shards, w.config);
  auto writer = fleet.router->service(0).exclusive();
  apply_preload(w, writer.occupancy(), seed);
  return fleet;
}

// ------------------------------------------------------------ cpu spread

/// Moves the calling thread round-robin over the CPUs the process may use,
/// and restores its affinity when destroyed.  On a VM whose virtual CPUs
/// run at different speeds (one of four measured 45% slower), a serial run
/// would otherwise depend on which CPU the scheduler happened to pick;
/// rotating gives every run the same mix.  Threads created while a
/// rotation is active inherit its single-CPU mask, so the workloads run
/// with SearchConfig::threads = 1, whose pool worker stays idle.
class CpuRotation {
 public:
  static constexpr auto kPeriod = std::chrono::milliseconds(100);

  CpuRotation() {
    if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
    rotate();
  }
  ~CpuRotation() {
    if (!cpus_.empty()) (void)sched_setaffinity(0, sizeof original_, &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Moves on to the next CPU.
  void rotate() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    (void)sched_setaffinity(0, sizeof one, &one);
    due_ = Clock::now() + kPeriod;
  }
  /// Moves on once the current CPU has had its period.
  void tick() {
    if (Clock::now() >= due_) rotate();
  }
  /// Counts the moves so far: requests that start with the same value ran
  /// on the same CPU in one stretch.
  [[nodiscard]] std::uint64_t slot() const noexcept { return next_; }

 private:
  cpu_set_t original_{};
  std::vector<int> cpus_;
  std::size_t next_ = 0;
  Clock::time_point due_;
};

// --------------------------------------------------------------- tracing

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index in the same log; -1 for a root span
  std::uint64_t request = 0;
};

/// One thread's spans, kept in memory until the run ends.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  std::int32_t open(const char* name, std::uint64_t request) {
    const auto index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({name, now_ns(), 0, open_.empty() ? -1 : open_.back(), request});
    open_.push_back(index);
    return index;
  }
  void close(std::int32_t index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    open_.pop_back();
  }
  [[nodiscard]] double seconds(std::int32_t index) const {
    const Span& s = spans_[static_cast<std::size_t>(index)];
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

class SpanScope {
 public:
  SpanScope(SpanLog& log, const char* name, std::uint64_t request)
      : log_(log), index_(log.open(name, request)) {}
  ~SpanScope() { log_.close(index_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog& log_;
  std::int32_t index_;
};

// --------------------------------------------------------------- driving

/// Marks requests of clients that do not rotate over the CPUs.
constexpr std::uint64_t kNoSlot = std::numeric_limits<std::uint64_t>::max();

/// One placement request as the client saw it.
struct Sample {
  Clock::time_point start;
  std::uint64_t slot = kNoSlot;  ///< CpuRotation::slot() when it started
  double latency_s = 0.0;
  bool committed = false;
  double utility = 0.0;
  std::uint32_t conflicts = 0;
  std::uint32_t retries = 0;
  std::uint32_t shard_attempts = 0;
  std::uint32_t plans = 0;  ///< traced only: plans made, retries included
  std::size_t vms = 0;
  core::SearchStats stats;  ///< of the final plan
};

/// One committed mutation, for the serial replay.
struct Op {
  std::uint64_t order = 0;  ///< global (untraced) or service (traced) epoch
  bool release = false;
  TopologyPtr topology;
  net::Assignment assignment;
};

/// A committed traced request kept for the layer replay.
struct ReplayCase {
  std::uint64_t request = 0;
  dc::Occupancy snapshot;  ///< the state the committed plan ran against
  TopologyPtr topology;
  net::Assignment assignment;
};

/// Assignment digest and exact work counts over a serial run's first
/// requests: the bit-identity anchor later changes gate on.
struct Anchor {
  std::uint64_t digest = 14695981039346656037ULL;  // FNV-1a offset basis
  std::uint64_t requests = 0;
  std::uint64_t expansions = 0;
  std::uint64_t estimates = 0;
  std::uint64_t vms = 0;

  void mix(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (value >> (8 * i)) & 0xffU;
      digest *= 1099511628211ULL;
    }
  }
  void add(const Sample& s, const net::Assignment& assignment) {
    mix(s.committed ? 1 : 0);
    for (const dc::HostId host : assignment) mix(host);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &s.utility, sizeof bits);
    mix(bits);
    ++requests;
    expansions += s.stats.paths_expanded;
    estimates += s.stats.heuristic_calls;
    vms += s.vms;
  }
  bool operator==(const Anchor&) const = default;
};

struct ClientState {
  bool timed = false;  ///< false while warming up
  std::uint64_t slot = kNoSlot;  ///< serial clients: the current CPU slot
  std::vector<Sample> samples;
  std::uint64_t committed_total = 0;  ///< warm-up included
  std::uint64_t releases_total = 0;
  std::size_t operations = 0;  ///< timed stacks and releases
  std::size_t failed = 0;
  Clock::time_point end;
  Anchor anchor;
  std::uint64_t anchor_limit = 0;
  // Traced phase only.
  std::unique_ptr<SpanLog> log;
  std::vector<Op> ops;
  std::vector<ReplayCase> replays;
};

/// Issues requests and releases, untraced through ShardRouter::place /
/// release_stack, or traced through the shard service's step-wise protocol
/// (snapshot, plan, try_commit, replan on conflict) with a span per step.
class Requester {
 public:
  Requester(Fleet& fleet, const Workload& w, bool traced)
      : fleet_(fleet), w_(w), traced_(traced) {}

  /// Places one stack, resubmitting it while its request loses the
  /// conflict race.  Returns the committed stack id, or 0.
  core::StackId place_stack(ClientState& c, const TopologyPtr& topology) {
    if (c.timed) ++c.operations;
    for (std::uint32_t submit = 0; submit < kMaxSubmits; ++submit) {
      std::uint32_t conflicts = 0;
      const core::StackId id = request(c, topology, &conflicts);
      if (id != 0) return id;
      if (conflicts == 0) break;  // infeasible: resubmitting cannot help
    }
    if (c.timed) ++c.failed;
    return 0;
  }

  void release(ClientState& c, core::StackId id) {
    bool ok = false;
    if (!traced_) {
      ok = fleet_.router->release_stack(id);
    } else {
      core::DeployedStack released;
      std::uint64_t epoch = 0;
      {
        const SpanScope span(*c.log, "release", id);
        ok = fleet_.router->service(0).release_stack(registry_, id, true, &epoch, &released);
      }
      if (ok) c.ops.push_back({epoch, true, released.topology, released.assignment});
    }
    if (ok) ++c.releases_total;
    if (c.timed) {
      ++c.operations;
      if (!ok) ++c.failed;
    }
  }

 private:
  core::StackId request(ClientState& c, const TopologyPtr& topology,
                        std::uint32_t* conflicts) {
    Sample s;
    s.slot = c.slot;
    s.vms = topology->node_count();
    net::Assignment assignment;
    core::StackId id = 0;
    if (!traced_) {
      s.start = Clock::now();
      core::ShardRouter::Result r = fleet_.router->place(topology, w_.algorithm, w_.config);
      s.latency_s = seconds_between(s.start, Clock::now());
      const core::Placement& p = r.service.placement;
      s.committed = p.committed;
      s.utility = p.utility;
      s.conflicts = r.service.conflicts;
      s.retries = r.service.retries;
      s.shard_attempts = r.shard_attempts;
      s.stats = p.stats;
      if (p.committed) {
        id = r.stack_id;
        assignment = p.assignment;
      }
    } else {
      id = traced_request(c, topology, s, assignment);
    }
    *conflicts = s.conflicts;
    if (s.committed) ++c.committed_total;
    if (c.anchor.requests < c.anchor_limit) c.anchor.add(s, assignment);
    if (c.timed) c.samples.push_back(s);
    return id;
  }

  core::StackId traced_request(ClientState& c, const TopologyPtr& topology, Sample& s,
                               net::Assignment& assignment) {
    core::PlacementService& service = fleet_.router->service(0);
    SpanLog& log = *c.log;
    const std::uint64_t rid = next_request_.fetch_add(1, std::memory_order_relaxed);
    s.shard_attempts = 1;
    core::PlannedPlacement planned;
    std::optional<dc::Occupancy> snapshot;
    core::StackId id = 0;
    s.start = Clock::now();
    const std::int32_t root = log.open("request", rid);
    for (std::uint32_t attempt = 0;; ++attempt) {
      {
        const SpanScope span(log, "snapshot", rid);
        snapshot.emplace(service.snapshot());
      }
      {
        const SpanScope span(log, "plan", rid);
        planned.placement = service.scheduler().plan_against(*snapshot, *topology,
                                                             w_.algorithm, w_.config);
        planned.epoch = snapshot->version();
      }
      ++s.plans;
      if (!planned.placement.feasible) break;
      std::uint64_t epoch = 0;
      core::PlacementService::CommitOutcome outcome{};
      {
        const SpanScope span(log, "try_commit", rid);
        outcome = service.try_commit(*topology, planned, &epoch);
      }
      if (outcome == core::PlacementService::CommitOutcome::kCommitted) {
        id = next_stack_.fetch_add(1, std::memory_order_relaxed);
        registry_.add(id, topology, planned.placement.assignment);
        c.ops.push_back({epoch, false, topology, planned.placement.assignment});
        break;
      }
      if (outcome == core::PlacementService::CommitOutcome::kRejected) break;
      ++s.conflicts;
      if (attempt >= w_.config.service_max_conflict_retries) break;
      ++s.retries;
    }
    log.close(root);
    s.latency_s = log.seconds(root);
    const core::Placement& p = planned.placement;
    s.committed = id != 0;
    s.utility = p.utility;
    s.stats = p.stats;
    if (id != 0) {
      assignment = p.assignment;
      if (c.timed && replays_taken_.fetch_add(1, std::memory_order_relaxed) < kReplaySamples) {
        c.replays.push_back({rid, std::move(*snapshot), topology, assignment});
      }
    }
    return id;
  }

  Fleet& fleet_;
  const Workload& w_;
  bool traced_;
  core::StackRegistry registry_;  // traced: stacks committed through the service
  std::atomic<core::StackId> next_stack_{1};
  std::atomic<std::uint64_t> next_request_{1};
  std::atomic<std::size_t> replays_taken_{0};
};

struct Phase {
  std::vector<ClientState> clients;
  Clock::time_point start;  ///< of the timed part
  Clock::time_point end;
  [[nodiscard]] double wall_s() const { return seconds_between(start, end); }
};

/// When a serial client stops: after `deadline` once it has made at least
/// `min_requests` timed requests, and in any case at `max_requests`.
struct StopRule {
  double seconds = 0.0;
  Clock::time_point deadline;  ///< set when the timed part starts
  std::size_t min_requests = 0;
  std::size_t max_requests = std::numeric_limits<std::size_t>::max();

  void start(Clock::time_point now) {
    deadline = now + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  }
  [[nodiscard]] bool done(const ClientState& c) const {
    const std::size_t n = c.samples.size();
    return n >= max_requests || (n >= min_requests && Clock::now() >= deadline);
  }
};

void run_burst(Requester& requester, const Workload& w, const Inputs& in, double seconds,
               Phase& phase) {
  std::atomic<std::size_t> next{0};
  Clock::time_point start;
  Clock::time_point deadline;
  std::barrier sync(static_cast<std::ptrdiff_t>(w.clients), [&]() noexcept {
    start = Clock::now();
    deadline = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
  });
  const auto take = [&] {
    return in.stacks[next.fetch_add(1, std::memory_order_relaxed) % in.stacks.size()];
  };
  util::run_workers(w.clients, [&](std::size_t k) {
    ClientState& c = phase.clients[k];
    bool arrived = false;
    try {
      for (std::size_t i = 0; i < w.warmup_stacks; ++i) (void)requester.place_stack(c, take());
      c.timed = true;
      sync.arrive_and_wait();
      arrived = true;
      while (Clock::now() < deadline) (void)requester.place_stack(c, take());
      c.end = Clock::now();
    } catch (...) {
      if (!arrived) sync.arrive_and_drop();
      throw;
    }
  });
  phase.start = start;
  phase.end = start;
  for (const ClientState& c : phase.clients) phase.end = std::max(phase.end, c.end);
}

void run_dive(Requester& requester, const Workload& w, const Inputs& in, StopRule& stop,
              Phase& phase) {
  ClientState& c = phase.clients[0];
  CpuRotation cpus;
  std::deque<core::StackId> live;
  std::size_t next = 0;
  const auto place_next = [&] {
    cpus.tick();
    c.slot = cpus.slot();
    // The oldest stack leaves once the window is full, so the fleet never
    // fills up however fast placements get.
    if (live.size() >= kDiveWindow) {
      requester.release(c, live.front());
      live.pop_front();
    }
    const core::StackId id = requester.place_stack(c, in.stacks[next++ % in.stacks.size()]);
    if (id != 0) live.push_back(id);
  };
  for (std::size_t i = 0; i < w.warmup_stacks; ++i) place_next();
  c.timed = true;
  phase.start = Clock::now();
  stop.start(phase.start);
  while (!stop.done(c)) place_next();
}

void run_churn(Requester& requester, const Workload& w, const Inputs& in, StopRule& stop,
               Phase& phase) {
  ClientState& c = phase.clients[0];
  CpuRotation cpus;
  std::vector<core::StackId> live;
  std::size_t next = 0;
  const auto place_next = [&] {
    const core::StackId id = requester.place_stack(c, in.stacks[next++ % in.stacks.size()]);
    if (id != 0) live.push_back(id);
  };
  for (std::size_t i = 0; i < w.warmup_stacks; ++i) place_next();
  c.timed = true;
  phase.start = Clock::now();
  stop.start(phase.start);
  // The population drifts with the pre-generated coin flips but stays
  // within +-25% of its initial size.
  const std::size_t low = kChurnPopulation * 3 / 4;
  const std::size_t high = kChurnPopulation * 5 / 4;
  for (std::size_t j = 0; !stop.done(c); ++j) {
    cpus.tick();
    c.slot = cpus.slot();
    const ChurnEvent& e = in.events[j % in.events.size()];
    const bool release = live.size() >= high || (live.size() > low && e.release);
    if (release) {
      const std::size_t slot = static_cast<std::size_t>(e.pick % live.size());
      const core::StackId id = live[slot];
      live[slot] = live.back();
      live.pop_back();
      requester.release(c, id);
    } else {
      place_next();
    }
  }
}

/// Runs one phase of the workload on `fleet`: warm-up, then the timed
/// closed loop.  `min_requests`/`max_requests` bound the serial workloads'
/// timed requests (the anchor re-run sets both to the anchor length).
[[nodiscard]] Phase run_phase(Fleet& fleet, const Workload& w, const Inputs& in,
                              bool traced, double seconds, std::size_t min_requests,
                              std::size_t max_requests, Clock::time_point origin) {
  Requester requester(fleet, w, traced);
  Phase phase;
  phase.clients.resize(w.clients);
  for (ClientState& c : phase.clients) {
    if (traced) c.log = std::make_unique<SpanLog>(origin);
    c.anchor_limit = w.anchor_requests > 0 ? w.warmup_stacks + w.anchor_requests : 0;
  }
  if (w.kind == Kind::kRouterBurst) {
    run_burst(requester, w, in, seconds, phase);
    return phase;
  }
  StopRule stop;
  stop.seconds = seconds;
  stop.min_requests = min_requests;
  stop.max_requests = max_requests;
  if (w.kind == Kind::kSearchDive) {
    run_dive(requester, w, in, stop, phase);
  } else {
    run_churn(requester, w, in, stop, phase);
  }
  phase.end = Clock::now();
  return phase;
}

// ------------------------------------------------------------ correctness

[[nodiscard]] std::vector<Op> committed_ops(const Phase& phase, const Fleet& fleet,
                                            bool traced) {
  std::vector<Op> ops;
  if (traced) {
    for (const ClientState& c : phase.clients) ops.insert(ops.end(), c.ops.begin(), c.ops.end());
  } else {
    for (const core::ShardRouter::CommitRecord& r : fleet.router->commit_log()) {
      ops.push_back({r.global_epoch, r.kind == core::ShardRouter::CommitKind::kRelease,
                     r.topology, r.assignment});
    }
  }
  std::sort(ops.begin(), ops.end(),
            [](const Op& a, const Op& b) { return a.order < b.order; });
  return ops;
}

/// Replays `ops` in commit order onto a fresh OstroScheduler.  Returns an
/// empty string when every placement verifies against the replayed state
/// before it, the counts match what the clients saw, and the final replay
/// occupancy equals the router's stitched snapshot.
[[nodiscard]] std::string check_replay(const Workload& w, const Fleet& fleet,
                                       const std::vector<Op>& ops, std::uint64_t seed,
                                       const Phase& phase) {
  std::uint64_t committed = 0;
  std::uint64_t releases = 0;
  for (const ClientState& c : phase.clients) {
    committed += c.committed_total;
    releases += c.releases_total;
  }
  core::SearchConfig config;
  config.threads = 1;
  core::OstroScheduler replay(*fleet.datacenter, config);
  apply_preload(w, replay.occupancy(), seed);
  std::uint64_t places = 0;
  std::uint64_t removes = 0;
  for (std::size_t i = 0; i + 1 < ops.size(); ++i) {
    if (ops[i].order == ops[i + 1].order) return "two commits share an epoch";
  }
  try {
    for (const Op& op : ops) {
      if (op.release) {
        net::release_placement(replay.occupancy(), *op.topology, op.assignment, true);
        ++removes;
        continue;
      }
      const std::vector<std::string> violations =
          core::verify_placement(replay.occupancy(), *op.topology, op.assignment);
      if (!violations.empty()) {
        return "commit at epoch " + std::to_string(op.order) +
               " violates: " + violations.front();
      }
      core::Placement placement;
      placement.feasible = true;
      placement.assignment = op.assignment;
      replay.commit(*op.topology, placement);
      ++places;
    }
  } catch (const std::exception& e) {
    return std::string("replay failed: ") + e.what();
  }
  if (places != committed) {
    return "log holds " + std::to_string(places) + " commits, clients saw " +
           std::to_string(committed);
  }
  if (removes != releases) {
    return "log holds " + std::to_string(removes) + " releases, clients made " +
           std::to_string(releases);
  }
  if (!(replay.occupancy() == fleet.router->stitched_snapshot())) {
    return "replayed occupancy differs from the router's stitched snapshot";
  }
  return "";
}

// ---------------------------------------------------------------- metrics

[[nodiscard]] double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

[[nodiscard]] double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Peak resident set of this process so far: VmHWM of its own address
/// space.  (getrusage's ru_maxrss would also count the image that exec'd
/// the benchmark.)
[[nodiscard]] double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

[[nodiscard]] std::vector<Sample> all_samples(const Phase& phase) {
  std::vector<Sample> out;
  for (const ClientState& c : phase.clients) out.insert(out.end(), c.samples.begin(), c.samples.end());
  return out;
}

[[nodiscard]] std::vector<double> latencies_ms(const std::vector<Sample>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) out.push_back(s.latency_s * 1e3);
  return out;
}

/// The host is shared.  For stretches of about a tenth of a second, one
/// CPU runs the placement code up to 60% slower, with no steal time showing
/// in the guest.  A quantile that falls between the quiet and the slowed
/// mode then jumps between them from run to run.  So a serial client's
/// requests and the set-ups, which rotate over the CPUs (CpuRotation), are
/// judged by quiet_flags, and the timing metrics leave out the slowed ones.
/// search_dive's requests each fill a CPU slot, so all of them are kept.
/// router_burst's clients are not rotated and their plans slow one another,
/// so a slow request cannot be blamed on the host: all of them are kept.
/// When fewer than kMinKept requests are left, all of them are kept, so p90
/// keeps at least ten samples beyond it.
constexpr std::size_t kNeighbours = 3;
constexpr double kSlowed = 1.2;
constexpr double kQuietQuantile = 0.1;
constexpr std::size_t kMinKept = 100;

/// Judges each of a sequence of timings by the median of the up to
/// kNeighbours timings on either side of it that share its slot, not
/// counting itself, so that its own luck does not decide.  It counts as
/// slowed when that median exceeds kSlowed times the quiet level: the
/// kQuietQuantile quantile of these medians over the sequence.  A timing
/// with fewer than two slot neighbours, or in kNoSlot, counts as quiet.
[[nodiscard]] std::vector<bool> quiet_flags(const std::vector<std::uint64_t>& slots,
                                            const std::vector<double>& seconds) {
  const std::size_t n = slots.size();
  std::vector<std::optional<double>> level(n);
  std::vector<double> levels;
  for (std::size_t i = 0; i < n; ++i) {
    if (slots[i] == kNoSlot) continue;
    std::vector<double> neighbours;
    for (std::size_t j = i > kNeighbours ? i - kNeighbours : 0;
         j < std::min(n, i + kNeighbours + 1); ++j) {
      if (j != i && slots[j] == slots[i]) neighbours.push_back(seconds[j]);
    }
    if (neighbours.size() < 2) continue;
    level[i] = quantile(neighbours, 0.5);
    levels.push_back(*level[i]);
  }
  const double quiet = quantile(levels, kQuietQuantile);
  std::vector<bool> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = !level[i] || *level[i] <= kSlowed * quiet;
  return out;
}

struct Timing {
  double stacks_per_s = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  std::size_t kept = 0;
  std::size_t requests = 0;
};

/// Timing metrics over the timed requests that quiet_flags keeps.  A
/// request accounts for the wall time up to the next request of any client
/// (releases in between included), the last one up to the end of the
/// phase, so the spans of all requests add up to the timed part.
[[nodiscard]] Timing quiet_timing(const Phase& phase) {
  std::vector<Sample> samples = all_samples(phase);
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.start < b.start; });
  const std::size_t n = samples.size();
  std::vector<std::uint64_t> slots;
  std::vector<double> latency_s;
  for (const Sample& s : samples) {
    slots.push_back(s.slot);
    latency_s.push_back(s.latency_s);
  }
  std::vector<bool> keep = quiet_flags(slots, latency_s);
  if (static_cast<std::size_t>(std::count(keep.begin(), keep.end(), true)) < kMinKept) {
    keep.assign(n, true);
  }
  Timing t;
  t.requests = n;
  std::vector<double> latency_ms;
  double committed = 0.0;
  double seconds = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!keep[i]) continue;
    latency_ms.push_back(samples[i].latency_s * 1e3);
    committed += samples[i].committed ? 1.0 : 0.0;
    seconds += seconds_between(samples[i].start, i + 1 < n ? samples[i + 1].start : phase.end);
  }
  t.kept = latency_ms.size();
  t.stacks_per_s = ratio(committed, seconds);
  t.p50_ms = quantile(latency_ms, 0.5);
  t.p90_ms = quantile(latency_ms, 0.9);
  return t;
}

[[nodiscard]] std::vector<Metric> end_to_end(const Phase& phase, const Timing& timing,
                                             double setup_s, double rss_mb) {
  const std::vector<Sample> samples = all_samples(phase);
  double committed = 0.0;
  double utility = 0.0;
  for (const Sample& s : samples) {
    if (!s.committed) continue;
    committed += 1.0;
    utility += s.utility;
  }
  const auto n = static_cast<double>(samples.size());
  return {
      {"stacks_per_s", timing.stacks_per_s, "stacks/s"},
      {"latency_p50_ms", timing.p50_ms, "ms"},
      {"latency_p90_ms", timing.p90_ms, "ms"},
      {"commit_ratio", ratio(committed, n), "fraction"},
      {"utility_mean", ratio(utility, committed), "u"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", rss_mb, "MiB"},
  };
}

/// Per-name aggregate of the traced spans.
struct SpanTotals {
  std::vector<double> seconds;
  double total_s = 0.0;
  double self_s = 0.0;
};

/// Self time of every span: its duration minus its children's.
[[nodiscard]] std::vector<double> self_seconds(const SpanLog& log) {
  const std::vector<Span>& spans = log.spans();
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = log.seconds(static_cast<std::int32_t>(i));
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) self[static_cast<std::size_t>(spans[i].parent)] -= log.seconds(static_cast<std::int32_t>(i));
  }
  return self;
}

[[nodiscard]] std::map<std::string, SpanTotals> span_totals(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, SpanTotals> totals;
  for (const SpanLog* log : logs) {
    const std::vector<double> self = self_seconds(*log);
    for (std::size_t i = 0; i < log->spans().size(); ++i) {
      SpanTotals& t = totals[log->spans()[i].name];
      const double s = log->seconds(static_cast<std::int32_t>(i));
      t.seconds.push_back(s);
      t.total_s += s;
      t.self_s += self[i];
    }
  }
  return totals;
}

void write_spans(const std::string& path, const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path);
  for (std::size_t t = 0; t < logs.size(); ++t) {
    const std::vector<double> self = self_seconds(*logs[t]);
    const std::vector<Span>& spans = logs[t]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << "{\"thread\":" << t << ",\"id\":" << i << ",\"parent\":" << s.parent
          << ",\"request\":" << s.request << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"self_ns\":" << std::llround(self[i] * 1e9) << "}\n";
    }
  }
}

/// Work counted while replaying sampled EG steps.
struct ReplayCounts {
  std::uint64_t calls = 0;      ///< get_candidates calls (one per VM)
  std::uint64_t hosts = 0;      ///< candidates returned
  std::uint64_t skipped = 0;    ///< hosts the index descent skipped
  std::uint64_t estimates = 0;  ///< NodeEstimateContext::estimate calls
  std::uint64_t bandwidth_checks = 0;
  double sink = 0.0;            ///< keeps the replayed results observable
};

/// Re-runs one committed plan step by step through the public layer
/// functions, on the partial states the plan passed through: each node in
/// eg_sort_order gets its candidates, an estimate context, an estimate and
/// a bandwidth_ok check per candidate, and is then placed on its planned
/// host.  A full run_greedy on the same snapshot gives the EG baseline the
/// replayed calls are a share of.
void replay_layers(const Workload& w, const ReplayCase& rc, SpanLog& log,
                   ReplayCounts& counts) {
  const topo::AppTopology& topology = *rc.topology;
  const core::Objective objective(topology, rc.snapshot.datacenter(), w.config);
  const std::vector<topo::NodeId> order = core::eg_sort_order(topology);
  const SpanScope root(log, "replay", rc.request);
  {
    const SpanScope span(log, "greedy.run", rc.request);
    const core::GreedyOutcome outcome = core::run_greedy(
        core::Algorithm::kEg,
        core::PartialPlacement(topology, rc.snapshot, objective, w.config.use_prune_labels),
        order, nullptr, w.config.use_estimate_context, w.config.use_candidate_index);
    counts.sink += outcome.state.ubw();
  }
  util::metrics::Counter& skipped = util::metrics::counter("candidates.hosts_skipped");
  core::PartialPlacement state(topology, rc.snapshot, objective, w.config.use_prune_labels);
  core::CandidateBuffer buffer;
  core::EstimateScratch scratch;
  for (const topo::NodeId node : order) {
    const std::uint64_t skipped_before = skipped.value();
    {
      const SpanScope span(log, "candidates", rc.request);
      (void)core::get_candidates(state, node, buffer, true, w.config.use_candidate_index);
    }
    ++counts.calls;
    counts.hosts += buffer.hosts.size();
    counts.skipped += skipped.value() - skipped_before;
    std::optional<core::NodeEstimateContext> context;
    {
      const SpanScope span(log, "estimator.context", rc.request);
      context.emplace(state, node, core::Estimator::rest_bound(state, node));
    }
    {
      const SpanScope span(log, "estimator.estimate", rc.request);
      for (const dc::HostId host : buffer.hosts) {
        counts.sink += context->estimate(host, scratch).ubw;
      }
    }
    counts.estimates += buffer.hosts.size();
    {
      const SpanScope span(log, "partial.bandwidth_ok", rc.request);
      for (const dc::HostId host : buffer.hosts) {
        counts.sink += state.bandwidth_ok(node, host) ? 1.0 : 0.0;
      }
    }
    counts.bandwidth_checks += buffer.hosts.size();
    state.place(node, rc.assignment[node]);
  }
}

[[nodiscard]] double median_of(const std::map<std::string, SpanTotals>& totals,
                               const char* name, double scale) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : quantile(it->second.seconds, 0.5) * scale;
}

[[nodiscard]] double mean_of(const std::map<std::string, SpanTotals>& totals,
                             const char* name, double scale) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0
                            : ratio(it->second.total_s, static_cast<double>(it->second.seconds.size())) *
                                  scale;
}

[[nodiscard]] double total_of(const std::map<std::string, SpanTotals>& totals,
                              const char* name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second.total_s;
}

[[nodiscard]] std::vector<Metric> per_layer(const Workload& w, const Phase& untraced,
                                            const Phase& traced,
                                            const std::map<std::string, SpanTotals>& spans,
                                            const ReplayCounts& rc, double commit_wait_s) {
  const std::vector<Sample> samples = all_samples(traced);
  const std::vector<Sample> base = all_samples(untraced);
  double conflicts = 0, retries = 0, plans = 0, committed = 0, vms = 0, estimates = 0;
  double expansions = 0, reruns = 0, open_peak = 0, search_s = 0;
  double arena_bytes = 0;
  for (const Sample& s : samples) {
    conflicts += s.conflicts;
    retries += s.retries;
    plans += s.plans;
    committed += s.committed ? 1.0 : 0.0;
    vms += static_cast<double>(s.vms);
    estimates += static_cast<double>(s.stats.heuristic_calls);
    expansions += static_cast<double>(s.stats.paths_expanded);
    reruns += static_cast<double>(s.stats.eg_reruns);
    open_peak += static_cast<double>(s.stats.open_queue_peak);
    search_s += s.stats.runtime_seconds;
    arena_bytes = std::max(arena_bytes, static_cast<double>(s.stats.arena_bytes));
  }
  double attempts = 0;
  for (const Sample& s : base) attempts += s.shard_attempts;
  const auto n = static_cast<double>(samples.size());
  const bool astar = w.algorithm == core::Algorithm::kDbaStar ||
                     w.algorithm == core::Algorithm::kBaStar;
  std::vector<double> search_ms;
  for (const Sample& s : samples) search_ms.push_back(s.stats.runtime_seconds * 1e3);
  const double untraced_p50 = quantile(latencies_ms(base), 0.5);
  const double traced_p50 = quantile(latencies_ms(samples), 0.5);
  const double replayed = total_of(spans, "candidates") + total_of(spans, "estimator.context") +
                          total_of(spans, "estimator.estimate");
  const auto calls = static_cast<double>(rc.calls);
  return {
      {"dc.snapshot_ms", median_of(spans, "snapshot", 1e3), "ms"},
      {"dc.commit_us", median_of(spans, "try_commit", 1e6), "us"},
      {"dc.release_us", median_of(spans, "release", 1e6), "us"},
      {"service.plan_ms", median_of(spans, "plan", 1e3), "ms"},
      {"service.conflicts_per_request", ratio(conflicts, n), "count"},
      {"service.retries_per_request", ratio(retries, n), "count"},
      {"service.useful_plan_ratio", ratio(committed, plans), "ratio"},
      {"service.commit_wait_ms", commit_wait_s * 1e3, "ms"},
      {"router.shard_attempts_per_request", ratio(attempts, static_cast<double>(base.size())), "count"},
      {"greedy.plan_ms", median_of(spans, "greedy.run", 1e3), "ms"},
      {"candidates.us_per_call", mean_of(spans, "candidates", 1e6), "us"},
      {"candidates.hosts_per_call", ratio(static_cast<double>(rc.hosts), calls), "count"},
      {"candidates.hosts_skipped_per_call", ratio(static_cast<double>(rc.skipped), calls), "count"},
      {"estimator.context_us", mean_of(spans, "estimator.context", 1e6), "us"},
      {"estimator.estimate_ns", ratio(total_of(spans, "estimator.estimate"), static_cast<double>(rc.estimates)) * 1e9, "ns"},
      {"estimator.estimates_per_vm", ratio(estimates, vms), "count"},
      {"partial.bandwidth_ok_ns", ratio(total_of(spans, "partial.bandwidth_ok"), static_cast<double>(rc.bandwidth_checks)) * 1e9, "ns"},
      {"partial.bandwidth_ok_calls_per_vm", ratio(static_cast<double>(rc.bandwidth_checks), calls), "count"},
      {"astar.plan_ms", astar ? quantile(search_ms, 0.5) : 0.0, "ms"},
      {"astar.expansions_per_plan", astar ? ratio(expansions, n) : 0.0, "count"},
      {"astar.us_per_expansion", astar ? ratio(search_s, expansions) * 1e6 : 0.0, "us"},
      {"astar.heuristic_calls_per_plan", astar ? ratio(estimates, n) : 0.0, "count"},
      {"astar.eg_reruns_per_plan", astar ? ratio(reruns, n) : 0.0, "count"},
      {"astar.open_queue_peak", astar ? ratio(open_peak, n) : 0.0, "count"},
      {"astar.arena_mb", astar ? arena_bytes / (1024.0 * 1024.0) : 0.0, "MiB"},
      {"trace.overhead_pct", ratio(traced_p50 - untraced_p50, untraced_p50) * 100.0, "%"},
      {"trace.replay_coverage", ratio(replayed, total_of(spans, "greedy.run")), "ratio"},
  };
}

// ----------------------------------------------------------------- output

[[nodiscard]] std::string number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, result.ptr);
}

void print_metrics(const std::string& workload, const char* kind,
                   const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-12s %-9s %-36s %16.6f %s\n", workload.c_str(), kind, m.name.c_str(),
                m.value, m.unit.c_str());
  }
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out << ", ";
    out << '"' << metrics[i].name << "\": {\"value\": " << number(metrics[i].value)
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

[[nodiscard]] Options parse_args(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(opt.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return opt;
}

int run(const Options& opt) {
  const std::optional<Workload> found = find_workload(opt.workload);
  if (!found) throw std::invalid_argument("unknown workload " + opt.workload);
  const Workload& w = *found;
  const Clock::time_point origin = Clock::now();
  const Inputs inputs = make_inputs(w, opt.seed);

  // Set-up is timed several times before the timed part, kSetupsPerSlot
  // times on each of kSetupSlots CPU slots, and the median of the quiet
  // ones (quiet_flags) is reported; the last fleet built serves the run.
  // The previous fleet is freed first so peak RSS counts one fleet.
  // (Set-ups timed after the run read bimodal, depending on the heap the
  // run leaves behind.)
  std::vector<double> setups;
  std::vector<std::uint64_t> setup_slots;
  std::optional<Fleet> fleet;
  const auto set_up = [&](bool timed) {
    fleet.reset();
    const auto t0 = Clock::now();
    fleet.emplace(build_fleet(w, opt.seed));
    if (timed) setups.push_back(seconds_between(t0, Clock::now()));
  };
  {
    CpuRotation cpus;
    for (int slot = 0; slot < kSetupSlots; ++slot) {
      for (int r = 0; r < kSetupsPerSlot; ++r) {
        set_up(true);
        setup_slots.push_back(cpus.slot());
      }
      cpus.rotate();
    }
  }
  const std::vector<bool> quiet_setup = quiet_flags(setup_slots, setups);
  std::vector<double> quiet_setups;
  for (std::size_t i = 0; i < setups.size(); ++i) {
    if (quiet_setup[i]) quiet_setups.push_back(setups[i]);
  }
  const double setup_s = quantile(quiet_setups, 0.5);

  const std::size_t min_requests =
      w.clients == 1 ? std::max(kMinSerialRequests, w.anchor_requests) : 0;
  const Phase untraced = run_phase(*fleet, w, inputs, false, opt.seconds, min_requests,
                                   std::numeric_limits<std::size_t>::max(), origin);
  const double rss_mb = peak_rss_mb();
  std::vector<std::string> errors;
  if (std::string e = check_replay(w, *fleet, committed_ops(untraced, *fleet, false), opt.seed,
                                   untraced);
      !e.empty()) {
    errors.push_back(w.name + " replay: " + e);
  }
  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (const ClientState& c : untraced.clients) {
    attempted += c.operations;
    failed += c.failed;
  }

  if (w.anchor_requests > 0) {
    // Determinism anchor: the first requests again on a fresh fleet.
    set_up(false);
    const Phase again = run_phase(*fleet, w, inputs, false, 0.0, w.anchor_requests,
                                  w.anchor_requests, origin);
    const Anchor& a = untraced.clients[0].anchor;
    const Anchor& b = again.clients[0].anchor;
    std::printf("anchor %s seed=%llu requests=%llu digest=%016llx "
                "astar.expansions_per_plan=%.6f estimator.estimates_per_vm=%.6f\n",
                w.name.c_str(), static_cast<unsigned long long>(opt.seed),
                static_cast<unsigned long long>(a.requests),
                static_cast<unsigned long long>(a.digest),
                ratio(static_cast<double>(a.expansions), static_cast<double>(a.requests)),
                ratio(static_cast<double>(a.estimates), static_cast<double>(a.vms)));
    if (!(a == b)) errors.push_back(w.name + " anchor: a second run of the same seed differs");
  }

  const Timing timing = quiet_timing(untraced);
  const std::vector<Metric> e2e = end_to_end(untraced, timing, setup_s, rss_mb);
  print_metrics(w.name, "e2e", e2e);
  std::printf("%-12s requests=%zu quiet=%zu operations=%zu failed=%zu wall_s=%.3f\n",
              w.name.c_str(), timing.requests, timing.kept, attempted, failed,
              untraced.wall_s());

  std::vector<Metric> reported = e2e;
  if (opt.trace) {
    set_up(false);
    util::metrics::Registry::global().reset();
    Phase traced = run_phase(*fleet, w, inputs, true, opt.seconds, min_requests,
                             std::numeric_limits<std::size_t>::max(), origin);
    const double commit_wait_s =
        util::metrics::Registry::global().summary_snapshot("service.commit_wait_seconds").mean();
    if (std::string e = check_replay(w, *fleet, committed_ops(traced, *fleet, true), opt.seed,
                                     traced);
        !e.empty()) {
      errors.push_back(w.name + " traced replay: " + e);
    }
    SpanLog replay_log(origin);
    ReplayCounts counts;
    for (const ClientState& c : traced.clients) {
      for (const ReplayCase& rc : c.replays) replay_layers(w, rc, replay_log, counts);
    }
    std::vector<const SpanLog*> logs;
    for (const ClientState& c : traced.clients) logs.push_back(c.log.get());
    logs.push_back(&replay_log);
    const std::map<std::string, SpanTotals> spans = span_totals(logs);
    for (const auto& [name, t] : spans) {
      std::printf("%-12s span      %-36s n=%-8zu total_ms=%-12.3f self_ms=%.3f\n",
                  w.name.c_str(), name.c_str(), t.seconds.size(), t.total_s * 1e3,
                  t.self_s * 1e3);
    }
    if (!opt.trace_out.empty()) write_spans(opt.trace_out, logs);
    reported = per_layer(w, untraced, traced, spans, counts, commit_wait_s);
    print_metrics(w.name, "layer", reported);
  }

  for (const std::string& e : errors) std::printf("FAIL %s\n", e.c_str());
  print_result(errors.empty(), attempted, failed, reported);
  return errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
