// Micro-benchmarks (google-benchmark) for the placement hot paths: the
// constraint checks and estimates that the searches evaluate millions of
// times, path enumeration in the data-center tree, placement application,
// and the max-min fair solver that backs the QFS simulator.
#include <benchmark/benchmark.h>

#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/astar.h"
#include "core/candidates.h"
#include "core/estimator.h"
#include "core/greedy.h"
#include "core/objective.h"
#include "core/partial.h"
#include "core/scheduler.h"
#include "core/symmetry.h"
#include "datacenter/prune_labels.h"
#include "net/maxmin.h"
#include "net/reservation.h"
#include "sim/clusters.h"
#include "sim/workloads.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/timer.h"

namespace {

using namespace ostro;

struct MicroFixture {
  dc::DataCenter datacenter = sim::make_sim_datacenter(20, 16);  // 320 hosts
  dc::Occupancy occupancy{datacenter};
  topo::AppTopology app;
  core::SearchConfig config;
  core::Objective objective;

  MicroFixture()
      : app([] {
          util::Rng rng(7);
          return sim::make_multitier(50, sim::RequirementMix::kHeterogeneous,
                                     rng);
        }()),
        objective(app, datacenter, config) {
    util::Rng rng(7);
    sim::apply_sim_preload(occupancy, rng);
  }
};

MicroFixture& fixture() {
  static MicroFixture f;
  return f;
}

/// Figure-7-scale fixture (150 racks x 16 hosts = 2400 hosts): the size at
/// which the topology queries are timed and the estimate context is
/// quantified against the per-call reference estimate.
struct Fig7Fixture {
  dc::DataCenter datacenter = sim::make_sim_datacenter(150, 16);
  dc::Occupancy occupancy{datacenter};
  topo::AppTopology app;
  core::SearchConfig config;
  core::Objective objective;
  net::Assignment assignment;  ///< feasible EG placement of `app`

  Fig7Fixture()
      : app([] {
          util::Rng rng(7);
          return sim::make_multitier(50, sim::RequirementMix::kHeterogeneous,
                                     rng);
        }()),
        objective(app, datacenter, config) {
    util::Rng rng(7);
    sim::apply_sim_preload(occupancy, rng);
    core::GreedyOutcome outcome = core::run_greedy(
        core::Algorithm::kEg,
        core::PartialPlacement(app, occupancy, objective),
        core::eg_sort_order(app), nullptr);
    if (!outcome.feasible) throw std::runtime_error("fig7 EG infeasible");
    assignment = outcome.state.assignment();
  }
};

Fig7Fixture& fig7() {
  static Fig7Fixture f;
  return f;
}

void BM_CanPlace(benchmark::State& state) {
  auto& f = fixture();
  core::PartialPlacement partial(f.app, f.occupancy, f.objective);
  partial.place(0, 0);
  partial.place(10, 1);
  dc::HostId host = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(partial.can_place(11, host));
    host = (host + 1) % static_cast<dc::HostId>(f.datacenter.host_count());
  }
}
BENCHMARK(BM_CanPlace);

void BM_GetCandidates(benchmark::State& state) {
  auto& f = fixture();
  core::PartialPlacement partial(f.app, f.occupancy, f.objective);
  partial.place(0, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::get_candidates(partial, 10));
  }
}
BENCHMARK(BM_GetCandidates);

// ---- Figure-7-scale candidate generation: indexed descent vs linear ----

/// Steady-state fleet for candidate generation: Figure-7 scale (150 racks x
/// 16 hosts = 2400 hosts) with 19 of every 20 racks exhausted — the regime a
/// long-running cluster operates in, where the linear scan spends its time
/// re-checking full hosts and the feasibility index skips whole racks.
struct CandidateFixture {
  dc::DataCenter datacenter = sim::make_sim_datacenter(150, 16);
  dc::Occupancy occupancy{datacenter};
  topo::AppTopology app;
  core::SearchConfig config;
  core::Objective objective;

  CandidateFixture()
      : app([] {
          util::Rng rng(7);
          return sim::make_multitier(50, sim::RequirementMix::kHeterogeneous,
                                     rng);
        }()),
        objective(app, datacenter, config) {
    for (const dc::Rack& rack : datacenter.racks()) {
      if (rack.id % 20 == 0) continue;  // every 20th rack stays open
      for (const dc::HostId h : rack.hosts) {
        occupancy.add_host_load(h, occupancy.available(h));
      }
    }
  }

  /// Partial placement with one node down, so the measured node has a
  /// placed neighbor and the bandwidth constraint is live.
  [[nodiscard]] core::PartialPlacement seeded_state() const {
    core::PartialPlacement partial(app, occupancy, objective);
    const auto seed = core::get_candidates(partial, 0);
    partial.place(0, seed.front());
    return partial;
  }
};

CandidateFixture& candidate_fixture() {
  static CandidateFixture f;
  return f;
}

void BM_GetCandidatesLinearFig7(benchmark::State& state) {
  auto& f = candidate_fixture();
  const core::PartialPlacement partial = f.seeded_state();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::get_candidates(partial, 1));
  }
}
BENCHMARK(BM_GetCandidatesLinearFig7)->Unit(benchmark::kMicrosecond);

void BM_GetCandidatesIndexedFig7(benchmark::State& state) {
  auto& f = candidate_fixture();
  const core::PartialPlacement partial = f.seeded_state();
  core::CandidateBuffer buf;
  for (auto _ : state) {
    core::get_candidates_indexed(partial, 1, buf);
    benchmark::DoNotOptimize(buf.hosts.data());
  }
}
BENCHMARK(BM_GetCandidatesIndexedFig7)->Unit(benchmark::kMicrosecond);

void BM_CandidateEstimate(benchmark::State& state) {
  auto& f = fixture();
  core::PartialPlacement partial(f.app, f.occupancy, f.objective);
  partial.place(0, 0);
  partial.place(10, 1);
  const double rest = core::Estimator::rest_bound(partial, 11);
  dc::HostId host = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::Estimator::candidate_estimate(partial, 11, host, rest));
    host = (host + 1) % static_cast<dc::HostId>(f.datacenter.host_count());
  }
}
BENCHMARK(BM_CandidateEstimate);

void BM_ImaginaryCompletion(benchmark::State& state) {
  auto& f = fixture();
  core::PartialPlacement partial(f.app, f.occupancy, f.objective);
  partial.place(0, 0);
  partial.place(10, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::Estimator::imaginary_completion(partial));
  }
}
BENCHMARK(BM_ImaginaryCompletion);

void BM_PlaceAndClone(benchmark::State& state) {
  auto& f = fixture();
  core::PartialPlacement base(f.app, f.occupancy, f.objective);
  for (topo::NodeId v = 0; v < 20; ++v) {
    base.place(v, static_cast<dc::HostId>(v % 16));
  }
  for (auto _ : state) {
    core::PartialPlacement clone = base;
    clone.place(20, 17);
    benchmark::DoNotOptimize(clone.utility_bound());
  }
}
BENCHMARK(BM_PlaceAndClone);

void BM_PathLinks(benchmark::State& state) {
  auto& f = fixture();
  std::vector<dc::LinkId> links;
  dc::HostId a = 0;
  for (auto _ : state) {
    links.clear();
    f.datacenter.path_links(a, 300, links);
    benchmark::DoNotOptimize(links.data());
    a = (a + 7) % 300;
  }
}
BENCHMARK(BM_PathLinks);

// ---- Figure-7-scale (2400 hosts) hot paths ----
// The table-driven topology queries, and the estimate context against the
// per-call estimate it replaced on the same access pattern.

void BM_ScopeBetweenFig7(benchmark::State& state) {
  auto& f = fig7();
  const auto n = static_cast<dc::HostId>(f.datacenter.host_count());
  dc::HostId a = 0;
  dc::HostId b = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.datacenter.scope_between(a, b));
    a = (a + 13) % n;
    b = (b + 131) % n;
  }
}
BENCHMARK(BM_ScopeBetweenFig7);

void BM_PathLinksFig7(benchmark::State& state) {
  auto& f = fig7();
  const auto n = static_cast<dc::HostId>(f.datacenter.host_count());
  dc::HostId a = 0;
  dc::HostId b = 1;
  for (auto _ : state) {
    const dc::PathLinks path = f.datacenter.path_between(a, b);
    benchmark::DoNotOptimize(path.size());
    a = (a + 13) % n;
    b = (b + 131) % n;
  }
}
BENCHMARK(BM_PathLinksFig7);

void BM_CandidateEstimateFig7(benchmark::State& state) {
  auto& f = fig7();
  core::PartialPlacement partial(f.app, f.occupancy, f.objective);
  partial.place(0, 0);
  partial.place(10, 1);
  const double rest = core::Estimator::rest_bound(partial, 11);
  const auto n = static_cast<dc::HostId>(f.datacenter.host_count());
  dc::HostId host = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::Estimator::candidate_estimate(partial, 11, host, rest));
    host = (host + 1) % n;
  }
}
BENCHMARK(BM_CandidateEstimateFig7);

void BM_CandidateEstimateContextFig7(benchmark::State& state) {
  auto& f = fig7();
  core::PartialPlacement partial(f.app, f.occupancy, f.objective);
  partial.place(0, 0);
  partial.place(10, 1);
  const double rest = core::Estimator::rest_bound(partial, 11);
  // Context built once per placement step, amortized over the candidate
  // fan — exactly how EG uses it.
  const core::NodeEstimateContext context(partial, 11, rest);
  core::EstimateScratch scratch;
  const auto n = static_cast<dc::HostId>(f.datacenter.host_count());
  dc::HostId host = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(context.estimate(host, scratch));
    host = (host + 1) % n;
  }
}
BENCHMARK(BM_CandidateEstimateContextFig7);

// Whole-placement application at Figure-7 scale: the transaction validates
// in the OccupancyDelta overlay and flushes one apply_delta batch, so the
// occupancy.link_reservations per-op counter stays at zero on the success
// path (the `reserve_calls` counter makes that visible per apply).
void BM_TransactionStagedFig7(benchmark::State& state) {
  auto& f = fig7();
  dc::Occupancy occupancy = f.occupancy;
  auto& reservations = util::metrics::counter("occupancy.link_reservations");
  const auto before = reservations.value();
  net::PlacementTransaction txn(occupancy);
  for (auto _ : state) {
    txn.apply(f.app, f.assignment);
    txn.rollback();
  }
  state.counters["reserve_calls"] = benchmark::Counter(
      static_cast<double>(reservations.value() - before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_TransactionStagedFig7)->Unit(benchmark::kMicrosecond);

void BM_EgSmall(benchmark::State& state) {
  auto& f = fixture();
  const auto order = core::eg_sort_order(f.app);
  for (auto _ : state) {
    core::GreedyOutcome outcome = core::run_greedy(
        core::Algorithm::kEg,
        core::PartialPlacement(f.app, f.occupancy, f.objective), order,
        nullptr);
    benchmark::DoNotOptimize(outcome.feasible);
  }
}
BENCHMARK(BM_EgSmall)->Unit(benchmark::kMillisecond);

void BM_MaxMinFair(benchmark::State& state) {
  auto& f = fixture();
  std::vector<net::Flow> flows;
  util::Rng rng(3);
  for (int i = 0; i < 64; ++i) {
    flows.push_back({static_cast<dc::HostId>(rng.next_below(320)),
                     static_cast<dc::HostId>(rng.next_below(320)), 500.0});
  }
  for (auto& flow : flows) {
    if (flow.src == flow.dst) flow.dst = (flow.dst + 1) % 320;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::max_min_fair_rates(f.datacenter, flows));
  }
}
BENCHMARK(BM_MaxMinFair);

void BM_VerifySignatureDetect(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::detect_symmetry_groups(f.app));
  }
}
BENCHMARK(BM_VerifySignatureDetect);

// Whole BA* plan on the 320-host fixture under a deterministic open-queue
// valve, which caps the work so runs are comparable across builds.
void BM_BaStarValveCapped(benchmark::State& state) {
  auto& f = fixture();
  core::SearchConfig config = f.config;
  config.max_open_paths = 500;
  std::uint64_t expanded = 0;
  for (auto _ : state) {
    const core::AStarOutcome outcome =
        core::run_astar(core::PartialPlacement(f.app, f.occupancy, f.objective),
                        config, false, nullptr);
    benchmark::DoNotOptimize(outcome.feasible);
    expanded += outcome.stats.paths_expanded;
  }
  state.counters["expansions_per_sec"] = benchmark::Counter(
      static_cast<double>(expanded), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BaStarValveCapped)->Unit(benchmark::kMillisecond);

// Per-event cost of the observability layer itself, enabled vs disabled —
// the margin every instrumented hot path pays (ISSUE acceptance: enabled
// must stay within 2% on the placement micro-benchmarks above).
void BM_MetricsCounterEnabled(benchmark::State& state) {
  util::metrics::set_enabled(true);
  auto& counter = util::metrics::counter("bench.micro_counter");
  for (auto _ : state) counter.inc();
}
BENCHMARK(BM_MetricsCounterEnabled);

void BM_MetricsCounterDisabled(benchmark::State& state) {
  util::metrics::set_enabled(false);
  auto& counter = util::metrics::counter("bench.micro_counter");
  for (auto _ : state) counter.inc();
  util::metrics::set_enabled(true);
}
BENCHMARK(BM_MetricsCounterDisabled);

void BM_MetricsSummaryObserve(benchmark::State& state) {
  util::metrics::set_enabled(true);
  auto& summary = util::metrics::summary("bench.micro_summary");
  double v = 0.0;
  for (auto _ : state) summary.observe(v += 1.0);
}
BENCHMARK(BM_MetricsSummaryObserve);

/// Measures both candidate-generation paths on the steady-state Figure-7
/// fleet and writes BENCH_candidates.json (ops/sec, speedup, prune counters
/// per call) so the perf trajectory tracking has machine-readable points.
void write_candidates_json(bool smoke) {
  auto& f = candidate_fixture();
  const core::PartialPlacement partial = f.seeded_state();
  const int iterations = smoke ? 200 : 20000;

  const std::vector<dc::HostId> reference = core::get_candidates(partial, 1);
  core::CandidateBuffer buf;
  core::get_candidates_indexed(partial, 1, buf);
  if (buf.hosts != reference) {
    throw std::runtime_error(
        "BENCH_candidates: indexed candidates differ from the linear scan");
  }

  util::WallTimer linear_timer;
  for (int i = 0; i < iterations; ++i) {
    benchmark::DoNotOptimize(core::get_candidates(partial, 1));
  }
  const double linear_seconds = linear_timer.elapsed_seconds();

  auto& subtrees = util::metrics::counter("candidates.subtrees_pruned");
  auto& skipped = util::metrics::counter("candidates.hosts_skipped");
  const std::uint64_t subtrees_before = subtrees.value();
  const std::uint64_t skipped_before = skipped.value();
  util::WallTimer indexed_timer;
  for (int i = 0; i < iterations; ++i) {
    core::get_candidates_indexed(partial, 1, buf);
    benchmark::DoNotOptimize(buf.hosts.data());
  }
  const double indexed_seconds = indexed_timer.elapsed_seconds();
  const double per_call = 1.0 / static_cast<double>(iterations);

  util::JsonObject out;
  out["benchmark"] = "get_candidates_fig7";
  out["hosts"] = static_cast<int>(f.datacenter.host_count());
  out["iterations"] = iterations;
  out["candidates_returned"] = static_cast<int>(reference.size());
  out["linear_ops_per_sec"] = iterations / linear_seconds;
  out["indexed_ops_per_sec"] = iterations / indexed_seconds;
  out["speedup"] = linear_seconds / indexed_seconds;
  out["subtrees_pruned_per_call"] =
      static_cast<double>(subtrees.value() - subtrees_before) * per_call;
  out["hosts_skipped_per_call"] =
      static_cast<double>(skipped.value() - skipped_before) * per_call;
  std::ofstream file("BENCH_candidates.json");
  file << util::Json(std::move(out)).pretty() << '\n';
}

/// Quantifies the budget controller (DESIGN.md section 8) and writes
/// BENCH_budget.json.  Two scenarios:
///   1. Valve-fire recovery — an EG-dead-end instance (greedy co-locates
///      the pipe endpoints on the big host and strands the large VM) run
///      under a deliberately tight max_open_paths.  --budget=fixed fails
///      outright; --budget=auto converges via widened retries.
///   2. Auto sizing — DBA* on the 320-host fixture, recording the budget
///      the controller chose versus the fixed 2M default.
void write_budget_json(bool smoke) {
  dc::DataCenterBuilder builder;
  const auto site = builder.add_site("site", 64000.0);
  const auto pod = builder.add_pod(site, "pod", 64000.0);
  const auto rack = builder.add_rack(pod, "rack", 32000.0);
  builder.add_host(rack, "big", {16.0, 32.0, 500.0}, 4000.0);
  builder.add_host(rack, "h1", {8.0, 16.0, 500.0}, 4000.0);
  builder.add_host(rack, "h2", {8.0, 16.0, 500.0}, 4000.0);
  const dc::DataCenter datacenter = builder.build();
  const dc::Occupancy occupancy(datacenter);

  topo::TopologyBuilder app_builder;
  app_builder.add_vm("x", {4.0, 4.0, 0.0});
  app_builder.add_vm("y", {4.0, 4.0, 0.0});
  app_builder.add_vm("z", {12.0, 2.0, 0.0});
  app_builder.connect("x", "y", 500.0);
  const topo::AppTopology app = app_builder.build();

  core::SearchConfig tight;
  tight.max_open_paths = 1;  // the valve fires on the first expansion
  const core::Placement fixed_run = core::place_topology(
      occupancy, app, core::Algorithm::kBaStar, tight);

  core::SearchConfig adaptive = tight;
  adaptive.budget_mode = core::BudgetMode::kAuto;
  const core::Placement auto_run = core::place_topology(
      occupancy, app, core::Algorithm::kBaStar, adaptive);
  if (!auto_run.feasible) {
    throw std::runtime_error(
        "BENCH_budget: auto mode failed to recover from the valve fire");
  }

  auto& f = fixture();
  core::SearchConfig sized;
  sized.budget_mode = core::BudgetMode::kAuto;
  sized.deadline_seconds = smoke ? 0.05 : 0.5;
  const core::Placement sized_run = core::place_topology(
      f.occupancy, f.app, core::Algorithm::kDbaStar, sized);

  util::JsonObject out;
  out["benchmark"] = "budget_controller";
  out["valve_seed_max_open_paths"] = static_cast<int>(tight.max_open_paths);
  out["valve_fixed_feasible"] = fixed_run.feasible;
  out["valve_fixed_hit_open_limit"] = fixed_run.stats.hit_open_limit;
  out["valve_auto_feasible"] = auto_run.feasible;
  out["valve_auto_retries"] = static_cast<int>(auto_run.stats.budget_retries);
  out["valve_auto_final_max_open_paths"] =
      static_cast<std::int64_t>(auto_run.stats.effective_max_open_paths);
  out["sized_dba_feasible"] = sized_run.feasible;
  out["sized_dba_max_open_paths"] =
      static_cast<std::int64_t>(sized_run.stats.effective_max_open_paths);
  out["sized_dba_beam_width"] =
      static_cast<std::int64_t>(sized_run.stats.effective_beam_width);
  out["sized_dba_open_queue_peak"] =
      static_cast<std::int64_t>(sized_run.stats.open_queue_peak);
  out["fixed_default_max_open_paths"] =
      static_cast<std::int64_t>(core::SearchConfig{}.max_open_paths);
  std::ofstream file("BENCH_budget.json");
  file << util::Json(std::move(out)).pretty() << '\n';
}

/// Quantifies the precomputed prune labels (SearchConfig::use_prune_labels;
/// DESIGN.md section 12) and writes BENCH_labels.json.  Two sections:
///   1. BA* expansion drop — a fragmented near-full fleet (every rack down
///      to at most one feasible host, 10 open hosts across 150 racks):
///      the regime the labels were built for, where the separation ladder
///      and the host climb tighten nearly every edge bound.  Labels on vs
///      off, same final assignment required, expansion drop recorded.
///   2. Maintenance cost — label rebuild seconds at 2400 hosts and the
///      per-commit refresh cost on the live add/remove path.
void write_labels_json(bool smoke) {
  auto& f = fig7();

  // ---- 1. BA* expansion drop on the fragmented near-full fleet ----
  // Ten hosts spread across ten racks keep (5, 10, 300) free — enough for
  // any single sim VM (at most 4 cores) but not for most pairs, so the
  // reference bound's same-host optimism is wrong on most edges while the
  // co-location escalate (root max_free) and the one-feasible-host-per-rack
  // separation ladder correct it to the true cross-rack distance.
  dc::Occupancy full_occupancy(f.datacenter);
  for (const dc::Rack& rack : f.datacenter.racks()) {
    for (std::size_t i = 0; i < rack.hosts.size(); ++i) {
      const dc::HostId h = rack.hosts[i];
      if (i == 0 && rack.id % 15 == 0) {
        const topo::Resources free = full_occupancy.available(h);
        full_occupancy.add_host_load(
            h, {free.vcpus - 5.0, free.mem_gb - 10.0, free.disk_gb - 300.0});
        continue;
      }
      full_occupancy.add_host_load(h, full_occupancy.available(h));
    }
  }
  util::Rng app_rng(13);
  const topo::AppTopology ba_app = sim::make_multitier(
      smoke ? 10 : 15, sim::RequirementMix::kHeterogeneous, app_rng);
  core::SearchConfig ba_config;
  ba_config.max_expansions = smoke ? 3000 : 20000;
  const core::Objective ba_objective(ba_app, f.datacenter, ba_config);

  struct LabelRun {
    double seconds = 0.0;
    core::SearchStats stats;
    bool feasible = false;
    net::Assignment assignment;
    std::uint64_t separation_escalations = 0;
    std::uint64_t host_escalations = 0;
  };
  const auto measure_ba = [&](bool use_labels) {
    auto& m_sep = util::metrics::counter("heuristic.separation_escalations");
    auto& m_host = util::metrics::counter("heuristic.host_escalations");
    const std::uint64_t sep_before = m_sep.value();
    const std::uint64_t host_before = m_host.value();
    LabelRun run;
    const util::WallTimer timer;
    const core::AStarOutcome outcome = core::run_astar(
        core::PartialPlacement(ba_app, full_occupancy, ba_objective,
                               use_labels),
        ba_config, false, nullptr);
    run.seconds = timer.elapsed_seconds();
    run.stats = outcome.stats;
    run.feasible = outcome.feasible;
    if (outcome.feasible) run.assignment = outcome.state.assignment();
    run.separation_escalations = m_sep.value() - sep_before;
    run.host_escalations = m_host.value() - host_before;
    return run;
  };
  const LabelRun labels_off = measure_ba(false);
  const LabelRun labels_on = measure_ba(true);
  if (labels_on.feasible != labels_off.feasible ||
      labels_on.assignment != labels_off.assignment) {
    throw std::runtime_error(
        "BENCH_labels: labels-on placement differs from labels-off");
  }
  const double drop_pct =
      labels_off.stats.paths_expanded == 0
          ? 0.0
          : 100.0 *
                (1.0 - static_cast<double>(labels_on.stats.paths_expanded) /
                           static_cast<double>(labels_off.stats.paths_expanded));

  // ---- 2. Maintenance cost at Figure-7 scale ----
  const int rebuilds = smoke ? 3 : 20;
  const util::WallTimer rebuild_timer;
  for (int i = 0; i < rebuilds; ++i) {
    dc::PruneLabels fresh;
    fresh.rebuild(f.datacenter, full_occupancy.feasibility());
    benchmark::DoNotOptimize(&fresh);
  }
  const double rebuild_seconds = rebuild_timer.elapsed_seconds() / rebuilds;

  auto& m_refreshes = util::metrics::counter("labels.refreshes");
  const std::uint64_t refreshes_before = m_refreshes.value();
  const int refresh_ops = smoke ? 2000 : 100000;
  const topo::Resources slice{1.0, 2.0, 10.0};
  const auto open_host = static_cast<dc::HostId>(0);
  const util::WallTimer refresh_timer;
  for (int i = 0; i < refresh_ops; ++i) {
    // Alternating add/remove flips host 0's feasibility every other op, so
    // the measured cost covers both the early-out and the cascade path.
    full_occupancy.add_host_load(open_host, slice);
    full_occupancy.remove_host_load(open_host, slice);
  }
  const double refresh_seconds = refresh_timer.elapsed_seconds();
  const std::uint64_t refreshes = m_refreshes.value() - refreshes_before;

  util::JsonObject out;
  out["benchmark"] = "prune_labels_fig7";
  out["hosts"] = static_cast<int>(f.datacenter.host_count());
  out["ba_app_nodes"] = static_cast<int>(ba_app.node_count());
  out["ba_feasible"] = labels_on.feasible;
  out["ba_on_expansions"] =
      static_cast<std::int64_t>(labels_on.stats.paths_expanded);
  out["ba_off_expansions"] =
      static_cast<std::int64_t>(labels_off.stats.paths_expanded);
  out["ba_expansion_drop_pct"] = drop_pct;
  out["ba_on_open_queue_peak"] =
      static_cast<std::int64_t>(labels_on.stats.open_queue_peak);
  out["ba_off_open_queue_peak"] =
      static_cast<std::int64_t>(labels_off.stats.open_queue_peak);
  out["ba_on_seconds_per_plan"] = labels_on.seconds;
  out["ba_off_seconds_per_plan"] = labels_off.seconds;
  out["ba_speedup"] = labels_off.seconds / labels_on.seconds;
  out["ba_separation_escalations"] =
      static_cast<std::int64_t>(labels_on.separation_escalations);
  out["ba_host_escalations"] =
      static_cast<std::int64_t>(labels_on.host_escalations);
  out["label_rebuild_seconds"] = rebuild_seconds;
  out["label_refresh_ns_per_commit"] =
      refresh_seconds * 1e9 / (2.0 * refresh_ops);
  out["label_refreshes_per_commit"] =
      static_cast<double>(refreshes) / (2.0 * refresh_ops);
  std::ofstream file("BENCH_labels.json");
  file << util::Json(std::move(out)).pretty() << '\n';
}

}  // namespace

// google-benchmark rejects unknown flags, so --smoke (the CI sanity mode:
// every benchmark runs, but only for ~10 ms each) is peeled off before
// Initialize.
int main(int argc, char** argv) {
  std::vector<char*> args;
  bool smoke = false;
  for (int i = 0; i < argc; ++i) {
    const std::string_view view(argv[i]);
    if (view == "--smoke") {
      smoke = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  std::string min_time = "--benchmark_min_time=0.01";
  if (smoke) args.push_back(min_time.data());
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  write_candidates_json(smoke);
  write_budget_json(smoke);
  write_labels_json(smoke);
  benchmark::Shutdown();
  return 0;
}
