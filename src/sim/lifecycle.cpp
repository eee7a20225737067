#include "sim/lifecycle.h"

#include <cmath>
#include <utility>

#include "util/timer.h"

namespace ostro::sim {

Lifecycle::Lifecycle(core::PlacementService& service, LifecycleConfig config)
    : service_(&service),
      config_(config),
      defrag_(service, registry_, config.defrag_config),
      arrival_rng_(util::Rng(config.seed).fork(1)),
      lifetime_rng_(util::Rng(config.seed).fork(2)),
      workload_rng_(util::Rng(config.seed).fork(3)),
      failure_rng_(util::Rng(config.seed).fork(4)),
      quarantine_(service.datacenter().host_count()),
      failed_(service.datacenter().host_count(), 0) {}

void Lifecycle::push(double time, EventKind kind, std::uint64_t payload) {
  if (time > config_.duration_s) return;
  events_.push(Event{time, next_seq_++, kind, payload});
}

double Lifecycle::exponential(util::Rng& rng, double mean) {
  // Inverse-CDF sampling; uniform01() < 1 so the log argument stays > 0.
  return -mean * std::log(1.0 - rng.uniform01());
}

void Lifecycle::on_arrival(double now, LifecycleStats& stats) {
  ++stats.arrivals;
  auto topology = std::make_shared<const topo::AppTopology>(
      make_multitier(config_.stack_vms, config_.mix, workload_rng_));
  util::WallTimer timer;
  const core::ServiceResult result =
      service_->place(*topology, config_.algorithm);
  stats.plan_seconds.add(timer.elapsed_seconds());
  if (result.placement.committed) {
    ++stats.placements_committed;
    const core::StackId id = next_stack_id_++;
    registry_.add(id, std::move(topology), result.placement.assignment);
    push(now + exponential(lifetime_rng_, config_.mean_lifetime_s),
         EventKind::kDeparture, id);
  } else {
    ++stats.placements_failed;
  }
  // Poisson process: next arrival after an exponential gap.
  push(now + exponential(arrival_rng_, 1.0 / config_.arrival_rate_per_s),
       EventKind::kArrival, 0);
}

void Lifecycle::on_departure(core::StackId id, LifecycleStats& stats) {
  // false means a host failure already killed the stack — the registry's
  // exactly-once remove is the double-release guard.
  if (service_->release_stack(registry_, id)) ++stats.departures;
}

void Lifecycle::on_host_failure(double now, LifecycleStats& stats) {
  const std::size_t host_count = service_->datacenter().host_count();
  // Draw among currently-healthy hosts; with everything down (degenerate
  // configs), skip the event but keep the process alive.
  std::vector<dc::HostId> healthy;
  healthy.reserve(host_count);
  for (dc::HostId h = 0; h < host_count; ++h) {
    if (!failed_[h]) healthy.push_back(h);
  }
  if (!healthy.empty()) {
    const dc::HostId victim = healthy[static_cast<std::size_t>(
        failure_rng_.next_below(healthy.size()))];
    std::size_t killed = 0;
    quarantine_[victim] = service_->fail_host(registry_, victim, &killed);
    failed_[victim] = 1;
    ++stats.host_failures;
    stats.stacks_killed += killed;
    push(now + config_.host_repair_s, EventKind::kHostRepair, victim);
  }
  const double cluster_rate =
      static_cast<double>(host_count) / config_.host_mtbf_s;
  push(now + exponential(failure_rng_, 1.0 / cluster_rate),
       EventKind::kHostFailure, 0);
}

void Lifecycle::on_host_repair(dc::HostId host, LifecycleStats& stats) {
  service_->repair_host(host, quarantine_[host]);
  quarantine_[host] = {};
  failed_[host] = 0;
  ++stats.host_repairs;
}

void Lifecycle::on_sample(double now, LifecycleStats& stats) {
  const dc::Occupancy snapshot = service_->snapshot();
  const dc::FragmentationStats frag =
      dc::observe_fragmentation(snapshot, config_.reference_vm);
  stats.trajectory.push_back(TrajectoryPoint{
      now, frag.frag_index, frag.unusable_free_cpu_fraction,
      frag.used_cpu_fraction, frag.feasible_host_fraction, registry_.size(),
      snapshot.active_host_count()});
  push(now + config_.sample_interval_s, EventKind::kSample, 0);
}

LifecycleStats Lifecycle::run() {
  LifecycleStats stats;
  push(exponential(arrival_rng_, 1.0 / config_.arrival_rate_per_s),
       EventKind::kArrival, 0);
  if (config_.host_mtbf_s > 0.0) {
    const double cluster_rate =
        static_cast<double>(service_->datacenter().host_count()) /
        config_.host_mtbf_s;
    push(exponential(failure_rng_, 1.0 / cluster_rate),
         EventKind::kHostFailure, 0);
  }
  if (config_.defrag && config_.defrag_interval_s > 0.0) {
    push(config_.defrag_interval_s, EventKind::kDefragTick, 0);
  }
  if (config_.sample_interval_s > 0.0) {
    push(config_.sample_interval_s, EventKind::kSample, 0);
  }

  while (!events_.empty()) {
    const Event event = events_.top();
    events_.pop();
    switch (event.kind) {
      case EventKind::kArrival:
        on_arrival(event.time, stats);
        break;
      case EventKind::kDeparture:
        on_departure(event.payload, stats);
        break;
      case EventKind::kHostFailure:
        on_host_failure(event.time, stats);
        break;
      case EventKind::kHostRepair:
        on_host_repair(static_cast<dc::HostId>(event.payload), stats);
        break;
      case EventKind::kDefragTick: {
        const core::DefragStats defrag_stats = defrag_.run_once();
        ++stats.defrag_runs;
        stats.defrag_moves += defrag_stats.moves_committed;
        push(event.time + config_.defrag_interval_s, EventKind::kDefragTick,
             0);
        break;
      }
      case EventKind::kSample:
        on_sample(event.time, stats);
        break;
    }
  }
  stats.final_frag =
      dc::observe_fragmentation(service_->snapshot(), config_.reference_vm);
  return stats;
}

}  // namespace ostro::sim
