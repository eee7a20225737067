#include "core/shard_router.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "datacenter/state_delta.h"
#include "util/metrics.h"
#include "util/timer.h"

namespace ostro::core {

namespace {

/// How many of the best-scoring shards the router tries before falling back
/// to cross-shard placement.
constexpr std::uint32_t kRouterMaxShardAttempts = 2;
/// Replans of the cross-shard path after a two-phase-commit abort.
constexpr std::uint32_t kRouterMaxCrossRetries = 2;

/// Component-wise max node requirement of a stack: the cheapest sound
/// filter against a shard's root max_free aggregate.
topo::Resources max_node_requirement(const topo::AppTopology& topology) {
  topo::Resources max_req;
  for (const topo::Node& node : topology.nodes()) {
    max_req.vcpus = std::max(max_req.vcpus, node.requirements.vcpus);
    max_req.mem_gb = std::max(max_req.mem_gb, node.requirements.mem_gb);
    max_req.disk_gb = std::max(max_req.disk_gb, node.requirements.disk_gb);
  }
  return max_req;
}

net::Assignment to_global_assignment(const dc::ShardLayout& layout,
                                     std::uint32_t shard,
                                     const net::Assignment& local) {
  net::Assignment global(local.size());
  for (std::size_t i = 0; i < local.size(); ++i) {
    global[i] = layout.to_global_host(shard, local[i]);
  }
  return global;
}

const ShardConfig& validated(const ShardConfig& config) {
  config.validate();
  return config;
}

/// Sets each op's link in `used` to step(current value, op), in order; at
/// the first nullopt restores every link set so far and returns that op
/// (nullptr when all applied).  Throws std::invalid_argument on a malformed
/// op before touching anything.
template <class Step>
const CrossShardLedger::Op* apply_all_or_nothing(
    std::vector<double>& used, const std::vector<CrossShardLedger::Op>& ops,
    Step step) {
  for (const CrossShardLedger::Op& op : ops) {
    if (op.link >= used.size() || op.mbps < 0.0) {
      throw std::invalid_argument("CrossShardLedger: malformed op");
    }
  }
  std::vector<std::pair<dc::LinkId, double>> saved;
  saved.reserve(ops.size());
  for (const CrossShardLedger::Op& op : ops) {
    const std::optional<double> next = step(used[op.link], op);
    if (!next) {
      for (auto it = saved.rbegin(); it != saved.rend(); ++it) {
        used[it->first] = it->second;
      }
      return &op;
    }
    saved.emplace_back(op.link, used[op.link]);
    used[op.link] = *next;
  }
  return nullptr;
}

}  // namespace

void ShardConfig::validate() const {
  if (shards == 0) {
    throw std::invalid_argument("ShardConfig: shards must be >= 1");
  }
}

// ---------------------------------------------------------------- ledger

CrossShardLedger::CrossShardLedger(const dc::DataCenter& global)
    : dc_(&global), used_(global.link_count(), 0.0) {}

bool CrossShardLedger::try_reserve(const std::vector<Op>& ops) {
  static util::metrics::Counter& m_reservations =
      util::metrics::counter("shard.ledger_reservations");
  static util::metrics::Counter& m_conflicts =
      util::metrics::counter("shard.ledger_conflicts");
  if (ops.empty()) return true;
  const std::lock_guard<std::mutex> lock(mutex_);
  const Op* rejected =
      apply_all_or_nothing(used_, ops, [this](double used, const Op& op) {
        return dc::link_after_reserve(used, op.mbps,
                                      dc_->link_capacity(op.link));
      });
  if (rejected != nullptr) {
    m_conflicts.inc();
    return false;
  }
  m_reservations.add(ops.size());
  return true;
}

void CrossShardLedger::release(const std::vector<Op>& ops) {
  static util::metrics::Counter& m_releases =
      util::metrics::counter("shard.ledger_releases");
  if (ops.empty()) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  const Op* rejected =
      apply_all_or_nothing(used_, ops, [](double used, const Op& op) {
        return dc::link_after_release(used, op.mbps);
      });
  if (rejected != nullptr) {
    throw std::invalid_argument(
        "CrossShardLedger: releasing more than reserved on " +
        dc_->link_name(rejected->link));
  }
  m_releases.add(ops.size());
}

double CrossShardLedger::used_mbps(dc::LinkId link) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return used_.at(link);
}

void CrossShardLedger::overlay(dc::Occupancy& global_occupancy) const {
  dc::OccupancyDelta stitch(global_occupancy);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (dc::LinkId link = 0; link < used_.size(); ++link) {
      if (used_[link] > 0.0) stitch.reserve_link(link, used_[link]);
    }
  }
  global_occupancy.apply_delta(stitch);
}

// ------------------------------------------------------------- decompose

DecomposedOps decompose_ops(const dc::ShardLayout& layout,
                            const topo::AppTopology& topology,
                            const net::Assignment& assignment) {
  const net::StackOps global =
      net::stack_ops(layout.global(), topology, assignment);
  DecomposedOps out;
  // Shard id -> index into out.shards, grown on first touch.
  std::vector<std::uint32_t> slot(layout.shard_count(),
                                  dc::ShardLayout::kLedgerOwned);
  const auto shard_ops = [&](std::uint32_t shard) -> net::StackOps& {
    if (slot[shard] == dc::ShardLayout::kLedgerOwned) {
      slot[shard] = static_cast<std::uint32_t>(out.shards.size());
      out.shards.push_back(ShardOps{shard, {}});
    }
    return out.shards[slot[shard]].ops;
  };
  for (const auto& [host, load] : global.host_loads) {
    shard_ops(layout.shard_of_host(host))
        .host_loads.emplace_back(layout.to_local_host(host), load);
  }
  for (const auto& [link, mbps] : global.link_mbps) {
    const std::uint32_t owner = layout.link_owner(link);
    if (owner == dc::ShardLayout::kLedgerOwned) {
      out.ledger.push_back({link, mbps});
    } else {
      shard_ops(owner).link_mbps.emplace_back(layout.to_local_link(link),
                                              mbps);
    }
  }
  std::sort(out.shards.begin(), out.shards.end(),
            [](const ShardOps& a, const ShardOps& b) {
              return a.shard < b.shard;
            });
  return out;
}

// ---------------------------------------------------------------- router

ShardRouter::ShardRouter(const dc::DataCenter& global,
                         const ShardConfig& config, SearchConfig defaults)
    : config_(validated(config)),
      layout_(global, config.shards),
      ledger_(global) {
  schedulers_.reserve(layout_.shard_count());
  services_.reserve(layout_.shard_count());
  for (std::uint32_t k = 0; k < layout_.shard_count(); ++k) {
    schedulers_.push_back(std::make_unique<OstroScheduler>(
        layout_.shard_datacenter(k), defaults));
    services_.push_back(std::make_unique<PlacementService>(*schedulers_[k]));
  }
}

std::uint64_t ShardRouter::append_commit(
    CommitKind kind, StackId stack_id,
    const std::shared_ptr<const topo::AppTopology>& topology,
    const net::Assignment& assignment) {
  const std::lock_guard<std::mutex> lock(log_mutex_);
  const std::uint64_t epoch = ++global_epoch_;
  if (config_.router_commit_log) {
    log_.push_back({epoch, kind, stack_id, topology, assignment});
  }
  return epoch;
}

std::vector<ShardRouter::CommitRecord> ShardRouter::commit_log() const {
  const std::lock_guard<std::mutex> lock(log_mutex_);
  return log_;
}

std::size_t ShardRouter::live_stacks() const { return registry_.size(); }

dc::Occupancy ShardRouter::stitched_snapshot() const {
  static util::metrics::Summary& m_stitch =
      util::metrics::summary("router.stitch_seconds");
  const util::metrics::ScopedTimer timer(m_stitch);
  dc::Occupancy stitched(layout_.global());
  for (std::uint32_t k = 0; k < layout_.shard_count(); ++k) {
    const dc::Occupancy snap = services_[k]->snapshot();
    layout_.overlay(stitched, k, snap);
  }
  ledger_.overlay(stitched);
  return stitched;
}

ShardRouter::Result ShardRouter::place(
    std::shared_ptr<const topo::AppTopology> topology, Algorithm algorithm) {
  return place(std::move(topology), algorithm, schedulers_[0]->defaults());
}

ShardRouter::Result ShardRouter::place(
    std::shared_ptr<const topo::AppTopology> topology, Algorithm algorithm,
    const SearchConfig& config) {
  static util::metrics::Counter& m_requests =
      util::metrics::counter("router.requests");
  static util::metrics::Counter& m_attempts =
      util::metrics::counter("router.shard_attempts");
  static util::metrics::Counter& m_single =
      util::metrics::counter("router.single_shard_committed");
  static util::metrics::Counter& m_cross_plans =
      util::metrics::counter("router.cross_shard_plans");
  static util::metrics::Counter& m_cross_committed =
      util::metrics::counter("router.cross_shard_committed");
  static util::metrics::Counter& m_cross_aborts =
      util::metrics::counter("router.cross_shard_aborts");
  m_requests.inc();

  Result result;
  const topo::AppTopology& topo_ref = *topology;

  // ---- single-shard fast path: score shards from root aggregates ----
  std::vector<std::uint32_t> candidates;
  if (shard_count() == 1) {
    // Monolithic configuration: always attempt the one shard, exactly like
    // a plain PlacementService would (the bit-identical differential).
    candidates.push_back(0);
  } else {
    const topo::Resources max_req = max_node_requirement(topo_ref);
    struct Scored {
      std::uint32_t shard;
      std::uint32_t feasible_hosts;
    };
    std::vector<Scored> scored;
    scored.reserve(shard_count());
    for (std::uint32_t k = 0; k < shard_count(); ++k) {
      const dc::FeasibilityIndex::Aggregate agg =
          services_[k]->root_aggregate();
      if (agg.feasible_hosts == 0) continue;
      if (!max_req.fits_within(agg.max_free)) continue;
      scored.push_back({k, agg.feasible_hosts});
    }
    std::sort(scored.begin(), scored.end(),
              [](const Scored& a, const Scored& b) {
                if (a.feasible_hosts != b.feasible_hosts) {
                  return a.feasible_hosts > b.feasible_hosts;
                }
                return a.shard < b.shard;
              });
    const std::size_t attempts = std::min<std::size_t>(
        scored.size(), kRouterMaxShardAttempts);
    for (std::size_t i = 0; i < attempts; ++i) {
      candidates.push_back(scored[i].shard);
    }
  }

  for (const std::uint32_t k : candidates) {
    ++result.shard_attempts;
    m_attempts.inc();
    StackId stack_id = 0;
    std::uint64_t epoch = 0;
    net::Assignment global_assignment;
    // The committer applies the shard-local commit AND draws the global
    // epoch while the shard writer lock is held, so the commit-log order
    // matches the shard's actual mutation order.
    const PlacementService::Committer committer =
        [&](const Placement& placement, std::string&) -> bool {
      schedulers_[k]->commit(topo_ref, placement);
      global_assignment =
          to_global_assignment(layout_, k, placement.assignment);
      stack_id = next_stack_id_.fetch_add(1, std::memory_order_relaxed);
      epoch = append_commit(CommitKind::kPlace, stack_id, topology,
                            global_assignment);
      return true;
    };
    ServiceResult sr =
        services_[k]->place_with(topo_ref, algorithm, config, committer);
    result.service.conflicts += sr.conflicts;
    result.service.retries += sr.retries;
    result.service.plan_epoch = sr.plan_epoch;
    if (sr.placement.committed) {
      sr.placement.assignment = std::move(global_assignment);
      result.service.placement = std::move(sr.placement);
      result.service.commit_epoch = sr.commit_epoch;
      result.shard = k;
      result.stack_id = stack_id;
      result.global_epoch = epoch;
      registry_.add(stack_id, topology, result.service.placement.assignment);
      m_single.inc();
      return result;
    }
    // Keep the last shard's verdict (in global ids where it placed) for
    // reporting if every fallback fails too.
    if (sr.placement.feasible) {
      sr.placement.assignment =
          to_global_assignment(layout_, k, sr.placement.assignment);
    }
    result.service.placement = std::move(sr.placement);
  }

  // ---- cross-shard fallback: stitched plan + two-phase commit ----
  if (shard_count() == 1) {
    if (candidates.empty()) {
      result.service.placement.feasible = false;
      result.service.placement.failure_reason =
          "router: no shard aggregate fits the stack";
    }
    return result;
  }

  for (std::uint32_t attempt = 0;; ++attempt) {
    m_cross_plans.inc();
    const dc::Occupancy stitched = stitched_snapshot();
    Placement planned =
        place_topology(stitched, topo_ref, algorithm, config);
    if (!planned.feasible) {
      result.service.placement = std::move(planned);
      return result;
    }
    if (planned.bandwidth_overcommitted) {
      planned.failure_reason =
          "placement overcommits link bandwidth; not committed";
      result.service.placement = std::move(planned);
      return result;
    }
    if (pre_commit_hook_) pre_commit_hook_(attempt);
    const StackId stack_id =
        next_stack_id_.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t epoch = 0;
    if (try_two_phase_commit(topology, planned.assignment, stack_id,
                             &epoch)) {
      planned.committed = true;
      registry_.add(stack_id, topology, planned.assignment);
      result.service.placement = std::move(planned);
      result.stack_id = stack_id;
      result.cross_shard = true;
      result.global_epoch = epoch;
      m_cross_committed.inc();
      return result;
    }
    m_cross_aborts.inc();
    ++result.service.conflicts;
    if (attempt >= kRouterMaxCrossRetries) {
      planned.committed = false;
      planned.failure_reason =
          "cross-shard commit conflict: " +
          std::to_string(kRouterMaxCrossRetries) +
          " replan(s) exhausted";
      result.service.placement = std::move(planned);
      return result;
    }
    ++result.service.retries;
  }
}

bool ShardRouter::try_two_phase_commit(
    const std::shared_ptr<const topo::AppTopology>& topology,
    const net::Assignment& assignment, StackId stack_id,
    std::uint64_t* epoch) {
  const DecomposedOps ops = decompose_ops(layout_, *topology, assignment);
  // Phase 1a — lock every participant in ascending shard id (decompose_ops
  // sorts), the global order that makes concurrent two-phase commits
  // deadlock-free.
  std::vector<PlacementService::ExclusiveSession> sessions;
  sessions.reserve(ops.shards.size());
  for (const ShardOps& shard_ops : ops.shards) {
    sessions.push_back(services_[shard_ops.shard]->exclusive());
  }
  // Phase 1b — stage one delta per participant against its LIVE occupancy.
  // Staging validates capacity and bandwidth with the exact Occupancy
  // arithmetic; a std::invalid_argument is a benign conflict (the plan was
  // against a stale stitch) and aborts with nothing touched — the sessions
  // unlock via RAII.  Any other exception is corruption and propagates.
  std::vector<dc::OccupancyDelta> deltas;
  deltas.reserve(ops.shards.size());
  try {
    for (std::size_t i = 0; i < ops.shards.size(); ++i) {
      net::stage_ops(deltas.emplace_back(sessions[i].occupancy()),
                     ops.shards[i].ops, net::OpDirection::kReserve);
    }
  } catch (const std::invalid_argument&) {
    return false;
  }
  // Phase 1c — the shared wide-area uplinks, all-or-nothing.
  if (!ledger_.try_reserve(ops.ledger)) {
    return false;
  }
  // Phase 2 — commit: flush every staged delta.  Cannot fail: each delta
  // was validated against the occupancy it flushes into, and the writer
  // locks are still held.
  for (std::size_t i = 0; i < ops.shards.size(); ++i) {
    sessions[i].occupancy().apply_delta(deltas[i]);
  }
  *epoch = append_commit(CommitKind::kPlace, stack_id, topology, assignment);
  return true;
}

bool ShardRouter::release_stack(StackId id) {
  static util::metrics::Counter& m_releases =
      util::metrics::counter("router.releases");
  const std::optional<DeployedStack> stack = registry_.remove(id);
  if (!stack.has_value()) return false;  // double-release guard
  const DecomposedOps ops =
      decompose_ops(layout_, *stack->topology, stack->assignment);
  std::vector<PlacementService::ExclusiveSession> sessions;
  sessions.reserve(ops.shards.size());
  for (const ShardOps& shard_ops : ops.shards) {
    sessions.push_back(services_[shard_ops.shard]->exclusive());
  }
  // A throw here means corrupted accounting and propagates.
  for (std::size_t i = 0; i < ops.shards.size(); ++i) {
    net::apply_ops(sessions[i].occupancy(), ops.shards[i].ops,
                   net::OpDirection::kRelease);
  }
  ledger_.release(ops.ledger);
  append_commit(CommitKind::kRelease, id, stack->topology, stack->assignment);
  m_releases.inc();
  return true;
}

// ----------------------------------------------------------------- replay

std::vector<dc::Occupancy> replay_commit_log(
    const dc::ShardLayout& layout, std::vector<ShardRouter::CommitRecord> log,
    CrossShardLedger* ledger) {
  std::sort(log.begin(), log.end(),
            [](const ShardRouter::CommitRecord& a,
               const ShardRouter::CommitRecord& b) {
              return a.global_epoch < b.global_epoch;
            });
  std::vector<dc::Occupancy> occupancies;
  occupancies.reserve(layout.shard_count());
  for (std::uint32_t k = 0; k < layout.shard_count(); ++k) {
    occupancies.emplace_back(layout.shard_datacenter(k));
  }
  CrossShardLedger local_ledger(layout.global());
  CrossShardLedger& led = ledger != nullptr ? *ledger : local_ledger;
  for (const ShardRouter::CommitRecord& record : log) {
    const DecomposedOps ops =
        decompose_ops(layout, *record.topology, record.assignment);
    const bool place = record.kind == ShardRouter::CommitKind::kPlace;
    for (const ShardOps& shard_ops : ops.shards) {
      net::apply_ops(occupancies[shard_ops.shard], shard_ops.ops,
                     place ? net::OpDirection::kReserve
                           : net::OpDirection::kRelease);
    }
    if (!place) {
      led.release(ops.ledger);
    } else if (!led.try_reserve(ops.ledger)) {
      throw std::logic_error(
          "replay_commit_log: ledger reservation failed in serial order");
    }
  }
  return occupancies;
}

}  // namespace ostro::core
