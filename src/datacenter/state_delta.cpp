#include "datacenter/state_delta.h"

#include <algorithm>
#include <stdexcept>

#include "util/metrics.h"

namespace ostro::dc {

topo::Resources OccupancyDelta::available(HostId h) const {
  const auto it = host_state_.find(h);
  if (it == host_state_.end()) return base_->available(h);
  return base_->datacenter().host(h).capacity - it->second.effective;
}

double OccupancyDelta::link_available_mbps(LinkId link) const {
  const auto it = link_state_.find(link);
  if (it == link_state_.end()) return base_->link_available_mbps(link);
  return base_->datacenter().link_capacity(link) - it->second.effective;
}

void OccupancyDelta::add_host_load(HostId h, const topo::Resources& load) {
  topo::require_nonnegative(load, "OccupancyDelta::add_host_load");
  auto [it, inserted] = host_state_.try_emplace(h);
  if (inserted) {
    it->second.initial = base_->used(h);  // validates h
    it->second.effective = it->second.initial;
  }
  // Same running-value arithmetic and check as Occupancy::add_host_load, so
  // staged acceptance matches what a direct application would decide.
  const topo::Resources next = it->second.effective + load;
  if (!next.fits_within(base_->datacenter().host(h).capacity)) {
    if (inserted) host_state_.erase(it);
    throw std::invalid_argument("OccupancyDelta::add_host_load: host " +
                                base_->datacenter().host(h).name +
                                " over capacity");
  }
  it->second.effective = next;
  host_ops_.push_back({h, load, false});
}

void OccupancyDelta::reserve_link(LinkId link, double mbps) {
  if (mbps < 0.0) {
    throw std::invalid_argument("OccupancyDelta::reserve_link: negative amount");
  }
  auto [it, inserted] = link_state_.try_emplace(link);
  if (inserted) {
    it->second.initial = base_->link_used_mbps(link);  // validates link
    it->second.effective = it->second.initial;
  }
  constexpr double kEps = 1e-9;
  if (it->second.effective + mbps >
      base_->datacenter().link_capacity(link) + kEps) {
    if (inserted) link_state_.erase(it);
    throw std::invalid_argument("OccupancyDelta::reserve_link: link " +
                                base_->datacenter().link_name(link) +
                                " over capacity");
  }
  it->second.effective += mbps;
  link_ops_.push_back({link, mbps, false});
}

void OccupancyDelta::remove_host_load(HostId h, const topo::Resources& load) {
  topo::require_nonnegative(load, "OccupancyDelta::remove_host_load");
  auto [it, inserted] = host_state_.try_emplace(h);
  if (inserted) {
    it->second.initial = base_->used(h);  // validates h
    it->second.effective = it->second.initial;
  }
  // Same running-value arithmetic, epsilon and clamping as
  // Occupancy::remove_host_load, so staged acceptance (and the replayed
  // result) matches a direct application bit for bit.
  const topo::Resources next = it->second.effective - load;
  constexpr double kEps = -1e-6;
  if (next.vcpus < kEps || next.mem_gb < kEps || next.disk_gb < kEps) {
    if (inserted) host_state_.erase(it);
    throw std::invalid_argument(
        "OccupancyDelta::remove_host_load: releasing more than used on " +
        base_->datacenter().host(h).name);
  }
  it->second.effective = {std::max(0.0, next.vcpus),
                          std::max(0.0, next.mem_gb),
                          std::max(0.0, next.disk_gb)};
  host_ops_.push_back({h, load, true});
}

void OccupancyDelta::release_link(LinkId link, double mbps) {
  if (mbps < 0.0) {
    throw std::invalid_argument(
        "OccupancyDelta::release_link: negative amount");
  }
  auto [it, inserted] = link_state_.try_emplace(link);
  if (inserted) {
    it->second.initial = base_->link_used_mbps(link);  // validates link
    it->second.effective = it->second.initial;
  }
  if (it->second.effective - mbps < -1e-6) {
    if (inserted) link_state_.erase(it);
    throw std::invalid_argument(
        "OccupancyDelta::release_link: releasing more than reserved on " +
        base_->datacenter().link_name(link));
  }
  it->second.effective = std::max(0.0, it->second.effective - mbps);
  link_ops_.push_back({link, mbps, true});
}

void OccupancyDelta::clear() noexcept {
  host_state_.clear();
  link_state_.clear();
  host_ops_.clear();
  link_ops_.clear();
}

void Occupancy::apply_delta(const OccupancyDelta& delta) {
  static util::metrics::Counter& m_commits =
      util::metrics::counter("occupancy.delta_commits");
  static util::metrics::Counter& m_link_ops =
      util::metrics::counter("occupancy.delta_link_ops");
  static util::metrics::Counter& m_stale =
      util::metrics::counter("occupancy.delta_stale_rejects");
  if (delta.base_ != this) {
    throw std::logic_error(
        "Occupancy::apply_delta: delta was staged against another occupancy");
  }
  // Reject a stale delta before touching anything: every snapshot taken at
  // first touch must still match, or the staged running values (and their
  // capacity checks) no longer describe this state.  With an up-to-date
  // delta the staged `effective` values already passed the same capacity
  // checks a direct application would run, so the replay below cannot
  // overflow.
  for (const auto& [host, state] : delta.host_state_) {
    if (!(host_used_[host] == state.initial)) {
      m_stale.inc();
      throw std::logic_error(
          "Occupancy::apply_delta: base host state changed since staging");
    }
  }
  for (const auto& [link, state] : delta.link_state_) {
    if (link_used_[link] != state.initial) {
      m_stale.inc();
      throw std::logic_error(
          "Occupancy::apply_delta: base link state changed since staging");
    }
  }
  // Replay the op log in staging order with the exact arithmetic of
  // add_host_load / reserve_link / remove_host_load / release_link, so the
  // result is bit-identical to a direct op-by-op application.  Releases do
  // not touch active flags, matching Occupancy::remove_host_load (the
  // caller decides when an emptied host goes dark — deactivate_if_idle).
  for (const auto& op : delta.host_ops_) {
    if (op.release) {
      const topo::Resources next = host_used_[op.host] - op.load;
      host_used_[op.host] = {std::max(0.0, next.vcpus),
                             std::max(0.0, next.mem_gb),
                             std::max(0.0, next.disk_gb)};
    } else {
      host_used_[op.host] = host_used_[op.host] + op.load;
      if (!active_[op.host]) {
        active_[op.host] = true;
        ++active_count_;
      }
    }
  }
  for (const auto& op : delta.link_ops_) {
    if (op.release) {
      link_used_[op.link] = std::max(0.0, link_used_[op.link] - op.mbps);
    } else {
      link_used_[op.link] += op.mbps;
    }
  }
  // Refresh the feasibility index once per touched host/link (not per op),
  // from the value each held at staging time to its final one: the
  // aggregates are a function of the final free values, so the result is
  // identical to per-op maintenance on the direct path.
  for (const auto& [host, state] : delta.host_state_) {
    index_host(host, state.initial);
  }
  for (const auto& [link, state] : delta.link_state_) {
    index_link(link, state.initial);
  }
  // One epoch per flushed batch: snapshot-staleness detection only needs
  // "did anything change", not an op count.
  if (!delta.host_ops_.empty() || !delta.link_ops_.empty()) ++version_;
  m_commits.inc();
  m_link_ops.add(delta.link_ops_.size());
}

}  // namespace ostro::dc
