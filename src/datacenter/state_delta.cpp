#include "datacenter/state_delta.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

#include "util/metrics.h"

namespace ostro::dc {
namespace {

/// Slack of a link reservation's capacity check (hosts use
/// Resources::fits_within's equal slack).
constexpr double kReserveSlack = 1e-9;
/// How far below zero a release may leave a value (floating-point
/// accumulation error) before it counts as releasing more than held.
constexpr double kReleaseTolerance = 1e-6;

/// A released value, or nullopt when it is below zero by more than the
/// tolerance.  A value within the tolerance of zero is exactly 0, so
/// releasing what was reserved never leaves a residue (0.1 + 0.2 - 0.1 -
/// 0.2 would otherwise keep 2.8e-17 and the host would never read idle).
[[nodiscard]] std::optional<double> released(double next) noexcept {
  if (next < -kReleaseTolerance) return std::nullopt;
  return next <= kReleaseTolerance ? 0.0 : next;
}

/// Reserved bandwidth of a link holding `used` of `capacity` Mbps after
/// reserving `mbps` more, or nullopt when that exceeds the capacity.
[[nodiscard]] std::optional<double> link_after_reserve(
    double used, double mbps, double capacity) noexcept {
  if (used + mbps > capacity + kReserveSlack) return std::nullopt;
  return used + mbps;
}

/// Reserved bandwidth after releasing `mbps` of `used` (see released).
[[nodiscard]] std::optional<double> link_after_release(double used,
                                                       double mbps) noexcept {
  return released(used - mbps);
}

/// Position of `id` in an id-sorted entry table, or where it would go.
/// Checks the back first so ascending bulk staging appends in O(1).
template <class Entries, class Id>
[[nodiscard]] auto slot_of(Entries& entries, Id id) {
  if (entries.empty() || entries.back().id < id) return entries.end();
  return std::lower_bound(
      entries.begin(), entries.end(), id,
      [](const auto& entry, Id value) { return entry.id < value; });
}

}  // namespace

topo::Resources OccupancyDelta::available(HostId h) const {
  const auto it = slot_of(hosts_, h);
  if (it == hosts_.end() || it->id != h) return base_->available(h);
  return base_->datacenter().host(h).capacity - it->staged;
}

double OccupancyDelta::link_available_mbps(LinkId link) const {
  const auto it = slot_of(links_, link);
  if (it == links_.end() || it->id != link) {
    return base_->link_available_mbps(link);
  }
  return base_->datacenter().link_capacity(link) - it->staged;
}

void OccupancyDelta::add_host_load(HostId h, const topo::Resources& load) {
  stage_host(h, load, false);
}

void OccupancyDelta::remove_host_load(HostId h, const topo::Resources& load) {
  stage_host(h, load, true);
}

void OccupancyDelta::reserve_link(LinkId link, double mbps) {
  stage_link(link, mbps, false);
}

void OccupancyDelta::release_link(LinkId link, double mbps) {
  stage_link(link, mbps, true);
}

void OccupancyDelta::stage_host(HostId h, const topo::Resources& load,
                                bool release) {
  topo::require_nonnegative(load, release ? "OccupancyDelta::remove_host_load"
                                          : "OccupancyDelta::add_host_load");
  const auto it = slot_of(hosts_, h);
  const bool touched = it != hosts_.end() && it->id == h;
  const topo::Resources used = touched ? it->staged : base_->used(h);
  const Host& host = base_->datacenter().host(h);
  topo::Resources next;
  if (release) {
    const topo::Resources diff = used - load;
    const auto vcpus = released(diff.vcpus);
    const auto mem_gb = released(diff.mem_gb);
    const auto disk_gb = released(diff.disk_gb);
    if (!vcpus || !mem_gb || !disk_gb) {
      throw std::invalid_argument(
          "OccupancyDelta::remove_host_load: releasing more than used on " +
          host.name);
    }
    next = {*vcpus, *mem_gb, *disk_gb};
  } else {
    next = used + load;
    if (!next.fits_within(host.capacity)) {
      throw std::invalid_argument("OccupancyDelta::add_host_load: host " +
                                  host.name + " over capacity");
    }
  }
  if (touched) {
    it->staged = next;
    it->loaded = it->loaded || !release;
  } else {
    hosts_.insert(it, {h, !release, used, next});
  }
  ++host_ops_;
}

void OccupancyDelta::stage_link(LinkId link, double mbps, bool release) {
  if (mbps < 0.0) {
    throw std::invalid_argument(
        release ? "OccupancyDelta::release_link: negative amount"
                : "OccupancyDelta::reserve_link: negative amount");
  }
  const auto it = slot_of(links_, link);
  const bool touched = it != links_.end() && it->id == link;
  const double used = touched ? it->staged : base_->link_used_mbps(link);
  const std::optional<double> next =
      release ? link_after_release(used, mbps)
              : link_after_reserve(used, mbps,
                                   base_->datacenter().link_capacity(link));
  if (!next) {
    const std::string name = base_->datacenter().link_name(link);
    throw std::invalid_argument(
        release ? "OccupancyDelta::release_link: releasing more than "
                  "reserved on " + name
                : "OccupancyDelta::reserve_link: link " + name +
                      " over capacity");
  }
  if (touched) {
    it->staged = *next;
  } else {
    links_.insert(it, {link, used, *next});
  }
  ++link_ops_;
}

void OccupancyDelta::clear() noexcept {
  hosts_.clear();
  links_.clear();
  host_ops_ = 0;
  link_ops_ = 0;
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
  // first touch must still match, or the staged values (and the checks
  // that accepted them) no longer describe this state.
  for (const auto& entry : delta.hosts_) {
    if (!(host_used_[entry.id] == entry.initial)) {
      m_stale.inc();
      throw std::logic_error(
          "Occupancy::apply_delta: base host state changed since staging");
    }
  }
  for (const auto& entry : delta.links_) {
    if (link_used_[entry.id] != entry.initial) {
      m_stale.inc();
      throw std::logic_error(
          "Occupancy::apply_delta: base link state changed since staging");
    }
  }
  // Write each touched entry's staged value and refresh the feasibility
  // index once per entry, from its value at staging time: the aggregates
  // are a function of the final free values alone.  A host that received
  // load becomes active; releases leave flags alone.
  for (const auto& entry : delta.hosts_) {
    host_used_[entry.id] = entry.staged;
    if (entry.loaded && !active_[entry.id]) {
      active_[entry.id] = true;
      ++active_count_;
    }
    index_host(entry.id, entry.initial);
  }
  for (const auto& entry : delta.links_) {
    link_used_[entry.id] = entry.staged;
    index_link(entry.id, entry.initial);
  }
  // One epoch per flushed batch: snapshot-staleness detection only needs
  // "did anything change", not an op count.
  if (!delta.empty()) ++version_;
  m_commits.inc();
  m_link_ops.add(delta.link_ops_);
}

}  // namespace ostro::dc
