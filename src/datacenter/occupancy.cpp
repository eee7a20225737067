#include "datacenter/occupancy.h"

#include <stdexcept>

#include "util/metrics.h"

namespace ostro::dc {

Occupancy::Occupancy(const DataCenter& dc)
    : dc_(&dc),
      host_used_(dc.host_count()),
      link_used_(dc.link_count(), 0.0),
      active_(dc.host_count(), false) {
  index_.rebuild(*this);
}

void Occupancy::index_host(HostId h, const topo::Resources& old_used) {
  index_.set_host_free(h, dc_->host(h).capacity - old_used, *this);
}

void Occupancy::index_link(LinkId link, double old_used) {
  if (link < dc_->host_count()) {
    index_.set_host_uplink_free(static_cast<HostId>(link),
                                dc_->link_capacity(link) - old_used, *this);
  }
}

void Occupancy::check_host(HostId h) const {
  if (h >= host_used_.size()) {
    throw std::out_of_range("Occupancy: bad host id");
  }
}

void Occupancy::check_link(LinkId link) const {
  if (link >= link_used_.size()) {
    throw std::out_of_range("Occupancy: bad link id");
  }
}

topo::Resources Occupancy::used(HostId h) const {
  check_host(h);
  return host_used_[h];
}

topo::Resources Occupancy::available(HostId h) const {
  check_host(h);
  return available_unchecked(h);
}

double Occupancy::link_used_mbps(LinkId link) const {
  check_link(link);
  return link_used_[link];
}

double Occupancy::link_available_mbps(LinkId link) const {
  check_link(link);
  return dc_->link_capacity(link) - link_used_[link];
}

bool Occupancy::is_active(HostId h) const {
  check_host(h);
  return active_[h];
}

void Occupancy::add_host_load(HostId h, const topo::Resources& load) {
  check_host(h);
  topo::require_nonnegative(load, "add_host_load");
  const topo::Resources next = host_used_[h] + load;
  if (!next.fits_within(dc_->host(h).capacity)) {
    throw std::invalid_argument("Occupancy::add_host_load: host " +
                                dc_->host(h).name + " over capacity");
  }
  const topo::Resources old_used = host_used_[h];
  host_used_[h] = next;
  ++version_;
  index_host(h, old_used);
  if (!active_[h]) {
    active_[h] = true;
    ++active_count_;
  }
}

void Occupancy::remove_host_load(HostId h, const topo::Resources& load) {
  check_host(h);
  topo::require_nonnegative(load, "remove_host_load");
  const topo::Resources next = host_used_[h] - load;
  constexpr double kEps = -1e-6;
  if (next.vcpus < kEps || next.mem_gb < kEps || next.disk_gb < kEps) {
    throw std::invalid_argument(
        "Occupancy::remove_host_load: releasing more than used on " +
        dc_->host(h).name);
  }
  const topo::Resources old_used = host_used_[h];
  host_used_[h] = {std::max(0.0, next.vcpus), std::max(0.0, next.mem_gb),
                   std::max(0.0, next.disk_gb)};
  ++version_;
  index_host(h, old_used);
  // Active status is sticky: releasing load does not mark a host idle; the
  // caller decides (a host that hosted a tenant may still hold others not
  // tracked here).
}

void Occupancy::reserve_link(LinkId link, double mbps) {
  static util::metrics::Counter& m_reservations =
      util::metrics::counter("occupancy.link_reservations");
  static util::metrics::Summary& m_mbps =
      util::metrics::summary("occupancy.link_reserved_mbps");
  check_link(link);
  if (mbps < 0.0) {
    throw std::invalid_argument("Occupancy::reserve_link: negative amount");
  }
  constexpr double kEps = 1e-9;
  if (link_used_[link] + mbps > dc_->link_capacity(link) + kEps) {
    throw std::invalid_argument("Occupancy::reserve_link: link " +
                                dc_->link_name(link) + " over capacity");
  }
  const double old_used = link_used_[link];
  link_used_[link] += mbps;
  ++version_;
  index_link(link, old_used);
  m_reservations.inc();
  m_mbps.observe(mbps);
}

void Occupancy::release_link(LinkId link, double mbps) {
  static util::metrics::Counter& m_releases =
      util::metrics::counter("occupancy.link_releases");
  check_link(link);
  if (mbps < 0.0) {
    throw std::invalid_argument("Occupancy::release_link: negative amount");
  }
  if (link_used_[link] - mbps < -1e-6) {
    throw std::invalid_argument(
        "Occupancy::release_link: releasing more than reserved on " +
        dc_->link_name(link));
  }
  const double old_used = link_used_[link];
  link_used_[link] = std::max(0.0, link_used_[link] - mbps);
  ++version_;
  index_link(link, old_used);
  m_releases.inc();
}

void Occupancy::mark_active(HostId h) {
  check_host(h);
  if (!active_[h]) {
    active_[h] = true;
    ++active_count_;
    ++version_;
  }
}

void Occupancy::set_active(HostId h, bool active) {
  check_host(h);
  if (active_[h] == active) return;
  active_[h] = active;
  ++version_;
  if (active) {
    ++active_count_;
  } else {
    --active_count_;
  }
}

bool Occupancy::deactivate_if_idle(HostId h) {
  static util::metrics::Counter& m_deactivations =
      util::metrics::counter("occupancy.host_deactivations");
  check_host(h);
  if (!active_[h] || !host_used_[h].is_zero()) return false;
  active_[h] = false;
  --active_count_;
  ++version_;
  m_deactivations.inc();
  return true;
}

double Occupancy::total_reserved_mbps() const noexcept {
  double total = 0.0;
  for (double used : link_used_) total += used;
  return total;
}

}  // namespace ostro::dc
