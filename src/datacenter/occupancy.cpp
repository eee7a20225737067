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

void Occupancy::mark_active(HostId h) {
  check_host(h);
  if (!active_[h]) {
    active_[h] = true;
    ++active_count_;
    ++version_;
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
