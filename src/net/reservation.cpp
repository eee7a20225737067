#include "net/reservation.h"

#include <stdexcept>

#include "util/metrics.h"
#include "util/timer.h"

namespace ostro::net {

PlacementTransaction::~PlacementTransaction() { rollback(); }

void PlacementTransaction::commit() noexcept {
  static util::metrics::Counter& m_commits =
      util::metrics::counter("reservation.commits");
  if (!empty()) m_commits.inc();
  host_ops_.clear();
  link_ops_.clear();
}

void PlacementTransaction::rollback() noexcept {
  static util::metrics::Counter& m_rollbacks =
      util::metrics::counter("reservation.rollbacks");
  static util::metrics::Summary& m_seconds =
      util::metrics::summary("reservation.rollback_seconds");
  if (empty()) return;  // committed, rolled back, or never applied
  const util::metrics::ScopedTimer phase_timer(m_seconds);
  m_rollbacks.inc();
  // Undo in reverse order; release/remove cannot throw for amounts that were
  // successfully reserved.
  for (auto it = link_ops_.rbegin(); it != link_ops_.rend(); ++it) {
    occupancy_->release_link(it->link, it->mbps);
  }
  for (auto it = host_ops_.rbegin(); it != host_ops_.rend(); ++it) {
    occupancy_->remove_host_load(it->host, it->load);
    occupancy_->set_active(it->host, it->was_active);
  }
  host_ops_.clear();
  link_ops_.clear();
}

void PlacementTransaction::apply(const topo::AppTopology& topology,
                                 const Assignment& assignment) {
  static util::metrics::Counter& m_applies =
      util::metrics::counter("reservation.applies");
  static util::metrics::Counter& m_failures =
      util::metrics::counter("reservation.apply_failures");
  static util::metrics::Summary& m_seconds =
      util::metrics::summary("reservation.apply_seconds");
  const util::metrics::ScopedTimer phase_timer(m_seconds);
  m_applies.inc();
  if (assignment.size() != topology.node_count()) {
    m_failures.inc();
    throw std::invalid_argument(
        "PlacementTransaction::apply: assignment size mismatch");
  }
  const dc::DataCenter& datacenter = occupancy_->datacenter();
  // Record how much was already applied before this call so a failure rolls
  // back only this call's partial work, preserving earlier reservations.
  const std::size_t host_mark = host_ops_.size();
  const std::size_t link_mark = link_ops_.size();
  // One host op per node, at most hop_count(max_scope) link ops per edge:
  // reserve the op-log capacity up front instead of re-growing per push.
  const auto max_links_per_edge =
      static_cast<std::size_t>(dc::hop_count(datacenter.max_scope()));
  host_ops_.reserve(host_mark + topology.node_count());
  link_ops_.reserve(link_mark + topology.edge_count() * max_links_per_edge);

  // Validate everything against the delta overlay; the occupancy is only
  // touched by the final one-batch flush, so a failing apply causes zero
  // reserve/release churn on the base.
  delta_.clear();
  try {
    for (const auto& node : topology.nodes()) {
      const dc::HostId host = assignment[node.id];
      if (host == dc::kInvalidHost || host >= datacenter.host_count()) {
        throw std::invalid_argument("node " + node.name + " is unplaced");
      }
      const bool was_active = delta_.is_active(host);
      delta_.add_host_load(host, node.requirements);
      host_ops_.push_back({host, node.requirements, was_active});
    }
    for (const auto& edge : topology.edges()) {
      const dc::PathLinks path =
          datacenter.path_between(assignment[edge.a], assignment[edge.b]);
      for (const dc::LinkId link : path) {
        delta_.reserve_link(link, edge.bandwidth_mbps);
        link_ops_.push_back({link, edge.bandwidth_mbps});
      }
    }
    occupancy_->apply_delta(delta_);
    delta_.clear();
  } catch (...) {
    m_failures.inc();
    // Drop this call's ops; earlier, still-pending reservations (prior
    // successful apply() calls) are kept.
    host_ops_.resize(host_mark);
    link_ops_.resize(link_mark);
    delta_.clear();
    throw;
  }
}

void commit_placement(dc::Occupancy& occupancy,
                      const topo::AppTopology& topology,
                      const Assignment& assignment) {
  PlacementTransaction txn(occupancy);
  txn.apply(topology, assignment);
  txn.commit();
}

void release_placement(dc::Occupancy& occupancy,
                       const topo::AppTopology& topology,
                       const Assignment& assignment,
                       bool deactivate_emptied) {
  static util::metrics::Counter& m_releases =
      util::metrics::counter("reservation.releases");
  static util::metrics::Counter& m_failures =
      util::metrics::counter("reservation.release_failures");
  static util::metrics::Summary& m_seconds =
      util::metrics::summary("reservation.release_seconds");
  const util::metrics::ScopedTimer phase_timer(m_seconds);
  if (assignment.size() != topology.node_count()) {
    m_failures.inc();
    throw std::invalid_argument(
        "release_placement: assignment size mismatch");
  }
  const dc::DataCenter& datacenter = occupancy.datacenter();
  dc::OccupancyDelta delta(occupancy);
  try {
    for (const auto& node : topology.nodes()) {
      const dc::HostId host = assignment[node.id];
      if (host == dc::kInvalidHost || host >= datacenter.host_count()) {
        throw std::invalid_argument("release_placement: node " + node.name +
                                    " is unplaced");
      }
      delta.remove_host_load(host, node.requirements);
    }
    for (const auto& edge : topology.edges()) {
      const dc::PathLinks path =
          datacenter.path_between(assignment[edge.a], assignment[edge.b]);
      for (const dc::LinkId link : path) {
        delta.release_link(link, edge.bandwidth_mbps);
      }
    }
    occupancy.apply_delta(delta);
  } catch (...) {
    m_failures.inc();
    throw;
  }
  if (deactivate_emptied) {
    for (const dc::HostId host : assignment) {
      occupancy.deactivate_if_idle(host);  // idempotent per distinct host
    }
  }
  m_releases.inc();
}

double reserved_bandwidth_mbps(const dc::DataCenter& dc,
                               const topo::AppTopology& topology,
                               const Assignment& assignment) {
  if (assignment.size() != topology.node_count()) {
    throw std::invalid_argument("reserved_bandwidth_mbps: size mismatch");
  }
  double total = 0.0;
  for (const auto& edge : topology.edges()) {
    const auto scope = dc.scope_between(assignment[edge.a], assignment[edge.b]);
    total += edge.bandwidth_mbps * dc::hop_count(scope);
  }
  return total;
}

}  // namespace ostro::net
