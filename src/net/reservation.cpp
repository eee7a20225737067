#include "net/reservation.h"

#include <stdexcept>

#include "util/metrics.h"
#include "util/timer.h"

namespace ostro::net {

StackOps stack_ops(const dc::DataCenter& datacenter,
                   const topo::AppTopology& topology,
                   const Assignment& assignment) {
  if (assignment.size() != topology.node_count()) {
    throw std::invalid_argument("stack_ops: assignment size mismatch");
  }
  StackOps ops;
  ops.host_loads.reserve(topology.node_count());
  ops.link_mbps.reserve(
      topology.edge_count() *
      static_cast<std::size_t>(dc::hop_count(datacenter.max_scope())));
  for (const auto& node : topology.nodes()) {
    const dc::HostId host = assignment[node.id];
    if (host == dc::kInvalidHost || host >= datacenter.host_count()) {
      throw std::invalid_argument("stack_ops: node " + node.name +
                                  " is unplaced");
    }
    ops.host_loads.emplace_back(host, node.requirements);
  }
  for (const auto& edge : topology.edges()) {
    for (const dc::LinkId link :
         datacenter.path_between(assignment[edge.a], assignment[edge.b])) {
      ops.link_mbps.emplace_back(link, edge.bandwidth_mbps);
    }
  }
  return ops;
}

void stage_ops(dc::OccupancyDelta& delta, const StackOps& ops,
               OpDirection direction) {
  if (direction == OpDirection::kReserve) {
    for (const auto& [host, load] : ops.host_loads) {
      delta.add_host_load(host, load);
    }
    for (const auto& [link, mbps] : ops.link_mbps) {
      delta.reserve_link(link, mbps);
    }
  } else {
    for (const auto& [host, load] : ops.host_loads) {
      delta.remove_host_load(host, load);
    }
    for (const auto& [link, mbps] : ops.link_mbps) {
      delta.release_link(link, mbps);
    }
  }
}

void apply_ops(dc::Occupancy& occupancy, const StackOps& ops,
               OpDirection direction, bool deactivate_emptied) {
  dc::OccupancyDelta delta(occupancy);
  stage_ops(delta, ops, direction);
  occupancy.apply_delta(delta);
  if (direction == OpDirection::kRelease && deactivate_emptied) {
    for (const auto& [host, load] : ops.host_loads) {
      occupancy.deactivate_if_idle(host);  // idempotent per distinct host
    }
  }
}

void stage_move(dc::OccupancyDelta& delta, const topo::AppTopology& topology,
                Assignment& working, topo::NodeId node, dc::HostId to) {
  const dc::DataCenter& datacenter = delta.datacenter();
  const dc::HostId from = working[node];
  const topo::Resources& load = topology.node(node).requirements;
  delta.remove_host_load(from, load);
  delta.add_host_load(to, load);
  for (const topo::Neighbor& nb : topology.neighbors(node)) {
    for (const dc::LinkId link :
         datacenter.path_between(from, working[nb.node])) {
      delta.release_link(link, nb.bandwidth_mbps);
    }
    for (const dc::LinkId link :
         datacenter.path_between(to, working[nb.node])) {
      delta.reserve_link(link, nb.bandwidth_mbps);
    }
  }
  working[node] = to;
}

void commit_placement(dc::Occupancy& occupancy,
                      const topo::AppTopology& topology,
                      const Assignment& assignment) {
  static util::metrics::Counter& m_applies =
      util::metrics::counter("reservation.applies");
  static util::metrics::Counter& m_failures =
      util::metrics::counter("reservation.apply_failures");
  static util::metrics::Summary& m_seconds =
      util::metrics::summary("reservation.apply_seconds");
  const util::metrics::ScopedTimer phase_timer(m_seconds);
  m_applies.inc();
  try {
    apply_ops(occupancy,
              stack_ops(occupancy.datacenter(), topology, assignment),
              OpDirection::kReserve);
  } catch (...) {
    m_failures.inc();
    throw;
  }
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
  try {
    apply_ops(occupancy,
              stack_ops(occupancy.datacenter(), topology, assignment),
              OpDirection::kRelease, deactivate_emptied);
  } catch (...) {
    m_failures.inc();
    throw;
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
