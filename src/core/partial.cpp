#include "core/partial.h"

#include <algorithm>
#include <stdexcept>

namespace ostro::core {
namespace {

/// Scope a diversity level forces between two co-zoned nodes.
[[nodiscard]] dc::Scope forced_scope(topo::DiversityLevel level) noexcept {
  switch (level) {
    case topo::DiversityLevel::kHost: return dc::Scope::kSameRack;
    case topo::DiversityLevel::kRack: return dc::Scope::kSamePod;
    case topo::DiversityLevel::kPod: return dc::Scope::kSameSite;
    case topo::DiversityLevel::kDatacenter: return dc::Scope::kCrossSite;
  }
  return dc::Scope::kSameRack;
}

/// Positive compute requirements (vcpus and mem_gb): only then does "no
/// compute-feasible host" imply "this node cannot land there".  The label
/// counters track compute feasibility and ignore disk, so a zero-disk VM is
/// still covered; a volume (zero compute) fits a compute-exhausted host,
/// which the counters don't see, and must not be tightened dynamically.
[[nodiscard]] bool requires_compute(const topo::Resources& r) noexcept {
  constexpr double kEps = 1e-9;
  return r.vcpus > kEps && r.mem_gb > kEps;
}

}  // namespace

PartialPlacement::PartialPlacement(const topo::AppTopology& topology,
                                   const dc::Occupancy& base,
                                   const Objective& objective,
                                   bool use_prune_labels)
    : topology_(&topology),
      base_(&base),
      objective_(&objective),
      use_prune_labels_(use_prune_labels),
      assignment_(topology.node_count(), dc::kInvalidHost) {
  for (const auto& edge : topology_->edges()) {
    bound_sum_ += edge_lower_bound(edge);
  }
}

topo::Resources PartialPlacement::available(dc::HostId host) const {
  topo::Resources avail = base_->available(host);
  const auto it = host_delta_.find(host);
  if (it != host_delta_.end()) avail -= it->second;
  return avail;
}

double PartialPlacement::link_available(dc::LinkId link) const {
  double avail = base_->link_available_mbps(link);
  const auto it = link_delta_.find(link);
  if (it != link_delta_.end()) avail -= it->second;
  return avail;
}

bool PartialPlacement::is_active(dc::HostId host) const {
  if (base_->is_active(host)) return true;
  return std::find(newly_active_.begin(), newly_active_.end(), host) !=
         newly_active_.end();
}

bool PartialPlacement::capacity_ok(topo::NodeId node, dc::HostId host) const {
  return topology_->node(node).requirements.fits_within(available(host));
}

bool PartialPlacement::zones_ok(topo::NodeId node, dc::HostId host) const {
  const dc::DataCenter& datacenter = base_->datacenter();
  for (const auto zone_index : topology_->zones_of(node)) {
    const auto& zone = topology_->zones()[zone_index];
    for (const topo::NodeId member : zone.members) {
      if (member == node) continue;
      const dc::HostId member_host = assignment_[member];
      if (member_host == dc::kInvalidHost) continue;
      if (!datacenter.separated_at(host, member_host, zone.level)) {
        return false;
      }
    }
  }
  return true;
}

bool PartialPlacement::bandwidth_ok(topo::NodeId node, dc::HostId host) const {
  // Pipes from `node` to already-placed neighbors may share physical links
  // (e.g. both traverse the candidate host's uplink), so demands are
  // aggregated per link before the availability check.  The distinct-link
  // fan is tiny (at most 4 + 4 x degree, mostly shared), so a flat scratch
  // with linear-scan aggregation replaces the per-call hash map and
  // allocates nothing once warm.
  thread_local std::vector<std::pair<dc::LinkId, double>> demand;
  demand.clear();
  const dc::DataCenter& datacenter = base_->datacenter();
  for (const auto& nb : topology_->neighbors(node)) {
    const dc::HostId other = assignment_[nb.node];
    if (other == dc::kInvalidHost) continue;
    const dc::PathLinks path = datacenter.path_between(host, other);
    for (const dc::LinkId link : path) {
      bool found = false;
      for (auto& [seen, mbps] : demand) {
        if (seen == link) {
          mbps += nb.bandwidth_mbps;
          found = true;
          break;
        }
      }
      if (!found) demand.emplace_back(link, nb.bandwidth_mbps);
    }
  }
  constexpr double kEps = 1e-9;
  for (const auto& [link, mbps] : demand) {
    if (mbps > link_available(link) + kEps) return false;
  }
  return true;
}

bool PartialPlacement::tags_ok(topo::NodeId node, dc::HostId host) const {
  const auto& required = topology_->node(node).required_tags;
  if (required.empty()) return true;
  return datacenter().host(host).has_all_tags(required);
}

bool PartialPlacement::affinity_ok(topo::NodeId node, dc::HostId host) const {
  const dc::DataCenter& datacenter_ref = base_->datacenter();
  for (const auto group_index : topology_->affinities_of(node)) {
    const auto& group = topology_->affinities()[group_index];
    for (const topo::NodeId member : group.members) {
      if (member == node) continue;
      const dc::HostId member_host = assignment_[member];
      if (member_host == dc::kInvalidHost) continue;
      // Affinity is the negation of diversity at the same level: the two
      // hosts must NOT be separated at `group.level`.
      if (datacenter_ref.separated_at(host, member_host, group.level)) {
        return false;
      }
    }
  }
  return true;
}

bool PartialPlacement::latency_ok(topo::NodeId node, dc::HostId host) const {
  const dc::DataCenter& datacenter_ref = base_->datacenter();
  for (const auto& nb : topology_->neighbors(node)) {
    const auto& edge = topology_->edges()[nb.edge_index];
    if (edge.max_latency_us <= 0.0) continue;
    const dc::HostId other = assignment_[nb.node];
    if (other == dc::kInvalidHost) continue;
    const dc::Scope scope = datacenter_ref.scope_between(host, other);
    if (datacenter_ref.scope_latency_us(scope) > edge.max_latency_us) {
      return false;
    }
  }
  return true;
}

dc::Scope PartialPlacement::zone_scope_to_host(topo::NodeId node,
                                               dc::HostId host) const {
  const dc::DataCenter& datacenter = base_->datacenter();
  dc::Scope scope = dc::Scope::kSameHost;
  for (const auto zone_index : topology_->zones_of(node)) {
    const auto& zone = topology_->zones()[zone_index];
    for (const topo::NodeId member : zone.members) {
      if (member == node) continue;
      const dc::HostId member_host = assignment_[member];
      if (member_host == dc::kInvalidHost) continue;
      // `node` must sit at least `zone.level`-separated from member_host;
      // that matters for its distance to `host` only when `host` is within
      // the forbidden unit around member_host.
      if (!datacenter.separated_at(host, member_host, zone.level)) {
        scope = std::max(scope, forced_scope(zone.level));
      }
    }
  }
  return scope;
}

dc::Scope PartialPlacement::min_scope_to_host(topo::NodeId node,
                                              dc::HostId host) const {
  dc::Scope scope = zone_scope_to_host(node, host);
  if (scope == dc::Scope::kSameHost &&
      !topology_->node(node).requirements.fits_within(available(host))) {
    scope = dc::Scope::kSameRack;  // cannot co-locate; >= 2 links away
  }
  return scope;
}

double PartialPlacement::edge_lower_bound(const topo::Edge& edge) const {
  const bool a_placed = assignment_[edge.a] != dc::kInvalidHost;
  const bool b_placed = assignment_[edge.b] != dc::kInvalidHost;
  if (a_placed && b_placed) return 0.0;  // actual cost lives in ubw_

  if (!a_placed && !b_placed) {
    const topo::Resources& req_a = topology_->node(edge.a).requirements;
    const topo::Resources& req_b = topology_->node(edge.b).requirements;
    dc::Scope scope = dc::Scope::kSameHost;
    if (const auto level = topology_->required_separation(edge.a, edge.b)) {
      scope = forced_scope(*level);
    }
    if (scope == dc::Scope::kSameHost) {
      const topo::Resources combined = req_a + req_b;
      if (!combined.fits_within(datacenter().max_host_capacity())) {
        scope = dc::Scope::kSameRack;
      } else if (use_prune_labels_ &&
                 !combined.fits_within(
                     base_->feasibility().root().max_free)) {
        // No host currently offers the combined free capacity, and search
        // overlays only consume more: co-location is impossible in any
        // completion of this plan.
        scope = dc::Scope::kSameRack;
      }
    }
    if (use_prune_labels_ && scope != dc::Scope::kSameHost) {
      scope = base_->labels().tighten_separation(
          scope, requires_compute(req_a) && requires_compute(req_b));
    }
    return Objective::edge_cost(edge.bandwidth_mbps, scope);
  }

  const topo::NodeId placed = a_placed ? edge.a : edge.b;
  const topo::NodeId free = a_placed ? edge.b : edge.a;
  dc::Scope scope = min_scope_to_host(free, assignment_[placed]);
  if (use_prune_labels_ && scope != dc::Scope::kSameHost) {
    const topo::Resources& req = topology_->node(free).requirements;
    scope = base_->labels().tighten_to_host(
        scope, assignment_[placed], req, requires_compute(req),
        edge.bandwidth_mbps, base_->feasibility());
  }
  return Objective::edge_cost(edge.bandwidth_mbps, scope);
}

bool PartialPlacement::has_link_overcommit() const {
  constexpr double kEps = 1e-6;
  for (const auto& [link, used] : link_delta_) {
    if (used > base_->link_available_mbps(link) + kEps) return true;
  }
  return false;
}

double PartialPlacement::pending_uplink_mbps(dc::HostId host) const {
  const auto it = pending_uplink_.find(host);
  return it == pending_uplink_.end() ? 0.0 : it->second;
}

double PartialPlacement::pending_rack_uplink_mbps(std::uint32_t rack) const {
  const auto it = pending_rack_uplink_.find(rack);
  return it == pending_rack_uplink_.end() ? 0.0 : it->second;
}

double PartialPlacement::placed_neighbor_demand(
    topo::NodeId node, std::vector<dc::HostId>& hosts_out) const {
  double demand = 0.0;
  for (const auto& nb : topology_->neighbors(node)) {
    const dc::HostId other = assignment_[nb.node];
    if (other == dc::kInvalidHost) continue;
    demand += nb.bandwidth_mbps;
    hosts_out.push_back(other);
  }
  return demand;
}

double PartialPlacement::edge_bound(std::uint32_t edge_index) const {
  if (edge_index >= topology_->edge_count()) {
    throw std::out_of_range("PartialPlacement::edge_bound: bad index");
  }
  return edge_lower_bound(topology_->edges()[edge_index]);
}

void PartialPlacement::collect_affected_edges(
    topo::NodeId node, dc::HostId host,
    std::vector<std::uint32_t>& out) const {
  // (1) Pipes of the node itself.
  for (const auto& nb : topology_->neighbors(node)) {
    out.push_back(nb.edge_index);
  }
  // (2) Pipes from residents of `host` to unplaced endpoints: the host's
  // residual shrinks, which may push their co-location bound to >= 1 rack.
  for (topo::NodeId v = 0; v < assignment_.size(); ++v) {
    if (assignment_[v] != host) continue;
    for (const auto& nb : topology_->neighbors(v)) {
      if (assignment_[nb.node] == dc::kInvalidHost) {
        out.push_back(nb.edge_index);
      }
    }
  }
  // (3) Pipes of unplaced zone-mates of `node` whose other endpoint is
  // placed: the new member placement may tighten zone_scope_to_host.
  for (const auto zone_index : topology_->zones_of(node)) {
    const auto& zone = topology_->zones()[zone_index];
    for (const topo::NodeId member : zone.members) {
      if (member == node || assignment_[member] != dc::kInvalidHost) continue;
      for (const auto& nb : topology_->neighbors(member)) {
        if (assignment_[nb.node] != dc::kInvalidHost) {
          out.push_back(nb.edge_index);
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

void PartialPlacement::place(topo::NodeId node, dc::HostId host) {
  if (node >= assignment_.size()) {
    throw std::logic_error("PartialPlacement::place: bad node id");
  }
  if (assignment_[node] != dc::kInvalidHost) {
    throw std::logic_error("PartialPlacement::place: node already placed");
  }
  if (host >= datacenter().host_count()) {
    throw std::logic_error("PartialPlacement::place: bad host id");
  }

  // Reused scratch: the affected-edge list is bounded by the edge count, so
  // it is reserved once per thread instead of growing per place() call.
  thread_local std::vector<std::uint32_t> affected;
  affected.clear();
  if (affected.capacity() < topology_->edge_count()) {
    affected.reserve(topology_->edge_count());
  }
  collect_affected_edges(node, host, affected);
  double old_bounds = 0.0;
  for (const auto e : affected) {
    old_bounds += edge_lower_bound(topology_->edges()[e]);
  }

  const topo::Node& n = topology_->node(node);
  const auto [host_delta, inserted] = host_delta_.try_emplace(host);
  host_delta->second += n.requirements;
  if (inserted) used_hosts_.push_back(host);
  if (!base_->is_active(host) &&
      std::find(newly_active_.begin(), newly_active_.end(), host) ==
          newly_active_.end()) {
    newly_active_.push_back(host);
  }
  assignment_[node] = host;
  ++placed_count_;

  // Pipes that are now fully placed: add their actual cost, reserve
  // bandwidth along the physical path, and resolve the counterpart host's
  // pending-uplink obligation.  Pipes to still-unplaced neighbors become
  // this host's pending obligation.
  const dc::DataCenter& datacenter_ref = base_->datacenter();
  const std::uint32_t host_rack = datacenter_ref.ancestors(host).rack;
  for (const auto& nb : topology_->neighbors(node)) {
    const dc::HostId other = assignment_[nb.node];
    if (other == dc::kInvalidHost) {
      pending_uplink_[host] += nb.bandwidth_mbps;
      pending_rack_uplink_[host_rack] += nb.bandwidth_mbps;
      continue;
    }
    const auto pending = pending_uplink_.find(other);
    if (pending != pending_uplink_.end()) {
      pending->second = std::max(0.0, pending->second - nb.bandwidth_mbps);
    }
    const auto rack_pending =
        pending_rack_uplink_.find(datacenter_ref.ancestors(other).rack);
    if (rack_pending != pending_rack_uplink_.end()) {
      rack_pending->second =
          std::max(0.0, rack_pending->second - nb.bandwidth_mbps);
    }
    const dc::Scope scope = datacenter_ref.scope_between(host, other);
    ubw_ += Objective::edge_cost(nb.bandwidth_mbps, scope);
    const dc::PathLinks path = datacenter_ref.path_between(host, other);
    for (const dc::LinkId link : path) {
      link_delta_[link] += nb.bandwidth_mbps;
    }
  }

  double new_bounds = 0.0;
  for (const auto e : affected) {
    new_bounds += edge_lower_bound(topology_->edges()[e]);
  }
  bound_sum_ += new_bounds - old_bounds;
}

}  // namespace ostro::core
