#include "core/placement_io.h"

#include "core/objective.h"
#include "core/partial.h"
#include "core/verify.h"

namespace ostro::core {

util::Json placement_to_json(const Placement& placement,
                             const topo::AppTopology& topology,
                             const dc::DataCenter& datacenter) {
  if (!placement.feasible) {
    throw PlacementIoError("placement_to_json: placement is infeasible");
  }
  if (placement.assignment.size() != topology.node_count()) {
    throw PlacementIoError("placement_to_json: assignment size mismatch");
  }
  util::JsonObject assignment;
  for (const auto& node : topology.nodes()) {
    const dc::HostId host = placement.assignment[node.id];
    if (host == dc::kInvalidHost || host >= datacenter.host_count()) {
      throw PlacementIoError("placement_to_json: node " + node.name +
                             " unplaced");
    }
    assignment[node.name] = datacenter.host(host).name;
  }
  util::JsonObject document;
  document["assignment"] = util::Json(std::move(assignment));
  document["utility"] = placement.utility;
  document["reserved_bandwidth_mbps"] = placement.reserved_bandwidth_mbps;
  document["new_active_hosts"] = placement.new_active_hosts;
  document["hosts_used"] = placement.hosts_used;
  return util::Json(std::move(document));
}

Placement placement_from_json(const util::Json& document,
                              const topo::AppTopology& topology,
                              const dc::Occupancy& base,
                              const SearchConfig& config) {
  if (!document.is_object() || !document.contains("assignment")) {
    throw PlacementIoError("placement document has no assignment object");
  }
  const util::Json& mapping = document.at("assignment");
  if (!mapping.is_object()) {
    throw PlacementIoError("placement field \"assignment\" is not an object");
  }

  net::Assignment assignment(topology.node_count(), dc::kInvalidHost);
  for (const auto& [node_name, host_name] : mapping.as_object()) {
    if (!host_name.is_string()) {
      throw PlacementIoError("placement field \"assignment." + node_name +
                             "\" is not a host name string");
    }
    const auto node = topology.find_node(node_name);
    if (!node) {
      throw PlacementIoError("placement names unknown node " + node_name);
    }
    const auto host = base.datacenter().find_host(host_name.as_string());
    if (!host) {
      throw PlacementIoError("placement names unknown host " +
                             host_name.as_string());
    }
    assignment[*node] = *host;
  }
  for (const auto& node : topology.nodes()) {
    if (assignment[node.id] == dc::kInvalidHost) {
      throw PlacementIoError("placement is missing node " + node.name);
    }
  }

  const auto violations = verify_placement(base, topology, assignment);
  if (!violations.empty()) {
    throw PlacementIoError("placement no longer validates: " +
                           violations.front());
  }

  // Recompute the metrics from scratch; the document's values are only
  // informational and may come from a different occupancy state.
  const Objective objective(topology, base.datacenter(), config);
  PartialPlacement state(topology, base, objective);
  for (topo::NodeId v = 0; v < assignment.size(); ++v) {
    state.place(v, assignment[v]);
  }
  Placement out;
  out.feasible = true;
  out.assignment = std::move(assignment);
  out.utility = state.utility_committed();
  out.reserved_bandwidth_mbps = state.ubw();
  out.new_active_hosts = state.new_active_hosts();
  out.hosts_used = static_cast<int>(state.used_hosts().size());
  return out;
}

std::string placement_to_text(const Placement& placement,
                              const topo::AppTopology& topology,
                              const dc::DataCenter& datacenter) {
  return placement_to_json(placement, topology, datacenter).pretty();
}

Placement placement_from_text(const std::string& text,
                              const topo::AppTopology& topology,
                              const dc::Occupancy& base,
                              const SearchConfig& config) {
  try {
    return placement_from_json(util::Json::parse(text), topology, base,
                               config);
  } catch (const util::JsonError& e) {
    throw PlacementIoError(std::string("placement is not valid JSON: ") +
                           e.what());
  }
}

}  // namespace ostro::core
