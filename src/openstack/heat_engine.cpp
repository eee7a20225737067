#include "openstack/heat_engine.h"

#include "core/verify.h"
#include "datacenter/state_delta.h"
#include "openstack/nova.h"

namespace ostro::os {

StackDeployment HeatEngine::deploy(const util::Json& annotated) {
  StackDeployment result;
  HeatTemplate parsed;
  try {
    parsed = HeatTemplate::parse(annotated);
  } catch (const TemplateError& e) {
    result.failure = e.what();
    return result;
  }
  const topo::AppTopology& topology = parsed.topology;
  const dc::DataCenter& datacenter = occupancy_->datacenter();

  // Select a host per resource.  Scheduling decisions observe the stack's
  // own partial consumption, so we track tentative loads on a scratch copy.
  dc::Occupancy scratch = *occupancy_;
  result.assignment.assign(topology.node_count(), dc::kInvalidHost);
  const auto& resources = annotated.at("resources").as_object();
  for (const auto& node : topology.nodes()) {
    const util::Json& resource = resources.at(node.name);
    std::string forced;
    if (resource.contains("scheduler_hints")) {
      forced = resource.at("scheduler_hints")
                   .string_or("ATT::Ostro::force_host", "");
    }
    std::optional<dc::HostId> host;
    if (node.kind == topo::NodeKind::kVm) {
      host = forced.empty()
                 ? NovaScheduler::select_host(scratch, node.requirements)
                 : NovaScheduler::select_forced(scratch, node.requirements,
                                                forced);
    } else {
      host = forced.empty()
                 ? CinderScheduler::select_host(scratch,
                                                node.requirements.disk_gb)
                 : CinderScheduler::select_forced(
                       scratch, node.requirements.disk_gb, forced);
    }
    if (!host) {
      result.failure = "no valid host for resource " + node.name +
                       (forced.empty() ? "" : " (forced to " + forced + ")");
      return result;
    }
    dc::OccupancyDelta tentative(scratch);
    tentative.add_host_load(*host, node.requirements);
    scratch.apply_delta(tentative);
    result.assignment[node.id] = *host;
  }

  // Final validation gate (capacity, pipes, diversity zones) against the
  // real occupancy, then the transactional commit.
  const auto violations =
      core::verify_placement(*occupancy_, topology, result.assignment);
  if (!violations.empty()) {
    result.failure = "placement validation failed: " + violations.front();
    return result;
  }

  const std::size_t active_before = occupancy_->active_host_count();
  try {
    net::commit_placement(*occupancy_, topology, result.assignment);
  } catch (const std::invalid_argument& e) {
    result.failure = e.what();
    return result;
  }
  result.success = true;
  result.new_active_hosts = static_cast<int>(occupancy_->active_host_count() -
                                             active_before);
  result.reserved_bandwidth_mbps =
      net::reserved_bandwidth_mbps(datacenter, topology, result.assignment);
  return result;
}

StackDeployment HeatEngine::deploy_text(std::string_view template_text) {
  try {
    return deploy(util::Json::parse(template_text));
  } catch (const util::JsonError& e) {
    StackDeployment result;
    result.failure = std::string("invalid template JSON: ") + e.what();
    return result;
  }
}

}  // namespace ostro::os
