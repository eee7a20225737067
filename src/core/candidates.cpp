#include "core/candidates.h"

#include <algorithm>

#include "util/metrics.h"

namespace ostro::core {
namespace {

/// Same epsilon as PartialPlacement::bandwidth_ok's availability check.
constexpr double kBandwidthEps = 1e-9;

template <class T>
[[nodiscard]] bool contains(const std::vector<T>& values, T x) noexcept {
  return std::find(values.begin(), values.end(), x) != values.end();
}

/// Inputs of the per-subtree feasibility screen, shared across the descent.
struct PruneInputs {
  const topo::Resources* requirements = nullptr;
  /// Every requirement component strictly positive (beyond the fits_within
  /// epsilon) — only then is "no feasible host" a sound reason to prune.
  bool positive_requirements = false;
  bool check_bandwidth = false;
  /// Total bandwidth of pipes to already-placed neighbors.
  double neighbor_demand_mbps = 0.0;
  const std::vector<dc::HostId>* neighbor_hosts = nullptr;
};

/// True when the subtree behind `agg` may contain a feasible host.  All
/// three screens are upper-bound comparisons, so a rejected subtree holds
/// no host the linear scan would keep (never the other way around):
///  * capacity: the component-wise max free cannot satisfy the request;
///  * feasible count: every host is exhausted in some dimension and the
///    request needs all three;
///  * uplink: the pipes to placed neighbors exceed even the best free host
///    uplink, and no placed neighbor is inside the subtree, so every
///    candidate would have to carry the whole demand on its own uplink.
/// `neighbor_inside(host)` tells whether a placed neighbor host belongs to
/// the subtree being tested.
template <class NeighborInside>
[[nodiscard]] bool subtree_may_fit(const dc::FeasibilityIndex::Aggregate& agg,
                                   const PruneInputs& in,
                                   NeighborInside neighbor_inside) {
  if (!in.requirements->fits_within(agg.max_free)) return false;
  if (in.positive_requirements && agg.feasible_hosts == 0) return false;
  if (in.check_bandwidth &&
      in.neighbor_demand_mbps > agg.max_free_uplink_mbps + kBandwidthEps) {
    for (const dc::HostId nh : *in.neighbor_hosts) {
      if (neighbor_inside(nh)) return true;
    }
    return false;
  }
  return true;
}

}  // namespace

std::vector<dc::HostId> get_candidates(const PartialPlacement& p,
                                       topo::NodeId node,
                                       bool check_bandwidth) {
  std::vector<dc::HostId> out;
  const auto host_count =
      static_cast<dc::HostId>(p.datacenter().host_count());
  for (dc::HostId host = 0; host < host_count; ++host) {
    const bool ok = check_bandwidth
                        ? p.can_place(node, host)
                        : p.can_place_except_bandwidth(node, host);
    if (ok) out.push_back(host);
  }
  return out;
}

void get_candidates_indexed(const PartialPlacement& p, topo::NodeId node,
                            CandidateBuffer& buf, bool check_bandwidth) {
  static util::metrics::Counter& m_calls =
      util::metrics::counter("candidates.indexed_calls");
  static util::metrics::Counter& m_subtrees =
      util::metrics::counter("candidates.subtrees_pruned");
  static util::metrics::Counter& m_skipped =
      util::metrics::counter("candidates.hosts_skipped");
  static util::metrics::Counter& m_tag_prunes =
      util::metrics::counter("labels.tag_subtree_prunes");

  buf.hosts.clear();
  buf.excluded_hosts.clear();
  buf.excluded_racks.clear();
  buf.excluded_pods.clear();
  buf.excluded_sites.clear();
  buf.neighbor_hosts.clear();

  const topo::AppTopology& topology = p.topology();
  const dc::DataCenter& datacenter = p.datacenter();
  const dc::FeasibilityIndex& index = p.base().feasibility();

  // Diversity-zone exclusions as masks: a placed member of one of the
  // node's zones forbids the whole unit around itself (the exact complement
  // of separated_at), so the descent can skip that unit without touching
  // its hosts.
  for (const auto zone_index : topology.zones_of(node)) {
    const auto& zone = topology.zones()[zone_index];
    for (const topo::NodeId member : zone.members) {
      if (member == node) continue;
      const dc::HostId member_host = p.host_of(member);
      if (member_host == dc::kInvalidHost) continue;
      const dc::HostAncestors& anc = datacenter.ancestors(member_host);
      switch (zone.level) {
        case topo::DiversityLevel::kHost:
          buf.excluded_hosts.push_back(member_host);
          break;
        case topo::DiversityLevel::kRack:
          buf.excluded_racks.push_back(anc.rack);
          break;
        case topo::DiversityLevel::kPod:
          buf.excluded_pods.push_back(anc.pod);
          break;
        case topo::DiversityLevel::kDatacenter:
          buf.excluded_sites.push_back(anc.site);
          break;
      }
    }
  }

  PruneInputs in;
  const topo::Resources& requirements = topology.node(node).requirements;
  in.requirements = &requirements;
  in.positive_requirements = requirements.vcpus > kBandwidthEps &&
                             requirements.mem_gb > kBandwidthEps &&
                             requirements.disk_gb > kBandwidthEps;
  in.check_bandwidth = check_bandwidth;
  if (check_bandwidth) {
    in.neighbor_demand_mbps =
        p.placed_neighbor_demand(node, buf.neighbor_hosts);
  }
  in.neighbor_hosts = &buf.neighbor_hosts;

  // Tag-reachability prune (the DataCenter's tag bitmaps): a subtree whose
  // cached tag bitmap lacks a required bit holds no host that could pass
  // tags_ok, so the descent skips it wholesale.  `tag_mask == 0` (no
  // required tags, or the registry overflowed 64 distinct tags) disables
  // the screen; a required tag carried by nowhere in the DC yields the
  // all-ones mask, which prunes everything — exactly what the per-host
  // check would do.
  std::uint64_t tag_mask = 0;
  if (p.use_prune_labels() && datacenter.tags_indexable() &&
      !topology.node(node).required_tags.empty()) {
    tag_mask =
        datacenter.required_tag_mask(topology.node(node).required_tags);
  }

  std::uint64_t subtrees_pruned = 0;
  std::uint64_t hosts_skipped = 0;
  std::uint64_t tag_prunes = 0;
  const auto prune = [&](std::uint32_t subtree_hosts) {
    ++subtrees_pruned;
    hosts_skipped += subtree_hosts;
  };
  const auto tags_unreachable = [&](std::uint64_t subtree_mask) {
    if ((tag_mask & subtree_mask) == tag_mask) return false;
    ++tag_prunes;
    return true;
  };

  for (const dc::Site& site : datacenter.sites()) {
    const dc::FeasibilityIndex::Aggregate& site_agg = index.site(site.id);
    if (contains(buf.excluded_sites, site.id) ||
        tags_unreachable(datacenter.site_tag_mask(site.id)) ||
        !subtree_may_fit(site_agg, in, [&](dc::HostId nh) {
          return datacenter.ancestors(nh).site == site.id;
        })) {
      prune(site_agg.host_count);
      continue;
    }
    for (const std::uint32_t pod_id : site.pods) {
      const dc::FeasibilityIndex::Aggregate& pod_agg = index.pod(pod_id);
      if (contains(buf.excluded_pods, pod_id) ||
          tags_unreachable(datacenter.pod_tag_mask(pod_id)) ||
          !subtree_may_fit(pod_agg, in, [&](dc::HostId nh) {
            return datacenter.ancestors(nh).pod == pod_id;
          })) {
        prune(pod_agg.host_count);
        continue;
      }
      for (const std::uint32_t rack_id : datacenter.pods()[pod_id].racks) {
        const dc::FeasibilityIndex::Aggregate& rack_agg = index.rack(rack_id);
        if (contains(buf.excluded_racks, rack_id) ||
            tags_unreachable(datacenter.rack_tag_mask(rack_id)) ||
            !subtree_may_fit(rack_agg, in, [&](dc::HostId nh) {
              return datacenter.ancestors(nh).rack == rack_id;
            })) {
          prune(rack_agg.host_count);
          continue;
        }
        for (const dc::HostId host : datacenter.racks()[rack_id].hosts) {
          if (contains(buf.excluded_hosts, host)) {
            ++hosts_skipped;
            continue;
          }
          // zones_ok is omitted deliberately: the exclusion masks above are
          // its exact complement (both consider only *placed* zone members,
          // and separated_at(host, member_host, level) fails precisely for
          // the masked unit), so any host reaching this line passes it.
          const bool ok = p.capacity_ok(node, host) && p.tags_ok(node, host) &&
                          p.affinity_ok(node, host) &&
                          p.latency_ok(node, host) &&
                          (!check_bandwidth || p.bandwidth_ok(node, host));
          if (ok) buf.hosts.push_back(host);
        }
      }
    }
  }

  // The tree visit emits hosts in rack order; the linear scan's contract is
  // ascending host id.  A fleet built in tree order (site by site, pod by
  // pod, rack by rack: every generated fleet and every dc_io file) numbers
  // its hosts in visit order, so the list is already ascending and only
  // the check runs.  The sort is not free on a sorted list: on 25,600
  // ascending ids (GCC 12 -O2, Xeon) std::sort takes 240-360 us and
  // std::is_sorted 10-19 us.
  if (!std::is_sorted(buf.hosts.begin(), buf.hosts.end())) {
    std::sort(buf.hosts.begin(), buf.hosts.end());
  }

  m_calls.inc();
  m_subtrees.add(subtrees_pruned);
  m_skipped.add(hosts_skipped);
  m_tag_prunes.add(tag_prunes);
}

std::vector<dc::HostId>& get_candidates(const PartialPlacement& p,
                                        topo::NodeId node,
                                        CandidateBuffer& buf,
                                        bool check_bandwidth, bool use_index) {
  if (use_index) {
    get_candidates_indexed(p, node, buf, check_bandwidth);
  } else {
    buf.hosts = get_candidates(p, node, check_bandwidth);
  }
  return buf.hosts;
}

}  // namespace ostro::core
