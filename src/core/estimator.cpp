#include "core/estimator.h"

#include <algorithm>
#include <vector>

namespace ostro::core {

double Estimator::rest_bound(const PartialPlacement& p, topo::NodeId node) {
  double incident = 0.0;
  for (const auto& nb : p.topology().neighbors(node)) {
    incident += p.edge_bound(nb.edge_index);
  }
  return p.remaining_bw_bound() - incident;
}

Estimate Estimator::candidate_estimate(const PartialPlacement& p,
                                       topo::NodeId node, dc::HostId host,
                                       double rest) {
  const topo::AppTopology& topology = p.topology();
  const dc::DataCenter& datacenter = p.datacenter();

  Estimate est;
  est.ubw = rest;
  est.uc = p.is_active(host) ? 0.0 : 1.0;

  // Bandwidth the node's pipes will put on the candidate host's uplink:
  // committed now (placed neighbors off-host) plus the future remote pipes
  // (unplaced neighbors that will not fit next to the node here).
  double uplink_now = 0.0;
  double uplink_future = 0.0;
  // Other residents' pipes to unplaced nodes also compete for this uplink;
  // pipes from residents to `node` itself resolve on co-location, so they
  // are deducted below.  The same bookkeeping runs at the rack (ToR) level.
  double pending_others = p.pending_uplink_mbps(host);
  const std::uint32_t rack = datacenter.host(host).rack;
  double rack_now = 0.0;
  double rack_pending_others = p.pending_rack_uplink_mbps(rack);

  // Unplaced neighbors are priced with aggregate co-location accounting:
  // they are packed (largest pipe first, mirroring the estimate procedure's
  // bandwidth sort) into the host's residual capacity, and whatever does
  // not fit is charged as a remote pipe.  Checking each neighbor against
  // the full residual independently would let a filling host look free for
  // all of them at once.
  topo::Resources residual =
      p.available(host) - topology.node(node).requirements;
  std::vector<const topo::Neighbor*> future;

  for (const auto& nb : topology.neighbors(node)) {
    const dc::HostId other = p.host_of(nb.node);
    if (other != dc::kInvalidHost) {
      const dc::Scope scope = datacenter.scope_between(host, other);
      est.ubw += Objective::edge_cost(nb.bandwidth_mbps, scope);
      if (scope != dc::Scope::kSameHost) {
        uplink_now += nb.bandwidth_mbps;
      } else {
        pending_others = std::max(0.0, pending_others - nb.bandwidth_mbps);
      }
      if (scope != dc::Scope::kSameHost && scope != dc::Scope::kSameRack) {
        rack_now += nb.bandwidth_mbps;
      } else {
        rack_pending_others =
            std::max(0.0, rack_pending_others - nb.bandwidth_mbps);
      }
    } else {
      future.push_back(&nb);
    }
  }
  std::sort(future.begin(), future.end(),
            [](const topo::Neighbor* a, const topo::Neighbor* b) {
              if (a->bandwidth_mbps != b->bandwidth_mbps) {
                return a->bandwidth_mbps > b->bandwidth_mbps;
              }
              return a->node < b->node;
            });
  // Seat-stealing penalty: only one member of a host-level zone can sit on
  // this host.  If an unplaced zone-mate is attracted here by a stronger
  // pipe than the node's own co-location benefit, placing the node here
  // would displace that mate to >= one rack away; charge the displacement.
  double own_bw_here = 0.0;
  for (const auto& nb : topology.neighbors(node)) {
    if (p.host_of(nb.node) == host) own_bw_here += nb.bandwidth_mbps;
  }
  double displaced_bw = 0.0;
  for (const auto zone_index : topology.zones_of(node)) {
    const auto& zone = topology.zones()[zone_index];
    if (zone.level != topo::DiversityLevel::kHost) continue;
    for (const topo::NodeId mate : zone.members) {
      if (mate == node || p.is_placed(mate)) continue;
      double attracted = 0.0;
      for (const auto& mate_nb : topology.neighbors(mate)) {
        if (p.host_of(mate_nb.node) == host) {
          attracted += mate_nb.bandwidth_mbps;
        }
      }
      if (attracted > own_bw_here) {
        displaced_bw = std::max(displaced_bw, attracted - own_bw_here);
      }
    }
  }
  est.ubw += dc::hop_count(dc::Scope::kSameRack) * displaced_bw;

  std::vector<topo::NodeId> assumed;  // future neighbors assumed co-located
  for (const topo::Neighbor* nb : future) {
    // Zone members already placed may forbid the host, the pair itself may
    // be co-zoned, or the remaining residual may be too small.
    dc::Scope scope = p.zone_scope_to_host(nb->node, host);
    if (const auto level = topology.required_separation(node, nb->node)) {
      scope = std::max(scope, dc::forced_scope(*level));
    }
    // (c) A zone conflict with a neighbor already assumed onto this host.
    if (scope == dc::Scope::kSameHost) {
      for (const topo::NodeId earlier : assumed) {
        if (topology.required_separation(nb->node, earlier)) {
          scope = dc::Scope::kSameRack;
          break;
        }
      }
    }
    // (d) An unplaced zone-mate that this host attracts at least as
    // strongly (a pipe of >= bandwidth to one of its residents) will claim
    // the co-location slot instead: packing residents here would force the
    // zone apart (the Figure 4 situation).
    if (scope == dc::Scope::kSameHost) {
      bool claimed = false;
      for (const auto zone_index : topology.zones_of(nb->node)) {
        const auto& zone = topology.zones()[zone_index];
        if (zone.level != topo::DiversityLevel::kHost) continue;
        for (const topo::NodeId mate : zone.members) {
          if (mate == nb->node || mate == node) continue;
          if (p.is_placed(mate)) continue;
          for (const auto& mate_nb : topology.neighbors(mate)) {
            if (p.host_of(mate_nb.node) == host &&
                mate_nb.bandwidth_mbps >= nb->bandwidth_mbps) {
              claimed = true;
              break;
            }
          }
          if (claimed) break;
        }
        if (claimed) break;
      }
      if (claimed) scope = dc::Scope::kSameRack;
    }
    const topo::Resources& req = topology.node(nb->node).requirements;
    if (scope == dc::Scope::kSameHost && req.fits_within(residual)) {
      residual -= req;  // assume co-located for the *cost* estimate
      assumed.push_back(nb->node);
    } else {
      scope = std::max(scope, dc::Scope::kSameRack);
    }
    // The *risk* screen is pessimistic: the search may well place this
    // neighbor elsewhere, so its bandwidth is counted against the uplink
    // regardless of whether it could co-locate.
    uplink_future += nb->bandwidth_mbps;
    est.ubw += Objective::edge_cost(nb->bandwidth_mbps, scope);
  }

  // Feasibility-risk screen: a greedy search cannot backtrack, so a host
  // whose uplink cannot carry its residents' not-yet-placed pipes becomes a
  // dead end several placements later.  Requiring
  //   now + future + pending(other residents) <= available
  // maintains the invariant available(h) >= pending(h) on every host (a
  // resolved pipe reduces both sides equally), which keeps every individual
  // remaining pipe routable.  Violators are charged the worst-case
  // bandwidth so they lose to any candidate with headroom; when every host
  // violates (pipes larger than any uplink), the relative order is
  // unchanged and EG degrades gracefully.
  if (uplink_now + uplink_future + pending_others >
      p.link_available(datacenter.host_link(host)) + 1e-9) {
    est.ubw += p.objective().ubw_worst();
  }
  // Same screen one level up: the node's remote pipes plus every rack
  // resident's not-yet-placed pipes must fit the ToR uplink.
  if (rack_now + uplink_future + rack_pending_others >
      p.link_available(datacenter.rack_link(rack)) + 1e-9) {
    est.ubw += p.objective().ubw_worst();
  }
  return est;
}

NodeEstimateContext::NodeEstimateContext(const PartialPlacement& p,
                                         topo::NodeId node, double rest)
    : p_(&p),
      topology_(&p.topology()),
      datacenter_(&p.datacenter()),
      node_(node),
      rest_(rest),
      requirements_(p.topology().node(node).requirements) {
  const topo::AppTopology& topology = *topology_;

  // Partition the neighbors.  placed_ keeps the original neighbor order so
  // estimate() feeds each accumulator (ubw, uplink_now, pending deductions)
  // the same addition sequence candidate_estimate does; future_ gets the
  // estimate's packing order.
  std::vector<const topo::Neighbor*> future;
  for (const auto& nb : topology.neighbors(node)) {
    const dc::HostId other = p.host_of(nb.node);
    if (other != dc::kInvalidHost) {
      placed_.push_back({other, nb.bandwidth_mbps});
      // own_bw_here: summed per host in the same neighbor order the
      // reference scan adds them.
      bool found = false;
      for (auto& [host, bw] : own_bw_) {
        if (host == other) {
          bw += nb.bandwidth_mbps;
          found = true;
          break;
        }
      }
      if (!found) own_bw_.emplace_back(other, nb.bandwidth_mbps);
    } else {
      future.push_back(&nb);
    }
  }
  std::sort(future.begin(), future.end(),
            [](const topo::Neighbor* a, const topo::Neighbor* b) {
              if (a->bandwidth_mbps != b->bandwidth_mbps) {
                return a->bandwidth_mbps > b->bandwidth_mbps;
              }
              return a->node < b->node;
            });

  // Seat-stealing attraction: for every unplaced host-level zone-mate of
  // the node, its pipes to residents summed per host (mate neighbor order),
  // then the per-host maximum over mates.  displaced_bw for a candidate is
  // max_attraction > own ? max_attraction - own : 0 — identical to the
  // reference's running max of (attracted - own) because subtracting the
  // same own preserves the FP ordering.
  std::vector<std::pair<dc::HostId, double>> attracted;
  for (const auto zone_index : topology.zones_of(node)) {
    const auto& zone = topology.zones()[zone_index];
    if (zone.level != topo::DiversityLevel::kHost) continue;
    for (const topo::NodeId mate : zone.members) {
      if (mate == node || p.is_placed(mate)) continue;
      attracted.clear();
      for (const auto& mate_nb : topology.neighbors(mate)) {
        const dc::HostId mate_host = p.host_of(mate_nb.node);
        if (mate_host == dc::kInvalidHost) continue;
        bool found = false;
        for (auto& [host, bw] : attracted) {
          if (host == mate_host) {
            bw += mate_nb.bandwidth_mbps;
            found = true;
            break;
          }
        }
        if (!found) attracted.emplace_back(mate_host, mate_nb.bandwidth_mbps);
      }
      for (const auto& [host, bw] : attracted) {
        bool found = false;
        for (auto& [seen, best] : attraction_) {
          if (seen == host) {
            best = std::max(best, bw);
            found = true;
            break;
          }
        }
        if (!found) attraction_.emplace_back(host, bw);
      }
    }
  }

  // Future-neighbor invariants: the host-independent forced scope, the
  // placed zone members constraining zone_scope_to_host, and the claim
  // table for check (d).
  future_.reserve(future.size());
  for (const topo::Neighbor* nb : future) {
    FutureNeighbor f;
    f.node = nb->node;
    f.bandwidth_mbps = nb->bandwidth_mbps;
    f.requirements = topology.node(nb->node).requirements;
    if (const auto level = topology.required_separation(node, nb->node)) {
      f.forced = dc::forced_scope(*level);
    }
    for (const auto zone_index : topology.zones_of(nb->node)) {
      const auto& zone = topology.zones()[zone_index];
      for (const topo::NodeId member : zone.members) {
        if (member == nb->node) continue;
        const dc::HostId member_host = p.host_of(member);
        if (member_host == dc::kInvalidHost) continue;
        f.zone_members.emplace_back(member_host, zone.level);
      }
      // Claim check (d) considers host-level zones only: an unplaced mate
      // with a pipe to a resident of the candidate at least as strong as
      // this neighbor's pipe claims the co-location seat.  Existence of
      // such a pipe == (max pipe into that host) >= threshold.
      if (zone.level != topo::DiversityLevel::kHost) continue;
      for (const topo::NodeId mate : zone.members) {
        if (mate == nb->node || mate == node || p.is_placed(mate)) continue;
        for (const auto& mate_nb : topology.neighbors(mate)) {
          const dc::HostId mate_host = p.host_of(mate_nb.node);
          if (mate_host == dc::kInvalidHost) continue;
          bool found = false;
          for (auto& [host, best] : f.mate_claim) {
            if (host == mate_host) {
              best = std::max(best, mate_nb.bandwidth_mbps);
              found = true;
              break;
            }
          }
          if (!found) {
            f.mate_claim.emplace_back(mate_host, mate_nb.bandwidth_mbps);
          }
        }
      }
    }
    future_.push_back(std::move(f));
  }

  // Pairwise zone separation between future neighbors, for the
  // assumed-conflict check (c).
  const std::size_t n = future_.size();
  sep_.assign(n * n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (topology.required_separation(future_[i].node, future_[j].node)) {
        sep_[i * n + j] = 1;
        sep_[j * n + i] = 1;
      }
    }
  }
}

double NodeEstimateContext::lookup(
    const std::vector<std::pair<dc::HostId, double>>& table, dc::HostId host) {
  for (const auto& [seen, value] : table) {
    if (seen == host) return value;
  }
  return 0.0;
}

Estimate NodeEstimateContext::estimate(dc::HostId host,
                                       EstimateScratch& scratch) const {
  const PartialPlacement& p = *p_;
  const dc::DataCenter& datacenter = *datacenter_;

  Estimate est;
  est.ubw = rest_;
  est.uc = p.is_active(host) ? 0.0 : 1.0;

  double uplink_now = 0.0;
  double uplink_future = 0.0;
  double pending_others = p.pending_uplink_mbps(host);
  const std::uint32_t rack = datacenter.ancestors(host).rack;
  double rack_now = 0.0;
  double rack_pending_others = p.pending_rack_uplink_mbps(rack);

  topo::Resources residual = p.available(host) - requirements_;

  for (const PlacedNeighbor& nb : placed_) {
    const dc::Scope scope = datacenter.scope_between(host, nb.host);
    est.ubw += Objective::edge_cost(nb.bandwidth_mbps, scope);
    if (scope != dc::Scope::kSameHost) {
      uplink_now += nb.bandwidth_mbps;
    } else {
      pending_others = std::max(0.0, pending_others - nb.bandwidth_mbps);
    }
    if (scope != dc::Scope::kSameHost && scope != dc::Scope::kSameRack) {
      rack_now += nb.bandwidth_mbps;
    } else {
      rack_pending_others =
          std::max(0.0, rack_pending_others - nb.bandwidth_mbps);
    }
  }

  const double own_bw_here = lookup(own_bw_, host);
  const double attraction = lookup(attraction_, host);
  const double displaced_bw =
      attraction > own_bw_here ? attraction - own_bw_here : 0.0;
  est.ubw += dc::hop_count(dc::Scope::kSameRack) * displaced_bw;

  scratch.assumed.clear();
  const std::size_t n = future_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const FutureNeighbor& nb = future_[i];
    dc::Scope scope = nb.forced;
    for (const auto& [member_host, level] : nb.zone_members) {
      if (!datacenter.separated_at(host, member_host, level)) {
        scope = std::max(scope, dc::forced_scope(level));
      }
    }
    if (scope == dc::Scope::kSameHost) {
      for (const std::uint32_t earlier : scratch.assumed) {
        if (sep_[i * n + earlier] != 0) {
          scope = dc::Scope::kSameRack;
          break;
        }
      }
    }
    if (scope == dc::Scope::kSameHost &&
        lookup(nb.mate_claim, host) >= nb.bandwidth_mbps) {
      scope = dc::Scope::kSameRack;
    }
    if (scope == dc::Scope::kSameHost &&
        nb.requirements.fits_within(residual)) {
      residual -= nb.requirements;
      scratch.assumed.push_back(static_cast<std::uint32_t>(i));
    } else {
      scope = std::max(scope, dc::Scope::kSameRack);
    }
    uplink_future += nb.bandwidth_mbps;
    est.ubw += Objective::edge_cost(nb.bandwidth_mbps, scope);
  }

  if (uplink_now + uplink_future + pending_others >
      p.link_available(datacenter.host_link(host)) + 1e-9) {
    est.ubw += p.objective().ubw_worst();
  }
  if (rack_now + uplink_future + rack_pending_others >
      p.link_available(datacenter.rack_link(rack)) + 1e-9) {
    est.ubw += p.objective().ubw_worst();
  }
  return est;
}

}  // namespace ostro::core
