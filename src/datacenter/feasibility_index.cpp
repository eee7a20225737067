#include "datacenter/feasibility_index.h"

#include <algorithm>
#include <limits>

#include "datacenter/occupancy.h"
#include "util/metrics.h"

namespace ostro::dc {
namespace {

/// Maximum over an empty host set: nothing fits, every request is rejected.
constexpr double kNoHosts = std::numeric_limits<double>::lowest();

/// Same epsilon as PartialPlacement::bandwidth_ok's availability check.
constexpr double kBandwidthEps = 1e-9;

[[nodiscard]] bool is_feasible(const topo::Resources& free) noexcept {
  return free.vcpus > 0.0 && free.mem_gb > 0.0 && free.disk_gb > 0.0;
}

/// New maximum of a level after one child's value moved old_v -> new_v.
/// `recompute` rescans every child of the level; it runs only when the
/// child that shrank may have been the one attaining the current maximum
/// (old_v >= current), so the common case is O(1).
template <class Recompute>
[[nodiscard]] double updated_max(double current, double old_v, double new_v,
                                 Recompute recompute) {
  if (new_v >= current) return new_v;
  if (old_v < current) return current;
  return recompute();
}

/// A unit's compute-feasible count just moved by `delta` to `now`.  Keeps
/// `pairs` (units whose count is >= 2) exact and returns whether the unit
/// crossed between holding none and holding some, which moves its
/// parent's children count by the same delta.
[[nodiscard]] bool moved_count(std::uint32_t now, std::int32_t delta,
                               std::uint32_t& pairs) noexcept {
  const std::uint32_t before = now - static_cast<std::uint32_t>(delta);
  if ((before >= 2) != (now >= 2)) pairs += static_cast<std::uint32_t>(delta);
  return (before >= 1) != (now >= 1);
}

}  // namespace

void FeasibilityIndex::rebuild(const Occupancy& occupancy) {
  static util::metrics::Counter& m_rebuilds =
      util::metrics::counter("labels.rebuilds");
  const DataCenter& dc = occupancy.datacenter();
  dc_ = &dc;

  const Aggregate empty{{kNoHosts, kNoHosts, kNoHosts}, kNoHosts, 0, 0, 0};
  rack_.assign(dc.racks().size(), empty);
  pod_.assign(dc.pods().size(), empty);
  site_.assign(dc.sites().size(), empty);
  root_ = empty;

  for (HostId h = 0; h < dc.host_count(); ++h) {
    const HostAncestors& anc = dc.ancestors(h);
    const topo::Resources free = occupancy.available_unchecked(h);
    const double uplink = occupancy.uplink_available_unchecked(h);
    const std::uint32_t feasible = is_feasible(free) ? 1 : 0;
    const std::uint32_t compute = compute_feasible(free) ? 1 : 0;
    Aggregate* chain[] = {&rack_[anc.rack], &pod_[anc.pod], &site_[anc.site],
                          &root_};
    for (Aggregate* agg : chain) {
      agg->max_free.vcpus = std::max(agg->max_free.vcpus, free.vcpus);
      agg->max_free.mem_gb = std::max(agg->max_free.mem_gb, free.mem_gb);
      agg->max_free.disk_gb = std::max(agg->max_free.disk_gb, free.disk_gb);
      agg->max_free_uplink_mbps = std::max(agg->max_free_uplink_mbps, uplink);
      agg->feasible_hosts += feasible;
      agg->compute_feasible_hosts += compute;
      agg->host_count += 1;
    }
  }

  pod_feasible_racks_.assign(dc.pods().size(), 0);
  site_feasible_pods_.assign(dc.sites().size(), 0);
  racks_multi_feasible_ = 0;
  pods_multi_feasible_racks_ = 0;
  sites_multi_feasible_pods_ = 0;
  for (const Rack& rack : dc.racks()) {
    const std::uint32_t hosts = rack_[rack.id].compute_feasible_hosts;
    if (hosts >= 1) ++pod_feasible_racks_[rack.pod];
    if (hosts >= 2) ++racks_multi_feasible_;
  }
  for (const Pod& pod : dc.pods()) {
    const std::uint32_t racks = pod_feasible_racks_[pod.id];
    if (racks >= 1) ++site_feasible_pods_[pod.datacenter];
    if (racks >= 2) ++pods_multi_feasible_racks_;
  }
  for (const Site& site : dc.sites()) {
    if (site_feasible_pods_[site.id] >= 2) ++sites_multi_feasible_pods_;
  }
  m_rebuilds.inc();
}

template <class HostValue, class Field>
void FeasibilityIndex::refresh_max_chain(const HostAncestors& anc,
                                         double old_v, double new_v,
                                         HostValue host_value, Field field) {
  if (old_v == new_v) return;
  const Rack& rack = dc_->racks()[anc.rack];
  double& rack_max = field(rack_[anc.rack]);
  const double rack_old = rack_max;
  rack_max = updated_max(rack_max, old_v, new_v, [&] {
    double m = kNoHosts;
    for (const HostId x : rack.hosts) m = std::max(m, host_value(x));
    return m;
  });
  if (rack_max == rack_old) return;

  const Pod& pod = dc_->pods()[anc.pod];
  double& pod_max = field(pod_[anc.pod]);
  const double pod_old = pod_max;
  pod_max = updated_max(pod_max, rack_old, rack_max, [&] {
    double m = kNoHosts;
    for (const std::uint32_t r : pod.racks) m = std::max(m, field(rack_[r]));
    return m;
  });
  if (pod_max == pod_old) return;

  const Site& site = dc_->sites()[anc.site];
  double& site_max = field(site_[anc.site]);
  const double site_old = site_max;
  site_max = updated_max(site_max, pod_old, pod_max, [&] {
    double m = kNoHosts;
    for (const std::uint32_t p : site.pods) m = std::max(m, field(pod_[p]));
    return m;
  });
  if (site_max == site_old) return;

  double& root_max = field(root_);
  root_max = updated_max(root_max, site_old, site_max, [&] {
    double m = kNoHosts;
    for (Aggregate& s : site_) m = std::max(m, field(s));
    return m;
  });
}

void FeasibilityIndex::set_host_free(HostId h, const topo::Resources& old_free,
                                     const Occupancy& occupancy) {
  static util::metrics::Counter& m_refreshes =
      util::metrics::counter("labels.refreshes");
  m_refreshes.inc();
  const topo::Resources free = occupancy.available_unchecked(h);
  const HostAncestors& anc = dc_->ancestors(h);

  // Both host counts move in one walk; a compute flip then cascades up
  // while a unit crosses between holding no compute-feasible member and
  // holding one, keeping the pair counters exact on every >= 2 crossing.
  const std::int32_t feasible_delta =
      static_cast<std::int32_t>(is_feasible(free)) -
      static_cast<std::int32_t>(is_feasible(old_free));
  const std::int32_t compute_delta =
      static_cast<std::int32_t>(compute_feasible(free)) -
      static_cast<std::int32_t>(compute_feasible(old_free));
  if (feasible_delta != 0 || compute_delta != 0) {
    Aggregate* chain[] = {&rack_[anc.rack], &pod_[anc.pod], &site_[anc.site],
                          &root_};
    for (Aggregate* agg : chain) {
      agg->feasible_hosts += static_cast<std::uint32_t>(feasible_delta);
      agg->compute_feasible_hosts += static_cast<std::uint32_t>(compute_delta);
    }
    if (compute_delta != 0 &&
        moved_count(rack_[anc.rack].compute_feasible_hosts, compute_delta,
                    racks_multi_feasible_)) {
      std::uint32_t& racks = pod_feasible_racks_[anc.pod];
      racks += static_cast<std::uint32_t>(compute_delta);
      if (moved_count(racks, compute_delta, pods_multi_feasible_racks_)) {
        std::uint32_t& pods = site_feasible_pods_[anc.site];
        pods += static_cast<std::uint32_t>(compute_delta);
        (void)moved_count(pods, compute_delta, sites_multi_feasible_pods_);
      }
    }
  }

  const auto refresh = [&](double topo::Resources::* dim) {
    refresh_max_chain(
        anc, old_free.*dim, free.*dim,
        [&](HostId x) { return occupancy.available_unchecked(x).*dim; },
        [dim](Aggregate& agg) -> double& { return agg.max_free.*dim; });
  };
  refresh(&topo::Resources::vcpus);
  refresh(&topo::Resources::mem_gb);
  refresh(&topo::Resources::disk_gb);
}

void FeasibilityIndex::set_host_uplink_free(HostId h, double old_free_mbps,
                                            const Occupancy& occupancy) {
  const auto uplink_free = [&](HostId x) {
    return occupancy.uplink_available_unchecked(x);
  };
  refresh_max_chain(
      dc_->ancestors(h), old_free_mbps, uplink_free(h), uplink_free,
      [](Aggregate& agg) -> double& { return agg.max_free_uplink_mbps; });
}

Scope FeasibilityIndex::tighten_separation(Scope scope,
                                           bool both_positive) const {
  static util::metrics::Counter& m_escalations =
      util::metrics::counter("heuristic.separation_escalations");
  const Scope entry = scope;
  // Chained ladder: each escalation re-tests at the next level, so a data
  // center with no multi-host rack AND no multi-rack pod sends a same-rack
  // pipe straight to same-site pricing.
  if (scope == Scope::kSameRack &&
      (dc_->multi_host_racks() == 0 ||
       (both_positive && racks_multi_feasible_ == 0))) {
    scope = Scope::kSamePod;
  }
  if (scope == Scope::kSamePod &&
      (dc_->multi_rack_pods() == 0 ||
       (both_positive && pods_multi_feasible_racks_ == 0))) {
    scope = Scope::kSameSite;
  }
  if (scope == Scope::kSameSite &&
      (dc_->multi_pod_sites() == 0 ||
       (both_positive && sites_multi_feasible_pods_ == 0))) {
    scope = Scope::kCrossSite;
  }
  if (scope != entry) m_escalations.inc();
  return scope;
}

Scope FeasibilityIndex::tighten_to_host(Scope scope, HostId host,
                                        const topo::Resources& req,
                                        bool positive, double bw_mbps,
                                        const Occupancy& occupancy) const {
  if (scope == Scope::kSameHost || scope >= Scope::kCrossSite) return scope;
  static util::metrics::Counter& m_escalations =
      util::metrics::counter("heuristic.host_escalations");
  const Scope entry = scope;
  const HostAncestors& anc = dc_->ancestors(host);

  // At each level: the free endpoint needs a host in the subtree that (a)
  // exists and is distinct from `host`, (b) can fit it (max_free is an
  // upper bound on any member host), and whose uplink can carry the pipe.
  // When `positive`, a compute-feasible host outside the next smaller unit
  // must exist too — the compute counts, not the all-dimensions
  // feasible_hosts, so the over-approximation stays predicate-consistent
  // for zero-disk nodes (at rack level `host` itself is the only insider).
  if (scope == Scope::kSameRack) {
    const Aggregate& rack = rack_[anc.rack];
    const auto no_other_feasible = [&] {
      const std::uint32_t count = rack.compute_feasible_hosts;
      return count == 0 ||
             (count == 1 &&
              compute_feasible(occupancy.available_unchecked(host)));
    };
    if (rack.host_count <= 1 || !req.fits_within(rack.max_free) ||
        (positive && no_other_feasible()) ||
        bw_mbps > rack.max_free_uplink_mbps + kBandwidthEps) {
      scope = Scope::kSamePod;
    }
  }
  if (scope == Scope::kSamePod) {
    const Aggregate& pod = pod_[anc.pod];
    const Aggregate& rack = rack_[anc.rack];
    if (pod.host_count <= rack.host_count || !req.fits_within(pod.max_free) ||
        (positive &&
         pod.compute_feasible_hosts <= rack.compute_feasible_hosts) ||
        bw_mbps > pod.max_free_uplink_mbps + kBandwidthEps) {
      scope = Scope::kSameSite;
    }
  }
  if (scope == Scope::kSameSite) {
    const Aggregate& site = site_[anc.site];
    const Aggregate& pod = pod_[anc.pod];
    if (site.host_count <= pod.host_count || !req.fits_within(site.max_free) ||
        (positive &&
         site.compute_feasible_hosts <= pod.compute_feasible_hosts) ||
        bw_mbps > site.max_free_uplink_mbps + kBandwidthEps) {
      scope = Scope::kCrossSite;
    }
  }
  if (scope != entry) m_escalations.inc();
  return scope;
}

bool FeasibilityIndex::selfcheck(const Occupancy& occupancy) const {
  FeasibilityIndex fresh;
  fresh.rebuild(occupancy);
  return fresh == *this;
}

}  // namespace ostro::dc
