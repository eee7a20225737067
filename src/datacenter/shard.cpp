#include "datacenter/shard.h"

#include <algorithm>
#include <array>
#include <limits>
#include <stdexcept>
#include <string>

#include "datacenter/state_delta.h"

namespace ostro::dc {

namespace {

/// Hosts per pod / per site, from the static structure.
std::vector<std::size_t> pod_host_counts(const DataCenter& dc) {
  std::vector<std::size_t> counts(dc.pods().size(), 0);
  for (const Rack& rack : dc.racks()) {
    counts[rack.pod] += rack.hosts.size();
  }
  return counts;
}

}  // namespace

ShardLayout::ShardLayout(const DataCenter& global, std::uint32_t shard_count)
    : global_(&global) {
  const std::size_t num_sites = global.sites().size();
  const std::size_t num_pods = global.pods().size();
  if (shard_count == 0) {
    throw std::invalid_argument("ShardLayout: shard_count must be >= 1");
  }
  if (shard_count > num_pods) {
    throw std::invalid_argument(
        "ShardLayout: shard_count " + std::to_string(shard_count) +
        " exceeds the " + std::to_string(num_pods) + " pod(s)");
  }

  const std::vector<std::size_t> pod_hosts = pod_host_counts(global);
  std::vector<std::size_t> site_hosts(num_sites, 0);
  std::vector<std::size_t> site_pods(num_sites, 0);
  for (const Pod& pod : global.pods()) {
    site_hosts[pod.datacenter] += pod_hosts[pod.id];
    site_pods[pod.datacenter] += 1;
  }

  shard_of_pod_.assign(num_pods, 0);
  site_split_.assign(num_sites, false);

  if (shard_count <= num_sites) {
    // Whole-site bins: sites in id order, each to the smallest bin (by host
    // count, ties to the lowest bin id).  With shard_count == sites every
    // site lands in its own bin.
    std::vector<std::size_t> bin_hosts(shard_count, 0);
    for (const Site& site : global.sites()) {
      std::uint32_t best = 0;
      for (std::uint32_t b = 1; b < shard_count; ++b) {
        if (bin_hosts[b] < bin_hosts[best]) best = b;
      }
      for (const std::uint32_t pod : site.pods) {
        shard_of_pod_[pod] = best;
      }
      bin_hosts[best] += site_hosts[site.id];
    }
  } else {
    // Every site gets at least one shard; the extras go to the site with
    // the most hosts per already-assigned shard, capped by its pod count
    // (a pod never splits).  Then each split site spreads its pods
    // greedily over its consecutive shard-id group.
    std::vector<std::uint32_t> shares(num_sites, 1);
    for (std::uint32_t extra = shard_count - static_cast<std::uint32_t>(num_sites);
         extra > 0; --extra) {
      std::uint32_t best = kLedgerOwned;
      double best_score = -1.0;
      for (std::uint32_t s = 0; s < num_sites; ++s) {
        if (shares[s] >= site_pods[s]) continue;  // cannot split further
        const double score = static_cast<double>(site_hosts[s]) /
                             static_cast<double>(shares[s]);
        if (score > best_score) {
          best_score = score;
          best = s;
        }
      }
      // Always found: sum(shares) < shard_count <= total pods.
      ++shares[best];
    }
    std::uint32_t next_shard = 0;
    for (const Site& site : global.sites()) {
      const std::uint32_t groups = shares[site.id];
      if (groups > 1) site_split_[site.id] = true;
      std::vector<std::size_t> group_hosts(groups, 0);
      for (const std::uint32_t pod : site.pods) {
        std::uint32_t best = 0;
        for (std::uint32_t g = 1; g < groups; ++g) {
          if (group_hosts[g] < group_hosts[best]) best = g;
        }
        shard_of_pod_[pod] = next_shard + best;
        group_hosts[best] += pod_hosts[pod];
      }
      next_shard += groups;
    }
  }

  shard_of_host_.assign(global.host_count(), 0);
  for (const Host& host : global.hosts()) {
    shard_of_host_[host.id] = shard_of_pod_[host.pod];
  }

  // Rebuild each shard as its own DataCenter, in GLOBAL id order on every
  // level, so local ids are the order-preserving compaction of the global
  // ids (the identity when shard_count == 1).
  const std::array<double, 5> latencies{
      global.scope_latency_us(Scope::kSameHost),
      global.scope_latency_us(Scope::kSameRack),
      global.scope_latency_us(Scope::kSamePod),
      global.scope_latency_us(Scope::kSameSite),
      global.scope_latency_us(Scope::kCrossSite)};

  constexpr std::uint32_t kUnmapped = std::numeric_limits<std::uint32_t>::max();
  shards_.resize(shard_count);
  local_host_of_.assign(global.host_count(), kInvalidHost);
  link_owner_.assign(global.link_count(), kLedgerOwned);
  local_link_of_.assign(global.link_count(), 0);

  std::vector<std::uint32_t> local_site(num_sites);
  std::vector<std::uint32_t> local_pod(num_pods);
  std::vector<std::uint32_t> local_rack(global.racks().size());
  for (std::uint32_t k = 0; k < shard_count; ++k) {
    Shard& shard = shards_[k];
    DataCenterBuilder builder;
    builder.set_scope_latencies(latencies);
    std::fill(local_site.begin(), local_site.end(), kUnmapped);
    for (const Site& site : global.sites()) {
      bool in_shard = false;
      for (const std::uint32_t pod : site.pods) {
        if (shard_of_pod_[pod] == k) {
          in_shard = true;
          break;
        }
      }
      if (in_shard) {
        local_site[site.id] = builder.add_site(site.name, site.uplink_mbps);
      }
    }
    for (const Pod& pod : global.pods()) {
      if (shard_of_pod_[pod.id] != k) continue;
      local_pod[pod.id] =
          builder.add_pod(local_site[pod.datacenter], pod.name, pod.uplink_mbps);
    }
    for (const Rack& rack : global.racks()) {
      if (shard_of_pod_[rack.pod] != k) continue;
      local_rack[rack.id] =
          builder.add_rack(local_pod[rack.pod], rack.name, rack.uplink_mbps);
    }
    bool has_hosts = false;
    for (const Host& host : global.hosts()) {
      if (shard_of_host_[host.id] != k) continue;
      const HostId local = builder.add_host(local_rack[host.rack], host.name,
                                            host.capacity, host.uplink_mbps,
                                            host.tags);
      local_host_of_[host.id] = local;
      shard.local_to_global_host.push_back(host.id);
      has_hosts = true;
    }
    if (!has_hosts) {
      throw std::invalid_argument(
          "ShardLayout: shard " + std::to_string(k) +
          " is empty (host-less site or pod); use fewer shards");
    }
    shard.dc = builder.build();

    // Link mapping for this shard.  A split site appears in several shards;
    // each maps its local site uplink to the same global link, but the link
    // is ledger-owned (no shard's local paths ever traverse it).
    shard.local_to_global_link.assign(shard.dc.link_count(), 0);
    for (const HostId gh : shard.local_to_global_host) {
      const LinkId g = global.host_link(gh);
      const LinkId l = shard.dc.host_link(local_host_of_[gh]);
      link_owner_[g] = k;
      local_link_of_[g] = l;
      shard.local_to_global_link[l] = g;
    }
    for (const Rack& rack : global.racks()) {
      if (shard_of_pod_[rack.pod] != k) continue;
      const LinkId g = global.rack_link(rack.id);
      const LinkId l = shard.dc.rack_link(local_rack[rack.id]);
      link_owner_[g] = k;
      local_link_of_[g] = l;
      shard.local_to_global_link[l] = g;
    }
    for (const Pod& pod : global.pods()) {
      if (shard_of_pod_[pod.id] != k) continue;
      const LinkId g = global.pod_link(pod.id);
      const LinkId l = shard.dc.pod_link(local_pod[pod.id]);
      link_owner_[g] = k;
      local_link_of_[g] = l;
      shard.local_to_global_link[l] = g;
    }
    for (const Site& site : global.sites()) {
      if (local_site[site.id] == kUnmapped) continue;
      const LinkId g = global.site_link(site.id);
      const LinkId l = shard.dc.site_link(local_site[site.id]);
      shard.local_to_global_link[l] = g;
      if (!site_split_[site.id]) {
        link_owner_[g] = k;
        local_link_of_[g] = l;
      }
    }
  }

  for (std::uint32_t s = 0; s < num_sites; ++s) {
    if (site_split_[s]) {
      shared_links_.push_back(global.site_link(s));
    }
  }
}

void ShardLayout::overlay(Occupancy& global_occupancy, std::uint32_t shard,
                          const Occupancy& shard_occupancy) const {
  const Shard& sh = shards_.at(shard);
  if (&shard_occupancy.datacenter() != &sh.dc) {
    throw std::invalid_argument(
        "ShardLayout::overlay: occupancy does not belong to this shard");
  }
  if (&global_occupancy.datacenter() != global_) {
    throw std::invalid_argument(
        "ShardLayout::overlay: target is not the global datacenter");
  }
  // Local ids map to ascending global ids, so the batch appends.
  OccupancyDelta stitch(global_occupancy);
  for (HostId local = 0; local < sh.dc.host_count(); ++local) {
    const topo::Resources used = shard_occupancy.used(local);
    if (!used.is_zero()) {
      stitch.add_host_load(sh.local_to_global_host[local], used);
    }
  }
  for (LinkId local = 0; local < sh.dc.link_count(); ++local) {
    const double used = shard_occupancy.link_used_mbps(local);
    if (used > 0.0) {
      stitch.reserve_link(sh.local_to_global_link[local], used);
    }
  }
  global_occupancy.apply_delta(stitch);
  // apply_delta activated every loaded host, and a loaded host is always
  // active, so marking the shard's active hosts copies its flags exactly
  // (zero-load active hosts included).
  for (HostId local = 0; local < sh.dc.host_count(); ++local) {
    if (shard_occupancy.is_active(local)) {
      global_occupancy.mark_active(sh.local_to_global_host[local]);
    }
  }
}

}  // namespace ostro::dc
