// Shard partitioning of one DataCenter into independent placement domains.
//
// ShardLayout cuts the global hierarchy into `shard_count` disjoint host
// sets and makes each a self-contained DataCenter, so every shard can
// own its own Occupancy / FeasibilityIndex behind its own
// writer lock (core::ShardRouter composes one core::PlacementService per
// shard).  The partitioning invariant that keeps per-shard planning sound:
//
//   * every shard is either a union of WHOLE sites, or a subset of the pods
//     of a SINGLE site — a pod (and hence a rack and a host) never splits.
//
// Consequences of the invariant:
//   * A placement entirely inside one shard never traverses the uplink of a
//     split site (its local paths top out at same-site scope), so the shard
//     can validate every link it touches against its own local capacity
//     with no global knowledge.
//   * Every link of a cross-shard path is owned by exactly one participant
//     shard, except the uplinks of split sites, which are shared between
//     that site's shards — those are tracked by the cross-shard link ledger
//     (link_owner() == kLedgerOwned, listed in shared_links()).
//
// Partitioning policy (deterministic):
//   * shard_count <= sites: whole sites are binned greedily by host count
//     (sites in id order, each to the currently smallest bin).
//   * shard_count > sites: every site gets at least one shard; the extra
//     shards go to the sites with the most hosts per shard (capped by pod
//     count), and a split site distributes its pods greedily by host count
//     over its shard group.
//
// Id mapping: with two or more shards, each shard's sites/pods/racks/hosts
// are rebuilt in GLOBAL id order, so local ids are the order-preserving
// compaction of the global ids.  With shard_count == 1 the shard's
// DataCenter is a copy of the global one (a distinct object) and the
// mapping is the identity — the basis of the single-shard bit-identical
// differential tests.
#pragma once

#include <cstdint>
#include <vector>

#include "datacenter/datacenter.h"
#include "datacenter/occupancy.h"

namespace ostro::dc {

class ShardLayout {
 public:
  /// link_owner() value for the shared uplinks of split sites: no shard owns
  /// them; reservations go through the cross-shard ledger.
  static constexpr std::uint32_t kLedgerOwned =
      static_cast<std::uint32_t>(-1);

  /// Partitions `global` into `shard_count` shards.  Throws
  /// std::invalid_argument when shard_count is 0, exceeds the number of
  /// pods, or produces an empty shard (e.g. a host-less site).  `global`
  /// must outlive the layout.
  ShardLayout(const DataCenter& global, std::uint32_t shard_count);

  // Shard DataCenters live at stable addresses (schedulers/occupancies hold
  // pointers into them), so the layout itself must not move.
  ShardLayout(const ShardLayout&) = delete;
  ShardLayout& operator=(const ShardLayout&) = delete;

  [[nodiscard]] const DataCenter& global() const noexcept { return *global_; }
  [[nodiscard]] std::uint32_t shard_count() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }
  [[nodiscard]] const DataCenter& shard_datacenter(std::uint32_t shard) const {
    return shards_.at(shard).dc;
  }

  // ---- partition queries (global ids) ----
  [[nodiscard]] std::uint32_t shard_of_pod(std::uint32_t pod) const {
    return shard_of_pod_.at(pod);
  }
  [[nodiscard]] std::uint32_t shard_of_host(HostId host) const {
    return shard_of_host_.at(host);
  }
  /// True when the site's pods are spread over more than one shard (its
  /// uplink is then ledger-owned).
  [[nodiscard]] bool site_split(std::uint32_t site) const {
    return site_split_.at(site);
  }

  // ---- host id mapping ----
  [[nodiscard]] HostId to_local_host(HostId global_host) const {
    return local_host_of_.at(global_host);
  }
  [[nodiscard]] HostId to_global_host(std::uint32_t shard,
                                      HostId local_host) const {
    return shards_.at(shard).local_to_global_host.at(local_host);
  }

  // ---- link ownership and mapping ----
  /// Owning shard of a global link, or kLedgerOwned for the shared uplink
  /// of a split site.  Host/rack/pod links are always owned by the shard of
  /// their pod; a site link is owned iff the site is unsplit.
  [[nodiscard]] std::uint32_t link_owner(LinkId global_link) const {
    return link_owner_.at(global_link);
  }
  /// Local id of an OWNED global link in its owner shard.  Only valid when
  /// link_owner() != kLedgerOwned.
  [[nodiscard]] LinkId to_local_link(LinkId global_link) const {
    return local_link_of_.at(global_link);
  }
  [[nodiscard]] LinkId to_global_link(std::uint32_t shard,
                                      LinkId local_link) const {
    return shards_.at(shard).local_to_global_link.at(local_link);
  }
  /// Global ids of every ledger-owned (shared) link, ascending.
  [[nodiscard]] const std::vector<LinkId>& shared_links() const noexcept {
    return shared_links_;
  }

  /// Adds one shard's occupancy (host loads, link reservations, active
  /// flags) onto an occupancy of the GLOBAL DataCenter — the stitch step of
  /// a cross-shard snapshot.  One OccupancyDelta batch stages exactly one op
  /// per touched host/link, carrying the shard's stored value, so the
  /// stitched state is bit-identical to a monolithic occupancy that
  /// performed the same logical mutations.  `shard_occupancy` must belong to
  /// shard_datacenter(shard); split-site local uplinks always carry zero
  /// (the invariant above), so shared links are never double-counted.
  void overlay(Occupancy& global_occupancy, std::uint32_t shard,
               const Occupancy& shard_occupancy) const;

 private:
  struct Shard {
    DataCenter dc;
    std::vector<HostId> local_to_global_host;
    std::vector<LinkId> local_to_global_link;
  };

  const DataCenter* global_;
  std::vector<Shard> shards_;
  std::vector<std::uint32_t> shard_of_pod_;   // global pod -> shard
  std::vector<std::uint32_t> shard_of_host_;  // global host -> shard
  std::vector<HostId> local_host_of_;         // global host -> local id
  std::vector<std::uint32_t> link_owner_;     // global link -> shard/ledger
  std::vector<LinkId> local_link_of_;         // global link -> local id
  std::vector<LinkId> shared_links_;
  std::vector<bool> site_split_;
};

}  // namespace ostro::dc
