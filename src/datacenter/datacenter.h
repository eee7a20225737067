// Hierarchical data-center model T_p (Section II-A-2, Figure 3 of the
// paper): hosts under ToR switches, racks grouped under pod switches, pods
// under a per-datacenter root, and optionally several data centers behind a
// wide-area interconnect.
//
// DataCenter describes the immutable structure and capacities; mutable
// occupancy (what is currently placed where) lives in Occupancy
// (occupancy.h) so that search algorithms can layer cheap deltas on top of a
// shared base state.
//
// Link model: every capacity-carrying uplink is one Link —
//   host -> ToR            (one per host)
//   ToR  -> pod switch     (one per rack)
//   pod  -> DC root        (one per pod)
//   root -> interconnect   (one per data center)
// The path between two hosts climbs to their lowest common level and
// traverses the uplinks of both sides: 0 links on the same host, 2 in the
// same rack, 4 in the same pod, 6 in the same DC, 8 across DCs.  A
// single-layer data center (paper's simulation: ToRs directly under the
// root) is modeled as one pod spanning all racks.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "topology/app_topology.h"
#include "topology/resources.h"

namespace ostro::dc {

using HostId = std::uint32_t;
inline constexpr HostId kInvalidHost = static_cast<HostId>(-1);

/// Flat index over all uplinks; see link layout in DataCenter.
using LinkId = std::uint32_t;

struct Host {
  HostId id = kInvalidHost;
  std::string name;
  std::uint32_t rack = 0;
  std::uint32_t pod = 0;
  std::uint32_t datacenter = 0;
  topo::Resources capacity;
  double uplink_mbps = 0.0;  ///< host-to-ToR link capacity
  /// Hardware capability tags ("ssd", "sriov", "gpu", ...), sorted.  A node
  /// with required_tags may only land on hosts carrying all of them.
  std::vector<std::string> tags;

  /// True when every tag in `required` (sorted) is present.
  [[nodiscard]] bool has_all_tags(
      const std::vector<std::string>& required) const noexcept;
};

struct Rack {
  std::uint32_t id = 0;
  std::string name;
  std::uint32_t pod = 0;
  std::uint32_t datacenter = 0;
  double uplink_mbps = 0.0;  ///< ToR-to-pod (or ToR-to-root) capacity
  std::vector<HostId> hosts;
};

struct Pod {
  std::uint32_t id = 0;
  std::string name;
  std::uint32_t datacenter = 0;
  double uplink_mbps = 0.0;  ///< pod-to-root capacity
  std::vector<std::uint32_t> racks;
};

struct Site {  // one data center
  std::uint32_t id = 0;
  std::string name;
  double uplink_mbps = 0.0;  ///< root-to-interconnect capacity
  std::vector<std::uint32_t> pods;
};

/// How far apart two hosts are in the hierarchy.
enum class Scope : std::uint8_t {
  kSameHost = 0,
  kSameRack = 1,
  kSamePod = 2,
  kSameSite = 3,
  kCrossSite = 4,
};

/// Physical links a pipe at `scope` traverses (0, 2, 4, 6, 8).
[[nodiscard]] constexpr int hop_count(Scope scope) noexcept {
  return 2 * static_cast<int>(scope);
}

/// Minimum scope between two nodes a diversity zone at `level` keeps apart:
/// host diversity puts them at least a rack apart, and so on up.
[[nodiscard]] constexpr Scope forced_scope(
    topo::DiversityLevel level) noexcept {
  switch (level) {
    case topo::DiversityLevel::kHost: return Scope::kSameRack;
    case topo::DiversityLevel::kRack: return Scope::kSamePod;
    case topo::DiversityLevel::kPod: return Scope::kSameSite;
    case topo::DiversityLevel::kDatacenter: return Scope::kCrossSite;
  }
  return Scope::kSameRack;
}

/// Packed per-host ancestor triple.  DataCenterBuilder::build() precomputes
/// one per host so the hot hierarchy queries (scope_between, separated_at)
/// read 12 contiguous bytes instead of chasing the full Host record (which
/// drags its name string and tag vector into the cache line).
struct HostAncestors {
  std::uint32_t rack = 0;
  std::uint32_t pod = 0;
  std::uint32_t site = 0;
};

/// Allocation-free result of DataCenter::path_between: the (at most 8)
/// uplinks a pipe between two hosts traverses, pairwise bottom up (host a,
/// host b, ToR a, ToR b, ...).
struct PathLinks {
  std::array<LinkId, 8> links{};
  std::uint32_t count = 0;

  [[nodiscard]] const LinkId* begin() const noexcept { return links.data(); }
  [[nodiscard]] const LinkId* end() const noexcept {
    return links.data() + count;
  }
  [[nodiscard]] std::size_t size() const noexcept { return count; }
  [[nodiscard]] LinkId operator[](std::size_t i) const noexcept {
    return links[i];
  }
};

class DataCenter {
 public:
  [[nodiscard]] const std::vector<Host>& hosts() const noexcept { return hosts_; }
  [[nodiscard]] const std::vector<Rack>& racks() const noexcept { return racks_; }
  [[nodiscard]] const std::vector<Pod>& pods() const noexcept { return pods_; }
  [[nodiscard]] const std::vector<Site>& sites() const noexcept { return sites_; }

  [[nodiscard]] std::size_t host_count() const noexcept { return hosts_.size(); }
  [[nodiscard]] const Host& host(HostId id) const;
  /// Looks a host up by name; nullopt when absent (linear scan).
  [[nodiscard]] std::optional<HostId> find_host(
      const std::string& name) const noexcept;

  /// Hierarchy distance between two hosts.  O(1): compares the precomputed
  /// ancestor triples, no tree walk.
  [[nodiscard]] Scope scope_between(HostId a, HostId b) const;

  /// True when a and b are on distinct units at `level` (the diversity-zone
  /// separation test of Section II-B-2).  O(1) via the ancestor table.
  [[nodiscard]] bool separated_at(HostId a, HostId b,
                                  topo::DiversityLevel level) const;

  /// The links a pipe between the two hosts traverses, in a fixed-size
  /// array; empty when a == b.  Read from the two precomputed uplink
  /// chains — no tree walk, no allocation.
  [[nodiscard]] PathLinks path_between(HostId a, HostId b) const;

  /// Precomputed ancestors of `h` (rack, pod, site).  Unchecked: `h` must
  /// be a valid host id.
  [[nodiscard]] const HostAncestors& ancestors(HostId h) const noexcept {
    return ancestors_[h];
  }

  /// The four uplinks between host `h` and the interconnect root, bottom up
  /// (host->ToR, ToR->pod, pod->root, root->interconnect).  Unchecked.
  [[nodiscard]] std::span<const LinkId, 4> uplink_chain(HostId h) const noexcept {
    return std::span<const LinkId, 4>(&uplink_chains_[std::size_t{h} * 4], 4);
  }

  /// Link layout: [0,H) host uplinks, [H,H+R) ToR uplinks, [H+R,H+R+P) pod
  /// uplinks, [H+R+P,H+R+P+S) site uplinks.
  [[nodiscard]] std::size_t link_count() const noexcept;
  [[nodiscard]] LinkId host_link(HostId h) const noexcept;
  [[nodiscard]] LinkId rack_link(std::uint32_t rack) const noexcept;
  [[nodiscard]] LinkId pod_link(std::uint32_t pod) const noexcept;
  [[nodiscard]] LinkId site_link(std::uint32_t site) const noexcept;
  [[nodiscard]] double link_capacity(LinkId link) const;
  [[nodiscard]] std::string link_name(LinkId link) const;

  /// Component-wise maximum host capacity: two nodes whose summed
  /// requirements exceed it never share a host (the admissible bound's
  /// co-location test, Section III-A-2).
  [[nodiscard]] const topo::Resources& max_host_capacity() const noexcept {
    return max_host_capacity_;
  }
  [[nodiscard]] double max_host_uplink_mbps() const noexcept {
    return max_host_uplink_;
  }

  /// Largest scope any pair of hosts can have; basis of the û_bw worst-case
  /// normalizer.
  [[nodiscard]] Scope max_scope() const noexcept { return max_scope_; }

  /// One-way latency (microseconds) between two endpoints separated at
  /// `scope`.  Supports the latency requirements of the paper's future work
  /// (Section VI): a pipe with max_latency_us only fits placements whose
  /// scope latency stays within the budget.  Values are configurable via
  /// DataCenterBuilder::set_scope_latencies; defaults approximate one
  /// switch hop per level: same host 5us, rack 25us, pod 80us, site 200us,
  /// cross-site 2000us.
  [[nodiscard]] double scope_latency_us(Scope scope) const noexcept {
    return scope_latency_us_[static_cast<std::size_t>(scope)];
  }

  /// Widest scope whose latency fits the budget, or nullopt when even
  /// same-host latency exceeds it.
  [[nodiscard]] std::optional<Scope> max_scope_for_latency(
      double budget_us) const noexcept;

  // ---- tag-reachability bitmaps (DESIGN.md section 12) ----
  // Hardware tags are immutable, so build() interns each distinct tag as
  // one bit (up to 64) and every rack/pod/site caches the OR of its hosts'
  // masks.  Candidate descent skips a subtree whose mask lacks a required
  // bit: no host below can pass the per-host tag check.

  /// True when every distinct hardware tag got a bit (<= 64 tags in the
  /// data center).  When false the bitmaps are disabled and callers must
  /// fall back to per-host tag checks alone.
  [[nodiscard]] bool tags_indexable() const noexcept { return !tag_overflow_; }

  /// Bitmask of `required` over the tag registry.  A required tag carried
  /// by no host in the data center yields the all-ones mask, which no
  /// subtree mask can cover — the caller then prunes everything, matching
  /// the per-host check that would reject every host.
  [[nodiscard]] std::uint64_t required_tag_mask(
      const std::vector<std::string>& required) const noexcept;

  [[nodiscard]] std::uint64_t host_tag_mask(HostId h) const noexcept {
    return host_tag_mask_[h];
  }
  [[nodiscard]] std::uint64_t rack_tag_mask(std::uint32_t r) const noexcept {
    return rack_tag_mask_[r];
  }
  [[nodiscard]] std::uint64_t pod_tag_mask(std::uint32_t p) const noexcept {
    return pod_tag_mask_[p];
  }
  [[nodiscard]] std::uint64_t site_tag_mask(std::uint32_t s) const noexcept {
    return site_tag_mask_[s];
  }

  // ---- structural floors of the separation ladder (DESIGN.md section 12) ----
  /// Racks with >= 2 hosts: without one, no two nodes sit a rack apart.
  [[nodiscard]] std::uint32_t multi_host_racks() const noexcept {
    return multi_host_racks_;
  }
  /// Pods with >= 2 non-empty racks.
  [[nodiscard]] std::uint32_t multi_rack_pods() const noexcept {
    return multi_rack_pods_;
  }
  /// Sites with >= 2 non-empty pods.
  [[nodiscard]] std::uint32_t multi_pod_sites() const noexcept {
    return multi_pod_sites_;
  }

 private:
  friend class DataCenterBuilder;

  std::vector<Host> hosts_;
  std::vector<Rack> racks_;
  std::vector<Pod> pods_;
  std::vector<Site> sites_;
  // Hot-path acceleration tables, derived by DataCenterBuilder::build():
  // per-host ancestor triples and the flat 4-links-per-host uplink chains
  // that scope_between / path_between read instead of walking the tree.
  std::vector<HostAncestors> ancestors_;
  std::vector<LinkId> uplink_chains_;
  // Tag registry and structural floors, also derived by build().
  std::vector<std::string> tag_names_;  ///< sorted; index = bit position
  bool tag_overflow_ = false;
  std::vector<std::uint64_t> host_tag_mask_;
  std::vector<std::uint64_t> rack_tag_mask_;
  std::vector<std::uint64_t> pod_tag_mask_;
  std::vector<std::uint64_t> site_tag_mask_;
  std::uint32_t multi_host_racks_ = 0;
  std::uint32_t multi_rack_pods_ = 0;
  std::uint32_t multi_pod_sites_ = 0;
  topo::Resources max_host_capacity_;
  double max_host_uplink_ = 0.0;
  Scope max_scope_ = Scope::kSameHost;
  std::array<double, 5> scope_latency_us_{5.0, 25.0, 80.0, 200.0, 2000.0};
};

/// Builds the hierarchy top-down; every add_* returns the unit's index.
///
///   DataCenterBuilder b;
///   auto site = b.add_site("dc1", 400'000);
///   auto pod  = b.add_pod(site, "pod1", 100'000);
///   auto rack = b.add_rack(pod, "rack1", 10'000);
///   b.add_host(rack, "host1", {16, 32, 1000}, 3200);
///   DataCenter dc = b.build();
class DataCenterBuilder {
 public:
  std::uint32_t add_site(const std::string& name, double uplink_mbps);
  std::uint32_t add_pod(std::uint32_t site, const std::string& name,
                        double uplink_mbps);
  std::uint32_t add_rack(std::uint32_t pod, const std::string& name,
                         double uplink_mbps);
  HostId add_host(std::uint32_t rack, const std::string& name,
                  const topo::Resources& capacity, double uplink_mbps,
                  std::vector<std::string> tags = {});

  /// Overrides the per-scope one-way latencies (microseconds), ordered
  /// same-host, same-rack, same-pod, same-site, cross-site; must be
  /// non-negative and non-decreasing.
  DataCenterBuilder& set_scope_latencies(const std::array<double, 5>& us);

  /// Validates (at least one host, positive capacities) and finishes.
  [[nodiscard]] DataCenter build();

 private:
  DataCenter dc_;
};

}  // namespace ostro::dc
