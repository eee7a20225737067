// Heuristic utility estimates (GetHeuristic of Algorithm 1, Section
// III-A-2 of the paper).
//
// Two estimates are provided:
//
//  * candidate_estimate — the per-candidate score EG uses in GetBest.  It
//    combines (i) the exact cost of the node's pipes to already-placed
//    neighbors when put on the candidate host, (ii) a residual-aware bound
//    for its pipes to unplaced neighbors (can they still co-locate with the
//    node on this host?), (iii) the candidate-independent lower bound of all
//    other open pipes, and (iv) the host-activation cost.  O(degree) per
//    candidate, which keeps EG's full scan over thousands of hosts cheap.
//
//  * imaginary_completion — the paper's full estimate: remaining nodes are
//    approximately placed, sorted by bandwidth requirement, onto used hosts
//    or onto "imaginary hosts" created when capacity / diversity /
//    connectivity rules demand one (Figure 4).  Imaginary hosts carry the
//    maximum per-resource host capacity of the data center and do not count
//    toward u_c.  Sharper than the admissible bound but not guaranteed to
//    be a lower bound.  No search calls it: DBA* ranks children with
//    candidate_estimate, and BA* orders by the admissible bound.
#pragma once

#include <span>
#include <vector>

#include "core/partial.h"

namespace ostro::core {

/// Estimated additional usage to complete a partial placement.
struct Estimate {
  double ubw = 0.0;  ///< additional link-weighted bandwidth (Mbps x links)
  double uc = 0.0;   ///< additional newly-activated hosts
};

/// Reusable per-thread buffers for NodeEstimateContext::estimate.  One
/// instance per ThreadPool slot (see ThreadPool::parallel_for_slots) lets
/// the candidate fan run allocation-free once the buffers are warm.
struct EstimateScratch {
  std::vector<std::uint32_t> assumed;  ///< future indices assumed co-located
};

/// Per-node invariants of Estimator::candidate_estimate, hoisted out of the
/// per-candidate loop.  EG scores every candidate host for one node per
/// placement step; the node-side work of the estimate — partitioning the
/// neighbors into placed and future, sorting the future list, scanning the
/// node's diversity zones for unplaced mates and their attraction to used
/// hosts — is identical for every candidate, yet candidate_estimate redoes
/// it per (node x host).  A context computes it once per step; estimate()
/// then reproduces candidate_estimate's arithmetic exactly (same operations
/// on the same accumulators in the same order), so the scores are
/// bit-identical to the reference path (asserted by the differential
/// tests).  The context snapshots the placement: it is valid only until the
/// next mutation of `p`.
class NodeEstimateContext {
 public:
  /// `rest` must be Estimator::rest_bound(p, node).
  NodeEstimateContext(const PartialPlacement& p, topo::NodeId node,
                      double rest);

  /// Equivalent of Estimator::candidate_estimate(p, node, host, rest) for
  /// the captured (p, node, rest).  Like candidate_estimate it counts
  /// nothing: the loop over the candidate fan adds the fan's size to
  /// "estimator.candidate_estimates" once (see util/metrics.h).
  [[nodiscard]] Estimate estimate(dc::HostId host,
                                  EstimateScratch& scratch) const;

 private:
  /// A neighbor already placed when the context was built, in original
  /// neighbor order (the order candidate_estimate's accumulators see).
  struct PlacedNeighbor {
    dc::HostId host = dc::kInvalidHost;
    double bandwidth_mbps = 0.0;
  };
  /// An unplaced neighbor, in the estimate's (bandwidth desc, node asc)
  /// packing order.
  struct FutureNeighbor {
    topo::NodeId node = topo::kInvalidNode;
    double bandwidth_mbps = 0.0;
    topo::Resources requirements;
    /// Scope already forced host-independently: required_separation between
    /// the node and this neighbor.
    dc::Scope forced = dc::Scope::kSameHost;
    /// Placed zone members of this neighbor (host, level): the candidate
    /// host must be separated from each, else the zone forces its scope
    /// (zone_scope_to_host, evaluated per candidate from this list).
    std::vector<std::pair<dc::HostId, topo::DiversityLevel>> zone_members;
    /// Per used host: the strongest single pipe from any unplaced
    /// host-level zone-mate of this neighbor to a resident.  Claim check
    /// (d) is then a lookup: claimed iff max_pipe >= bandwidth_mbps.
    std::vector<std::pair<dc::HostId, double>> mate_claim;
  };

  [[nodiscard]] static double lookup(
      const std::vector<std::pair<dc::HostId, double>>& table, dc::HostId host);

  const PartialPlacement* p_;
  const topo::AppTopology* topology_;
  const dc::DataCenter* datacenter_;
  topo::NodeId node_ = topo::kInvalidNode;
  double rest_ = 0.0;
  topo::Resources requirements_;
  std::vector<PlacedNeighbor> placed_;
  std::vector<FutureNeighbor> future_;
  /// sep_[i * future_.size() + j]: future i and j are zone-separated
  /// (required_separation), for assumed-conflict check (c).
  std::vector<char> sep_;
  /// Per host holding >= 1 neighbor of the node: summed pipe bandwidth from
  /// the node to its residents (own_bw_here of the reference path).
  std::vector<std::pair<dc::HostId, double>> own_bw_;
  /// Per host: strongest attraction of any unplaced host-level zone-mate of
  /// the node (sum of the mate's pipes to residents).  Seat-stealing term.
  std::vector<std::pair<dc::HostId, double>> attraction_;
};

class Estimator {
 public:
  /// Candidate-independent part of EG's score for placing `node` next: the
  /// lower bound of every open pipe not incident to `node`.
  [[nodiscard]] static double rest_bound(const PartialPlacement& p,
                                         topo::NodeId node);

  /// EG's per-candidate estimate (see file comment).  `rest` must be
  /// rest_bound(p, node).  Callers count their estimates under
  /// "estimator.candidate_estimates", once per candidate fan.
  [[nodiscard]] static Estimate candidate_estimate(const PartialPlacement& p,
                                                   topo::NodeId node,
                                                   dc::HostId host,
                                                   double rest);

  /// The paper's imaginary-host completion estimate for the whole remaining
  /// node set of `p`.
  [[nodiscard]] static Estimate imaginary_completion(const PartialPlacement& p);
};

}  // namespace ostro::core
