// Placement serialization — operational tooling around the scheduler.
//
// A Placement can be exported as a JSON document (node names mapped to host
// names plus the reported metrics) and re-imported against the same
// topology/data-center pair, e.g. to persist decisions across scheduler
// restarts, diff two plans, or feed an external deployment system.  Import
// re-validates through core::verify_placement so a stale document cannot
// smuggle an invalid placement back in.
#pragma once

#include <string>

#include "core/types.h"
#include "datacenter/occupancy.h"
#include "util/json.h"

namespace ostro::core {

/// Raised on malformed or non-validating placement documents.
class PlacementIoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Serializes a feasible placement:
/// { "assignment": {"<node>": "<host>", ...},
///   "utility": ..., "reserved_bandwidth_mbps": ...,
///   "new_active_hosts": ..., "hosts_used": ... }
/// Throws PlacementIoError for infeasible placements.
[[nodiscard]] util::Json placement_to_json(const Placement& placement,
                                           const topo::AppTopology& topology,
                                           const dc::DataCenter& datacenter);

/// Parses and re-validates a placement document against `topology` and
/// `base`.  Metrics are recomputed from the assignment (the document's
/// numbers are informational only).  Throws PlacementIoError on a missing
/// or mistyped "assignment" field or host value, unknown node/host names,
/// missing nodes, or constraint violations.
[[nodiscard]] Placement placement_from_json(const util::Json& document,
                                            const topo::AppTopology& topology,
                                            const dc::Occupancy& base,
                                            const SearchConfig& config);

/// Convenience text round-trips.
[[nodiscard]] std::string placement_to_text(const Placement& placement,
                                            const topo::AppTopology& topology,
                                            const dc::DataCenter& datacenter);
[[nodiscard]] Placement placement_from_text(const std::string& text,
                                            const topo::AppTopology& topology,
                                            const dc::Occupancy& base,
                                            const SearchConfig& config);

}  // namespace ostro::core
