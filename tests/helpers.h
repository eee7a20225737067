// Shared fixtures for the test suite: small data centers and application
// topologies with hand-checkable optima, random instance generators for the
// property-based sweeps, and one-op occupancy batches.
#pragma once

#include <string>
#include <vector>

#include "core/objective.h"
#include "core/partial.h"
#include "datacenter/datacenter.h"
#include "datacenter/occupancy.h"
#include "datacenter/state_delta.h"
#include "topology/app_topology.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace ostro::testing {

/// One site, `racks` racks, `hosts_per_rack` hosts of (8 cores, 16 GB,
/// 500 GB, 1000 Mbps uplink); ToR uplinks 4000 Mbps, pod/site 16000.
inline dc::DataCenter small_dc(int racks = 2, int hosts_per_rack = 2) {
  dc::DataCenterBuilder builder;
  const auto site = builder.add_site("site0", 16000.0);
  const auto pod = builder.add_pod(site, "pod0", 16000.0);
  for (int r = 0; r < racks; ++r) {
    const auto rack =
        builder.add_rack(pod, util::format("rack%d", r), 4000.0);
    for (int h = 0; h < hosts_per_rack; ++h) {
      builder.add_host(rack, util::format("h%d-%d", r, h),
                       {8.0, 16.0, 500.0}, 1000.0);
    }
  }
  return builder.build();
}

/// Two-site variant for datacenter-level diversity tests.
inline dc::DataCenter two_site_dc(int racks_per_site = 1,
                                  int hosts_per_rack = 2) {
  dc::DataCenterBuilder builder;
  for (int s = 0; s < 2; ++s) {
    const auto site = builder.add_site(util::format("site%d", s), 8000.0);
    const auto pod = builder.add_pod(site, util::format("s%d-pod", s), 8000.0);
    for (int r = 0; r < racks_per_site; ++r) {
      const auto rack = builder.add_rack(
          pod, util::format("s%d-rack%d", s, r), 4000.0);
      for (int h = 0; h < hosts_per_rack; ++h) {
        builder.add_host(rack, util::format("s%d-h%d-%d", s, r, h),
                         {8.0, 16.0, 500.0}, 1000.0);
      }
    }
  }
  return builder.build();
}

// One-op batches: an Occupancy's loads and bandwidth change only through
// apply_delta, so tests that set up or poke an occupancy one op at a time
// stage each op as its own OccupancyDelta batch.  Each throws what the
// staged op throws, leaving the occupancy untouched.

inline void add_host_load(dc::Occupancy& occupancy, dc::HostId h,
                          const topo::Resources& load) {
  dc::OccupancyDelta delta(occupancy);
  delta.add_host_load(h, load);
  occupancy.apply_delta(delta);
}

inline void remove_host_load(dc::Occupancy& occupancy, dc::HostId h,
                             const topo::Resources& load) {
  dc::OccupancyDelta delta(occupancy);
  delta.remove_host_load(h, load);
  occupancy.apply_delta(delta);
}

inline void reserve_link(dc::Occupancy& occupancy, dc::LinkId link,
                         double mbps) {
  dc::OccupancyDelta delta(occupancy);
  delta.reserve_link(link, mbps);
  occupancy.apply_delta(delta);
}

inline void release_link(dc::Occupancy& occupancy, dc::LinkId link,
                         double mbps) {
  dc::OccupancyDelta delta(occupancy);
  delta.release_link(link, mbps);
  occupancy.apply_delta(delta);
}

/// Classic pair: two VMs + a volume, one pipe each, no zones.
inline topo::AppTopology tiny_app() {
  topo::TopologyBuilder builder;
  builder.add_vm("web", {2.0, 2.0, 0.0});
  builder.add_vm("db", {4.0, 4.0, 0.0});
  builder.add_volume("data", 100.0);
  builder.connect("web", "db", 100.0);
  builder.connect("db", "data", 200.0);
  return builder.build();
}

/// Random feasible-ish instance for property sweeps: `vms` VMs with small
/// requirements, random pipes with probability `edge_p`, and an optional
/// host-level zone over a random subset.
inline topo::AppTopology random_app(util::Rng& rng, int vms,
                                    double edge_p = 0.4,
                                    bool with_zone = true) {
  topo::TopologyBuilder builder;
  for (int i = 0; i < vms; ++i) {
    const double cpu = static_cast<double>(rng.uniform_int(1, 3));
    builder.add_vm(util::format("vm%d", i), {cpu, cpu, 0.0});
  }
  for (int a = 0; a < vms; ++a) {
    for (int b = a + 1; b < vms; ++b) {
      if (rng.chance(edge_p)) {
        builder.connect(static_cast<topo::NodeId>(a),
                        static_cast<topo::NodeId>(b),
                        static_cast<double>(rng.uniform_int(1, 8)) * 25.0);
      }
    }
  }
  if (with_zone && vms >= 3 && rng.chance(0.7)) {
    std::vector<topo::NodeId> members;
    for (int i = 0; i < vms; ++i) {
      if (rng.chance(0.5)) members.push_back(static_cast<topo::NodeId>(i));
    }
    if (members.size() >= 2) {
      builder.add_zone("dz", topo::DiversityLevel::kHost, std::move(members));
    }
  }
  return builder.build();
}

}  // namespace ostro::testing
