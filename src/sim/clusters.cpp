#include "sim/clusters.h"

#include <stdexcept>
#include <vector>

#include "datacenter/state_delta.h"
#include "util/string_util.h"

namespace ostro::sim {
namespace {

constexpr topo::Resources kHostCapacity{16.0, 32.0, 1000.0};

/// One preload batch: hosts consumed down to given availabilities, staged
/// in one delta (callers feed ascending host ids) and flushed by apply().
class Preload {
 public:
  explicit Preload(dc::Occupancy& occupancy)
      : occupancy_(&occupancy), delta_(occupancy) {}

  /// Stages consuming capacity on `host` so that exactly `avail` remains.
  void load_host_to(dc::HostId host, double avail_cores, double avail_mem_gb,
                    double avail_disk_gb, double avail_uplink_mbps) {
    const dc::Host& h = occupancy_->datacenter().host(host);
    const topo::Resources used{h.capacity.vcpus - avail_cores,
                               h.capacity.mem_gb - avail_mem_gb,
                               h.capacity.disk_gb - avail_disk_gb};
    topo::require_nonnegative(used, "preload of " + h.name);
    if (!used.is_zero()) {
      delta_.add_host_load(host, used);
    }
    const double used_bw = h.uplink_mbps - avail_uplink_mbps;
    if (used_bw < 0.0) {
      throw std::invalid_argument("preload: uplink availability > capacity");
    }
    if (used_bw > 0.0) {
      delta_.reserve_link(occupancy_->datacenter().host_link(host), used_bw);
      uplink_loaded_.push_back(host);
    }
  }

  /// Flushes the batch.  Hosts that received load turn active in
  /// apply_delta; every host whose uplink carries bandwidth is marked too.
  void apply() {
    occupancy_->apply_delta(delta_);
    for (const dc::HostId host : uplink_loaded_) occupancy_->mark_active(host);
  }

 private:
  dc::Occupancy* occupancy_;
  dc::OccupancyDelta delta_;
  std::vector<dc::HostId> uplink_loaded_;
};

}  // namespace

dc::DataCenter make_testbed() {
  dc::DataCenterBuilder builder;
  const auto site = builder.add_site("testbed", 40'000.0);
  const auto pod = builder.add_pod(site, "pod0", 40'000.0);
  const auto rack = builder.add_rack(pod, "rack0", 40'000.0);
  for (int i = 0; i < 16; ++i) {
    builder.add_host(rack, util::format("host%d", i), kHostCapacity, 3200.0);
  }
  return builder.build();
}

void apply_testbed_preload(dc::Occupancy& occupancy, util::Rng& rng) {
  if (occupancy.datacenter().host_count() != 16) {
    throw std::invalid_argument(
        "apply_testbed_preload: expected the 16-host testbed");
  }
  Preload preload(occupancy);
  for (dc::HostId h = 0; h < 16; ++h) {
    if (h < 4) {
      // Lightly utilized: 8 or 10 available cores, > 20 GB free memory.
      const double cores = rng.chance(0.5) ? 8.0 : 10.0;
      const double mem = static_cast<double>(rng.uniform_int(21, 26));
      preload.load_host_to(h, cores, mem, 800.0, 3200.0);
    } else if (h < 8) {
      // Medium: 5 or 6 available cores, 15-19 GB available memory.
      const double cores = static_cast<double>(rng.uniform_int(5, 6));
      const double mem = static_cast<double>(rng.uniform_int(15, 19));
      preload.load_host_to(h, cores, mem, 700.0, 3200.0);
    } else if (h < 12) {
      // Constrained: < 5 cores, < 15 GB.
      const double cores = static_cast<double>(rng.uniform_int(2, 4));
      const double mem = static_cast<double>(rng.uniform_int(8, 14));
      preload.load_host_to(h, cores, mem, 600.0, 3200.0);
    }
    // Hosts 12-15 stay idle.
  }
  preload.apply();
}

dc::DataCenter make_sim_datacenter(int racks, int hosts_per_rack) {
  if (racks <= 0 || hosts_per_rack <= 0) {
    throw std::invalid_argument("make_sim_datacenter: non-positive sizes");
  }
  dc::DataCenterBuilder builder;
  const auto site = builder.add_site("sim-dc", 1'000'000.0);
  // The paper's simulated hierarchy has no pod switches: ToRs hang directly
  // off the root, so one pod spans all racks and intra-pod (cross-rack)
  // paths traverse exactly the two 100 Gbps ToR uplinks.
  const auto pod = builder.add_pod(site, "root", 1'000'000.0);
  for (int r = 0; r < racks; ++r) {
    const auto rack =
        builder.add_rack(pod, util::format("rack%d", r), 100'000.0);
    for (int h = 0; h < hosts_per_rack; ++h) {
      builder.add_host(rack, util::format("rack%d-host%d", r, h),
                       kHostCapacity, 10'000.0);
    }
  }
  return builder.build();
}

dc::DataCenter make_wan(int sites, int pods_per_site, int racks_per_pod,
                        int hosts_per_rack, double wan_gbps) {
  if (sites <= 0 || pods_per_site <= 0 || racks_per_pod <= 0 ||
      hosts_per_rack <= 0 || wan_gbps <= 0.0) {
    throw std::invalid_argument("make_wan: non-positive parameters");
  }
  dc::DataCenterBuilder builder;
  // Wide-area latencies: cross-site traffic costs milliseconds, not the
  // microseconds of the intra-DC defaults.
  builder.set_scope_latencies({5.0, 25.0, 80.0, 200.0, 20'000.0});
  for (int s = 0; s < sites; ++s) {
    const auto site =
        builder.add_site(util::format("site%d", s), wan_gbps * 1000.0);
    for (int p = 0; p < pods_per_site; ++p) {
      const auto pod = builder.add_pod(
          site, util::format("s%d-pod%d", s, p), 200'000.0);
      for (int r = 0; r < racks_per_pod; ++r) {
        const auto rack = builder.add_rack(
            pod, util::format("s%d-p%d-rack%d", s, p, r), 100'000.0);
        for (int h = 0; h < hosts_per_rack; ++h) {
          builder.add_host(rack,
                           util::format("s%d-p%d-r%d-host%d", s, p, r, h),
                           kHostCapacity, 10'000.0);
        }
      }
    }
  }
  return builder.build();
}

void apply_sim_preload(dc::Occupancy& occupancy, util::Rng& rng) {
  const dc::DataCenter& datacenter = occupancy.datacenter();
  Preload preload(occupancy);
  for (const auto& rack : datacenter.racks()) {
    const std::size_t n = rack.hosts.size();
    for (std::size_t i = 0; i < n; ++i) {
      const dc::HostId host = rack.hosts[i];
      const std::size_t quartile = (i * 4) / n;
      switch (quartile) {
        case 0: {
          // 9-16 cores, 17-30 GB, 0-1.5 Gbps available.
          preload.load_host_to(host,
                               static_cast<double>(rng.uniform_int(9, 16)),
                               static_cast<double>(rng.uniform_int(17, 30)),
                               kHostCapacity.disk_gb,
                               rng.uniform(0.0, 1500.0));
          break;
        }
        case 1: {
          // 6-8 cores, 8-16 GB, 2-5 Gbps available.
          preload.load_host_to(host,
                               static_cast<double>(rng.uniform_int(6, 8)),
                               static_cast<double>(rng.uniform_int(8, 16)),
                               kHostCapacity.disk_gb,
                               rng.uniform(2000.0, 5000.0));
          break;
        }
        case 2: {
          // 0-5 cores, 0-7 GB, 6-8 Gbps available.
          preload.load_host_to(host,
                               static_cast<double>(rng.uniform_int(0, 5)),
                               static_cast<double>(rng.uniform_int(0, 7)),
                               kHostCapacity.disk_gb,
                               rng.uniform(6000.0, 8000.0));
          break;
        }
        default:
          // Fully idle: 16 cores, 32 GB, 10 Gbps.
          break;
      }
    }
  }
  preload.apply();
}

}  // namespace ostro::sim
