#include "datacenter/datacenter.h"

#include <algorithm>
#include <stdexcept>

namespace ostro::dc {

bool Host::has_all_tags(
    const std::vector<std::string>& required) const noexcept {
  // Both vectors are sorted: subset check by merge walk.
  return std::includes(tags.begin(), tags.end(), required.begin(),
                       required.end());
}

std::optional<Scope> DataCenter::max_scope_for_latency(
    double budget_us) const noexcept {
  std::optional<Scope> widest;
  for (int s = 0; s <= static_cast<int>(Scope::kCrossSite); ++s) {
    if (scope_latency_us_[static_cast<std::size_t>(s)] <= budget_us) {
      widest = static_cast<Scope>(s);
    }
  }
  return widest;
}

std::optional<HostId> DataCenter::find_host(
    const std::string& name) const noexcept {
  for (const auto& h : hosts_) {
    if (h.name == name) return h.id;
  }
  return std::nullopt;
}

const Host& DataCenter::host(HostId id) const {
  if (id >= hosts_.size()) {
    throw std::out_of_range("DataCenter::host: bad id");
  }
  return hosts_[id];
}

Scope DataCenter::scope_between(HostId a, HostId b) const {
  if (a >= ancestors_.size() || b >= ancestors_.size()) {
    throw std::out_of_range("DataCenter::scope_between: bad host id");
  }
  if (a == b) return Scope::kSameHost;
  const HostAncestors& ta = ancestors_[a];
  const HostAncestors& tb = ancestors_[b];
  if (ta.rack == tb.rack) return Scope::kSameRack;
  if (ta.pod == tb.pod) return Scope::kSamePod;
  if (ta.site == tb.site) return Scope::kSameSite;
  return Scope::kCrossSite;
}

bool DataCenter::separated_at(HostId a, HostId b,
                              topo::DiversityLevel level) const {
  if (a >= ancestors_.size() || b >= ancestors_.size()) {
    throw std::out_of_range("DataCenter::separated_at: bad host id");
  }
  const HostAncestors& ta = ancestors_[a];
  const HostAncestors& tb = ancestors_[b];
  switch (level) {
    case topo::DiversityLevel::kHost: return a != b;
    case topo::DiversityLevel::kRack: return ta.rack != tb.rack;
    case topo::DiversityLevel::kPod: return ta.pod != tb.pod;
    case topo::DiversityLevel::kDatacenter: return ta.site != tb.site;
  }
  return false;
}

void DataCenter::path_links(HostId a, HostId b,
                            std::vector<LinkId>& out) const {
  const PathLinks path = path_between(a, b);
  out.insert(out.end(), path.begin(), path.end());
}

PathLinks DataCenter::path_between(HostId a, HostId b) const {
  // scope_between validates both ids; int(scope) is the number of levels
  // whose uplink pair the pipe traverses (0 on the same host, up to 4
  // across sites).
  const Scope scope = scope_between(a, b);
  const auto levels = static_cast<std::uint32_t>(scope);
  const LinkId* chain_a = &uplink_chains_[std::size_t{a} * 4];
  const LinkId* chain_b = &uplink_chains_[std::size_t{b} * 4];
  PathLinks out;
  for (std::uint32_t i = 0; i < levels; ++i) {
    out.links[out.count++] = chain_a[i];
    out.links[out.count++] = chain_b[i];
  }
  return out;
}

std::size_t DataCenter::link_count() const noexcept {
  return hosts_.size() + racks_.size() + pods_.size() + sites_.size();
}

LinkId DataCenter::host_link(HostId h) const noexcept {
  return static_cast<LinkId>(h);
}

LinkId DataCenter::rack_link(std::uint32_t rack) const noexcept {
  return static_cast<LinkId>(hosts_.size() + rack);
}

LinkId DataCenter::pod_link(std::uint32_t pod) const noexcept {
  return static_cast<LinkId>(hosts_.size() + racks_.size() + pod);
}

LinkId DataCenter::site_link(std::uint32_t site) const noexcept {
  return static_cast<LinkId>(hosts_.size() + racks_.size() + pods_.size() +
                             site);
}

double DataCenter::link_capacity(LinkId link) const {
  std::size_t index = link;
  if (index < hosts_.size()) return hosts_[index].uplink_mbps;
  index -= hosts_.size();
  if (index < racks_.size()) return racks_[index].uplink_mbps;
  index -= racks_.size();
  if (index < pods_.size()) return pods_[index].uplink_mbps;
  index -= pods_.size();
  if (index < sites_.size()) return sites_[index].uplink_mbps;
  throw std::out_of_range("DataCenter::link_capacity: bad link");
}

std::string DataCenter::link_name(LinkId link) const {
  std::size_t index = link;
  if (index < hosts_.size()) return "host:" + hosts_[index].name;
  index -= hosts_.size();
  if (index < racks_.size()) return "tor:" + racks_[index].name;
  index -= racks_.size();
  if (index < pods_.size()) return "pod:" + pods_[index].name;
  index -= pods_.size();
  if (index < sites_.size()) return "site:" + sites_[index].name;
  throw std::out_of_range("DataCenter::link_name: bad link");
}

std::uint32_t DataCenterBuilder::add_site(const std::string& name,
                                          double uplink_mbps) {
  if (uplink_mbps < 0.0) {
    throw std::invalid_argument("add_site: negative uplink");
  }
  const auto id = static_cast<std::uint32_t>(dc_.sites_.size());
  dc_.sites_.push_back(Site{id, name, uplink_mbps, {}});
  return id;
}

std::uint32_t DataCenterBuilder::add_pod(std::uint32_t site,
                                         const std::string& name,
                                         double uplink_mbps) {
  if (site >= dc_.sites_.size()) {
    throw std::invalid_argument("add_pod: unknown site");
  }
  if (uplink_mbps < 0.0) {
    throw std::invalid_argument("add_pod: negative uplink");
  }
  const auto id = static_cast<std::uint32_t>(dc_.pods_.size());
  dc_.pods_.push_back(Pod{id, name, site, uplink_mbps, {}});
  dc_.sites_[site].pods.push_back(id);
  return id;
}

std::uint32_t DataCenterBuilder::add_rack(std::uint32_t pod,
                                          const std::string& name,
                                          double uplink_mbps) {
  if (pod >= dc_.pods_.size()) {
    throw std::invalid_argument("add_rack: unknown pod");
  }
  if (uplink_mbps < 0.0) {
    throw std::invalid_argument("add_rack: negative uplink");
  }
  const auto id = static_cast<std::uint32_t>(dc_.racks_.size());
  const auto site = dc_.pods_[pod].datacenter;
  dc_.racks_.push_back(Rack{id, name, pod, site, uplink_mbps, {}});
  dc_.pods_[pod].racks.push_back(id);
  return id;
}

HostId DataCenterBuilder::add_host(std::uint32_t rack, const std::string& name,
                                   const topo::Resources& capacity,
                                   double uplink_mbps,
                                   std::vector<std::string> tags) {
  if (rack >= dc_.racks_.size()) {
    throw std::invalid_argument("add_host: unknown rack");
  }
  topo::require_nonnegative(capacity, "host " + name);
  if (uplink_mbps < 0.0) {
    throw std::invalid_argument("add_host: negative uplink");
  }
  for (const auto& tag : tags) {
    if (tag.empty()) throw std::invalid_argument("add_host: empty tag");
  }
  std::sort(tags.begin(), tags.end());
  tags.erase(std::unique(tags.begin(), tags.end()), tags.end());
  const auto id = static_cast<HostId>(dc_.hosts_.size());
  const Rack& r = dc_.racks_[rack];
  dc_.hosts_.push_back(Host{id, name, rack, r.pod, r.datacenter, capacity,
                            uplink_mbps, std::move(tags)});
  dc_.racks_[rack].hosts.push_back(id);
  return id;
}

DataCenterBuilder& DataCenterBuilder::set_scope_latencies(
    const std::array<double, 5>& us) {
  double previous = 0.0;
  for (const double value : us) {
    if (value < 0.0 || value < previous) {
      throw std::invalid_argument(
          "set_scope_latencies: latencies must be non-negative and "
          "non-decreasing");
    }
    previous = value;
  }
  dc_.scope_latency_us_ = us;
  return *this;
}

DataCenter DataCenterBuilder::build() {
  if (dc_.hosts_.empty()) {
    throw std::invalid_argument("DataCenterBuilder::build: no hosts");
  }
  topo::Resources max_cap;
  double max_uplink = 0.0;
  for (const Host& h : dc_.hosts_) {
    max_cap.vcpus = std::max(max_cap.vcpus, h.capacity.vcpus);
    max_cap.mem_gb = std::max(max_cap.mem_gb, h.capacity.mem_gb);
    max_cap.disk_gb = std::max(max_cap.disk_gb, h.capacity.disk_gb);
    max_uplink = std::max(max_uplink, h.uplink_mbps);
  }
  dc_.max_host_capacity_ = max_cap;
  dc_.max_host_uplink_ = max_uplink;

  Scope widest = Scope::kSameHost;
  if (dc_.sites_.size() > 1) {
    widest = Scope::kCrossSite;
  } else if (dc_.pods_.size() > 1) {
    widest = Scope::kSameSite;
  } else if (dc_.racks_.size() > 1) {
    widest = Scope::kSamePod;
  } else if (dc_.hosts_.size() > 1) {
    widest = Scope::kSameRack;
  }
  dc_.max_scope_ = widest;

  // Derive the hot-path tables: per-host ancestor triples and the flat
  // uplink chains (host->ToR, ToR->pod, pod->root, root->interconnect) that
  // scope_between / path_between read instead of walking the hierarchy.
  dc_.ancestors_.resize(dc_.hosts_.size());
  dc_.uplink_chains_.resize(dc_.hosts_.size() * 4);
  for (const Host& h : dc_.hosts_) {
    dc_.ancestors_[h.id] = HostAncestors{h.rack, h.pod, h.datacenter};
    LinkId* chain = &dc_.uplink_chains_[std::size_t{h.id} * 4];
    chain[0] = dc_.host_link(h.id);
    chain[1] = dc_.rack_link(h.rack);
    chain[2] = dc_.pod_link(h.pod);
    chain[3] = dc_.site_link(h.datacenter);
  }

  DataCenter out = std::move(dc_);
  dc_ = DataCenter{};
  return out;
}

}  // namespace ostro::dc
