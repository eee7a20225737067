#include "datacenter/dc_io.h"

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "datacenter/state_delta.h"

namespace ostro::dc {
namespace {

[[nodiscard]] const util::JsonArray& require_array(const util::Json& parent,
                                                   const std::string& key) {
  if (!parent.contains(key)) throw DcIoError("missing \"" + key + "\" array");
  try {
    return parent.at(key).as_array();
  } catch (const util::JsonError&) {
    throw DcIoError("\"" + key + "\" must be an array");
  }
}

}  // namespace

DataCenter datacenter_from_json(const util::Json& document) {
  if (!document.is_object()) {
    throw DcIoError("data-center document must be an object");
  }
  DataCenterBuilder builder;
  try {
    if (document.contains("scope_latencies_us")) {
      const auto& values = document.at("scope_latencies_us").as_array();
      if (values.size() != 5) {
        throw DcIoError("scope_latencies_us must list exactly 5 values");
      }
      std::array<double, 5> latencies{};
      for (std::size_t i = 0; i < 5; ++i) {
        latencies[i] = values[i].as_number();
      }
      builder.set_scope_latencies(latencies);
    }
    for (const auto& site_doc : require_array(document, "sites")) {
      const auto site = builder.add_site(
          site_doc.at("name").as_string(),
          site_doc.number_or("uplink_mbps", 0.0));
      for (const auto& pod_doc : require_array(site_doc, "pods")) {
        const auto pod = builder.add_pod(
            site, pod_doc.at("name").as_string(),
            pod_doc.number_or("uplink_mbps", 0.0));
        for (const auto& rack_doc : require_array(pod_doc, "racks")) {
          const auto rack = builder.add_rack(
              pod, rack_doc.at("name").as_string(),
              rack_doc.number_or("uplink_mbps", 0.0));
          for (const auto& host_doc : require_array(rack_doc, "hosts")) {
            std::vector<std::string> tags;
            if (host_doc.contains("tags")) {
              for (const auto& tag : host_doc.at("tags").as_array()) {
                tags.push_back(tag.as_string());
              }
            }
            builder.add_host(
                rack, host_doc.at("name").as_string(),
                {host_doc.at("vcpus").as_number(),
                 host_doc.at("mem_gb").as_number(),
                 host_doc.at("disk_gb").as_number()},
                host_doc.number_or("uplink_mbps", 0.0), std::move(tags));
          }
        }
      }
    }
    return builder.build();
  } catch (const util::JsonError& e) {
    throw DcIoError(std::string("malformed data-center document: ") +
                    e.what());
  } catch (const std::invalid_argument& e) {
    throw DcIoError(std::string("invalid data-center document: ") + e.what());
  }
}

DataCenter datacenter_from_text(const std::string& text) {
  try {
    return datacenter_from_json(util::Json::parse(text));
  } catch (const util::JsonError& e) {
    throw DcIoError(std::string("data center is not valid JSON: ") +
                    e.what());
  }
}

util::Json datacenter_to_json(const DataCenter& datacenter) {
  util::JsonObject document;
  util::JsonArray latencies;
  for (int s = 0; s <= static_cast<int>(Scope::kCrossSite); ++s) {
    latencies.emplace_back(
        datacenter.scope_latency_us(static_cast<Scope>(s)));
  }
  document["scope_latencies_us"] = util::Json(std::move(latencies));

  util::JsonArray sites;
  for (const auto& site : datacenter.sites()) {
    util::JsonObject site_doc;
    site_doc["name"] = site.name;
    site_doc["uplink_mbps"] = site.uplink_mbps;
    util::JsonArray pods;
    for (const auto pod_id : site.pods) {
      const auto& pod = datacenter.pods()[pod_id];
      util::JsonObject pod_doc;
      pod_doc["name"] = pod.name;
      pod_doc["uplink_mbps"] = pod.uplink_mbps;
      util::JsonArray racks;
      for (const auto rack_id : pod.racks) {
        const auto& rack = datacenter.racks()[rack_id];
        util::JsonObject rack_doc;
        rack_doc["name"] = rack.name;
        rack_doc["uplink_mbps"] = rack.uplink_mbps;
        util::JsonArray hosts;
        for (const auto host_id : rack.hosts) {
          const auto& host = datacenter.host(host_id);
          util::JsonObject host_doc;
          host_doc["name"] = host.name;
          host_doc["vcpus"] = host.capacity.vcpus;
          host_doc["mem_gb"] = host.capacity.mem_gb;
          host_doc["disk_gb"] = host.capacity.disk_gb;
          host_doc["uplink_mbps"] = host.uplink_mbps;
          if (!host.tags.empty()) {
            util::JsonArray tags;
            for (const auto& tag : host.tags) tags.emplace_back(tag);
            host_doc["tags"] = util::Json(std::move(tags));
          }
          hosts.emplace_back(std::move(host_doc));
        }
        rack_doc["hosts"] = util::Json(std::move(hosts));
        racks.emplace_back(std::move(rack_doc));
      }
      pod_doc["racks"] = util::Json(std::move(racks));
      pods.emplace_back(std::move(pod_doc));
    }
    site_doc["pods"] = util::Json(std::move(pods));
    sites.emplace_back(std::move(site_doc));
  }
  document["sites"] = util::Json(std::move(sites));
  return util::Json(std::move(document));
}

util::Json occupancy_to_json(const Occupancy& occupancy) {
  const DataCenter& datacenter = occupancy.datacenter();
  util::JsonObject hosts;
  for (const auto& host : datacenter.hosts()) {
    const topo::Resources used = occupancy.used(host.id);
    const bool active = occupancy.is_active(host.id);
    if (used.is_zero() && !active) continue;
    util::JsonObject host_doc;
    host_doc["vcpus"] = used.vcpus;
    host_doc["mem_gb"] = used.mem_gb;
    host_doc["disk_gb"] = used.disk_gb;
    host_doc["active"] = active;
    hosts[host.name] = util::Json(std::move(host_doc));
  }
  util::JsonObject links;
  for (LinkId link = 0; link < datacenter.link_count(); ++link) {
    const double used = occupancy.link_used_mbps(link);
    if (used > 0.0) links[datacenter.link_name(link)] = used;
  }
  util::JsonObject document;
  document["hosts"] = util::Json(std::move(hosts));
  document["links"] = util::Json(std::move(links));
  return util::Json(std::move(document));
}

Occupancy occupancy_from_json(const DataCenter& datacenter,
                              const util::Json& document) {
  Occupancy occupancy(datacenter);
  if (!document.is_object()) {
    throw DcIoError("occupancy document must be an object");
  }
  // Link names -> ids (built once; the name format is link_name()'s).
  std::unordered_map<std::string, LinkId> link_index;
  for (LinkId link = 0; link < datacenter.link_count(); ++link) {
    link_index[datacenter.link_name(link)] = link;
  }
  // The document lists hosts and links by name; they are staged in id
  // order so the one batch appends (a name-ordered staging of a large
  // fleet would insert into the middle every time).
  OccupancyDelta loads(occupancy);
  std::vector<HostId> active;
  try {
    if (document.contains("hosts")) {
      std::vector<std::pair<HostId, topo::Resources>> hosts;
      for (const auto& [name, host_doc] : document.at("hosts").as_object()) {
        const auto host = datacenter.find_host(name);
        if (!host) throw DcIoError("occupancy names unknown host " + name);
        const topo::Resources used{host_doc.number_or("vcpus", 0.0),
                                   host_doc.number_or("mem_gb", 0.0),
                                   host_doc.number_or("disk_gb", 0.0)};
        if (!used.is_zero()) hosts.emplace_back(*host, used);
        if (host_doc.contains("active") &&
            host_doc.at("active").as_bool()) {
          active.push_back(*host);
        }
      }
      std::sort(hosts.begin(), hosts.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      for (const auto& [host, used] : hosts) loads.add_host_load(host, used);
    }
    if (document.contains("links")) {
      std::vector<std::pair<LinkId, double>> links;
      for (const auto& [name, used] : document.at("links").as_object()) {
        const auto it = link_index.find(name);
        if (it == link_index.end()) {
          throw DcIoError("occupancy names unknown link " + name);
        }
        links.emplace_back(it->second, used.as_number());
      }
      std::sort(links.begin(), links.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      for (const auto& [link, mbps] : links) loads.reserve_link(link, mbps);
    }
  } catch (const util::JsonError& e) {
    throw DcIoError(std::string("malformed occupancy document: ") + e.what());
  } catch (const std::invalid_argument& e) {
    throw DcIoError(std::string("invalid occupancy document: ") + e.what());
  }
  occupancy.apply_delta(loads);
  for (const HostId host : active) occupancy.mark_active(host);
  return occupancy;
}

Occupancy occupancy_from_text(const DataCenter& datacenter,
                              const std::string& text) {
  try {
    return occupancy_from_json(datacenter, util::Json::parse(text));
  } catch (const util::JsonError& e) {
    throw DcIoError(std::string("occupancy is not valid JSON: ") + e.what());
  }
}

}  // namespace ostro::dc
