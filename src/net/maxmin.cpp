#include "net/maxmin.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace ostro::net {
namespace {

FairShareResult solve(const dc::DataCenter& datacenter,
                      const std::vector<double>& capacity,
                      const std::vector<Flow>& flows) {
  FairShareResult result;
  result.rate_mbps.assign(flows.size(), 0.0);
  if (flows.empty()) return result;

  // Precompute the link path of each flow.
  std::vector<dc::PathLinks> paths(flows.size());
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const Flow& flow = flows[f];
    if (flow.demand_mbps <= 0.0) {
      throw std::invalid_argument("max_min_fair_rates: non-positive demand");
    }
    paths[f] = datacenter.path_between(flow.src, flow.dst);
  }

  std::vector<double> residual = capacity;
  std::vector<int> unfrozen_on_link(capacity.size(), 0);
  std::vector<bool> frozen(flows.size(), false);
  std::size_t unfrozen_count = flows.size();
  for (std::size_t f = 0; f < flows.size(); ++f) {
    for (const auto link : paths[f]) ++unfrozen_on_link[link];
  }

  constexpr double kEps = 1e-9;
  const auto freeze = [&](std::size_t f, double rate) {
    frozen[f] = true;
    --unfrozen_count;
    result.rate_mbps[f] = rate;
    for (const auto link : paths[f]) {
      residual[link] = std::max(0.0, residual[link] - (rate - 0.0));
      --unfrozen_on_link[link];
    }
  };

  // Rates of unfrozen flows grow uniformly from `level`; each round advances
  // `level` to the next event: a link saturating or a demand being reached.
  double level = 0.0;
  while (unfrozen_count > 0) {
    ++result.rounds;
    // Next link saturation: level + residual_for_growth / flows_on_link,
    // where residual_for_growth discounts growth already granted below
    // `level` — since every unfrozen flow on the link grows from `level`,
    // the increment each can still take is (residual - n*level_delta)…
    // Simpler bookkeeping: recompute shares from scratch each round using
    // absolute rates: unfrozen flows currently all sit exactly at `level`.
    double next_event = std::numeric_limits<double>::infinity();
    for (std::size_t l = 0; l < capacity.size(); ++l) {
      if (unfrozen_on_link[l] == 0) continue;
      // residual[l] still contains the unfrozen flows' current usage
      // (level each) because freeze() only subtracts frozen rates.
      const double headroom =
          residual[l] - level * static_cast<double>(unfrozen_on_link[l]);
      const double cap_level =
          level + std::max(0.0, headroom) /
                      static_cast<double>(unfrozen_on_link[l]);
      next_event = std::min(next_event, cap_level);
    }
    // A flow between co-located hosts has an empty path: only its demand
    // limits it.
    double min_demand = std::numeric_limits<double>::infinity();
    for (std::size_t f = 0; f < flows.size(); ++f) {
      if (!frozen[f]) min_demand = std::min(min_demand, flows[f].demand_mbps);
    }
    next_event = std::min(next_event, min_demand);

    level = next_event;

    // Freeze all flows capped by demand at this level.
    bool froze_any = false;
    for (std::size_t f = 0; f < flows.size(); ++f) {
      if (!frozen[f] && flows[f].demand_mbps <= level + kEps) {
        freeze(f, flows[f].demand_mbps);
        froze_any = true;
      }
    }
    // Freeze all flows crossing a saturated link at `level`.
    for (std::size_t l = 0; l < capacity.size(); ++l) {
      if (unfrozen_on_link[l] == 0) continue;
      const double headroom =
          residual[l] - level * static_cast<double>(unfrozen_on_link[l]);
      if (headroom <= kEps * std::max(1.0, capacity[l])) {
        // Saturated: freeze every unfrozen flow on it.
        for (std::size_t f = 0; f < flows.size(); ++f) {
          if (frozen[f]) continue;
          const auto& path = paths[f];
          if (std::find(path.begin(), path.end(), static_cast<dc::LinkId>(l)) !=
              path.end()) {
            freeze(f, level);
            froze_any = true;
          }
        }
      }
    }
    if (!froze_any) {
      // Defensive: numerical stall should be impossible, but never loop.
      for (std::size_t f = 0; f < flows.size(); ++f) {
        if (!frozen[f]) freeze(f, level);
      }
    }
  }

  for (double rate : result.rate_mbps) result.total_mbps += rate;
  return result;
}

}  // namespace

FairShareResult max_min_fair_rates(const dc::DataCenter& datacenter,
                                   const std::vector<Flow>& flows) {
  std::vector<double> capacity(datacenter.link_count());
  for (std::size_t l = 0; l < capacity.size(); ++l) {
    capacity[l] = datacenter.link_capacity(static_cast<dc::LinkId>(l));
  }
  return solve(datacenter, capacity, flows);
}

FairShareResult max_min_fair_rates(const dc::Occupancy& occupancy,
                                   const std::vector<Flow>& flows) {
  const dc::DataCenter& datacenter = occupancy.datacenter();
  std::vector<double> capacity(datacenter.link_count());
  for (std::size_t l = 0; l < capacity.size(); ++l) {
    capacity[l] =
        std::max(0.0, occupancy.link_available_mbps(static_cast<dc::LinkId>(l)));
  }
  return solve(datacenter, capacity, flows);
}

}  // namespace ostro::net
