// Section IV-E of the paper: online adaptation.  A multi-tier application
// is deployed, then grown by ~10% additional small VMs on its first or
// second tier, and the updated topology is re-placed incrementally.  Three
// strategies are compared:
//   - "pinned"     : every existing node keeps its host (the cheapest
//                    update; can be infeasible when the old placement left
//                    no uplink headroom near the grown tier);
//   - "neighbors"  : nodes with a pipe to a new VM may move, the rest stay
//                    (the paper's observation that growth "can trigger the
//                    re-positioning of previously placed nodes");
//   - "replan"     : nothing pinned; also reports how many of the old
//                    nodes moved ("it can in fact spread out to a large
//                    portion of the application nodes").
#include "common.h"

#include <unordered_set>

int main(int argc, char** argv) {
  using namespace ostro;
  util::ArgParser args("bench_online", "Section IV-E: online adaptation");
  bench::add_common_flags(args);
  args.add_int("vms", 200, "initial multi-tier size");
  args.add_int("racks", 150, "data-center racks");
  args.add_double("grow-percent", 10.0, "VMs added, % of initial size");
  args.add_double("delta-deadline", 0.5, "DBA* deadline for the re-place");
  if (!args.parse(argc, argv)) return 0;
  bench::apply_metrics_flags(args);

  const int vms = static_cast<int>(args.get_int("vms"));
  const int extra =
      std::max(1, static_cast<int>(static_cast<double>(vms) *
                                   args.get_double("grow-percent") / 100.0));
  const auto datacenter =
      sim::make_sim_datacenter(static_cast<int>(args.get_int("racks")));

  util::TablePrinter table({"Tier grown", "Strategy", "Feasible",
                            "Re-place time (sec)", "Moved old nodes"});
  for (const int tier : {0, 1}) {
    struct Agg {
      int feasible = 0, total = 0;
      util::Samples time, moved;
    };
    Agg pinned_agg, neighbors_agg, replan_agg;

    for (int run = 0; run < args.get_int("runs"); ++run) {
      util::Rng rng(static_cast<std::uint64_t>(args.get_int("seed")) +
                    static_cast<std::uint64_t>(run));
      dc::Occupancy occupancy(datacenter);
      sim::apply_sim_preload(occupancy, rng);
      const auto base =
          sim::make_multitier(vms, sim::RequirementMix::kHeterogeneous, rng);

      core::SearchConfig config;
      config.deadline_seconds = bench::dba_deadline_for(vms);
      const core::Placement first = core::place_topology(
          occupancy, base, core::Algorithm::kDbaStar, config);
      if (!first.feasible) continue;

      const auto grown = sim::grow_multitier(
          base, vms, extra, tier, sim::RequirementMix::kHeterogeneous, rng);

      // Nodes adjacent to any new VM (free to move in "neighbors" mode).
      std::unordered_set<topo::NodeId> near_growth;
      for (topo::NodeId v = static_cast<topo::NodeId>(base.node_count());
           v < grown.node_count(); ++v) {
        for (const auto& nb : grown.neighbors(v)) {
          if (nb.node < base.node_count()) near_growth.insert(nb.node);
        }
      }

      core::SearchConfig delta_config = config;
      delta_config.deadline_seconds = args.get_double("delta-deadline");

      const auto attempt = [&](Agg& agg, bool pin_all, bool pin_any) {
        net::Assignment pinned(grown.node_count(), dc::kInvalidHost);
        if (pin_any) {
          for (topo::NodeId v = 0; v < base.node_count(); ++v) {
            if (pin_all || near_growth.count(v) == 0) {
              pinned[v] = first.assignment[v];
            }
          }
        }
        const core::Placement placement = core::place_topology(
            occupancy, grown, core::Algorithm::kDbaStar, delta_config,
            pin_any ? &pinned : nullptr);
        ++agg.total;
        if (!placement.feasible) return;
        ++agg.feasible;
        agg.time.add(placement.stats.runtime_seconds);
        int moved = 0;
        for (topo::NodeId v = 0; v < base.node_count(); ++v) {
          if (placement.assignment[v] != first.assignment[v]) ++moved;
        }
        agg.moved.add(moved);
      };
      attempt(pinned_agg, true, true);
      attempt(neighbors_agg, false, true);
      attempt(replan_agg, false, false);
    }

    const auto emit_row = [&](const char* strategy, const Agg& agg) {
      table.add_row({util::format("tier %d (+%d small VMs)", tier + 1, extra),
                     strategy,
                     util::format("%d/%d", agg.feasible, agg.total),
                     bench::mean_pm(agg.time, 3),
                     bench::mean_pm(agg.moved, 1)});
    };
    emit_row("pinned", pinned_agg);
    emit_row("neighbors free", neighbors_agg);
    emit_row("full replan", replan_agg);
  }
  bench::emit(table, args,
              util::format("Section IV-E: online adaptation (%d VMs +%.0f%%)",
                           vms, args.get_double("grow-percent")));
  bench::emit_metrics(args);
  return 0;
}
