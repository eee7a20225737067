// Integration tests across module boundaries: the full Figure-1 pipeline on
// the paper's testbed, Ostro vs the naive Nova path, the QFS story end to
// end, and online adaptation.
#include <gtest/gtest.h>

#include <set>

#include "core/scheduler.h"
#include "core/verify.h"
#include "openstack/ostro_wrapper.h"
#include "qfs/qfs.h"
#include "sim/clusters.h"
#include "sim/workloads.h"
#include "util/string_util.h"

namespace ostro {
namespace {

/// QFS application as a QoS-enhanced Heat template (Figure 5 as JSON).
std::string qfs_template() {
  std::string resources;
  const auto add = [&](const std::string& entry) {
    if (!resources.empty()) resources += ",\n";
    resources += entry;
  };
  add(R"("meta": {"type": "OS::Nova::Server", "properties": {"flavor": "m1.small"}})");
  add(R"("client": {"type": "OS::Nova::Server", "properties": {"flavor": "m1.large"}})");
  std::string members;
  for (int i = 0; i < 12; ++i) {
    add(util::format(R"("chunk%d": {"type": "OS::Nova::Server",
        "properties": {"flavor": "m1.small"}})", i));
    add(util::format(R"("chunk%d-vol": {"type": "OS::Cinder::Volume",
        "properties": {"size_gb": 120}})", i));
    add(util::format(R"("pipe-cv%d": {"type": "ATT::QoS::Pipe",
        "properties": {"from": "chunk%d", "to": "chunk%d-vol",
                       "bandwidth_mbps": 100}})", i, i, i));
    add(util::format(R"("pipe-cc%d": {"type": "ATT::QoS::Pipe",
        "properties": {"from": "client", "to": "chunk%d",
                       "bandwidth_mbps": 100}})", i, i));
    if (!members.empty()) members += ", ";
    members += util::format(R"("chunk%d-vol")", i);
  }
  add(R"("pipe-cm": {"type": "ATT::QoS::Pipe",
      "properties": {"from": "client", "to": "meta", "bandwidth_mbps": 10}})");
  add(util::format(R"("dz-vols": {"type": "ATT::Valet::DiversityZone",
      "properties": {"level": "host", "members": [%s]}})", members.c_str()));
  return "{\n\"description\": \"QFS\",\n\"resources\": {\n" + resources +
         "\n}\n}";
}

TEST(EndToEndTest, Figure1PipelineOnTestbed) {
  const auto datacenter = sim::make_testbed();
  core::OstroScheduler scheduler(datacenter);
  util::Rng rng(42);
  sim::apply_testbed_preload(scheduler.occupancy(), rng);

  os::HeatEngine engine(scheduler.occupancy());
  os::OstroHeatWrapper wrapper(scheduler, engine);
  const os::WrapperResult result =
      wrapper.process_text(qfs_template(), core::Algorithm::kEg);
  ASSERT_TRUE(result.placement.feasible) << result.placement.failure_reason;
  ASSERT_TRUE(result.deployment.success) << result.deployment.failure;

  // The 12 chunk volumes ended up on 12 distinct hosts.
  const os::HeatTemplate parsed =
      os::HeatTemplate::parse(result.annotated_template);
  std::set<dc::HostId> volume_hosts;
  for (const auto& node : parsed.topology.nodes()) {
    if (node.kind == topo::NodeKind::kVolume &&
        node.name.find("chunk") == 0) {
      volume_hosts.insert(result.deployment.assignment[node.id]);
    }
  }
  EXPECT_EQ(volume_hosts.size(), 12u);
}

TEST(EndToEndTest, OstroBeatsNaiveNovaPathOnBandwidth) {
  const auto datacenter = sim::make_testbed();

  // Naive path: no Ostro, Nova/Cinder decide per resource.
  dc::Occupancy naive_occupancy(datacenter);
  os::HeatEngine naive_engine(naive_occupancy);
  const os::StackDeployment naive = naive_engine.deploy_text(qfs_template());

  // Ostro path.
  core::OstroScheduler scheduler(datacenter);
  os::HeatEngine engine(scheduler.occupancy());
  os::OstroHeatWrapper wrapper(scheduler, engine);
  const os::WrapperResult ostro =
      wrapper.process_text(qfs_template(), core::Algorithm::kEg);

  ASSERT_TRUE(ostro.deployment.success) << ostro.deployment.failure;
  if (naive.success) {
    EXPECT_LT(ostro.deployment.reserved_bandwidth_mbps,
              naive.reserved_bandwidth_mbps);
  }
}

TEST(EndToEndTest, QfsThroughputReflectsPlacementQuality) {
  const auto datacenter = sim::make_testbed();
  const auto app = sim::make_qfs();
  core::SearchConfig config;
  config.theta_bw = 0.99;
  config.theta_c = 0.01;

  double egc_rate = 0.0;
  double eg_rate = 0.0;
  for (const auto algorithm : {core::Algorithm::kEgC, core::Algorithm::kEg}) {
    dc::Occupancy occupancy(datacenter);
    util::Rng rng(3);
    sim::apply_testbed_preload(occupancy, rng);
    const core::Placement placement = core::place_topology(
        occupancy, app, algorithm, config);
    ASSERT_TRUE(placement.feasible) << core::to_string(algorithm);
    net::commit_placement(occupancy, app, placement.assignment);
    const qfs::QfsCluster cluster(app, placement.assignment, occupancy);
    const double rate = cluster.write_benchmark(4096.0, 2).aggregate_mbps;
    if (algorithm == core::Algorithm::kEgC) {
      egc_rate = rate;
    } else {
      eg_rate = rate;
    }
  }
  EXPECT_GT(eg_rate, 0.0);
  EXPECT_GT(egc_rate, 0.0);
  // Holistic placement should never do materially worse than bin packing.
  EXPECT_GE(eg_rate, egc_rate * 0.9);
}

TEST(EndToEndTest, OnlineAdaptationSectionIvE) {
  // Place a multi-tier app, grow it by 10% small VMs on tier 1, re-place
  // with everything old pinned: fast and valid.
  const auto datacenter = sim::make_sim_datacenter(10, 16);
  core::OstroScheduler scheduler(datacenter);
  util::Rng rng(21);
  sim::apply_sim_preload(scheduler.occupancy(), rng);

  const auto base = sim::make_multitier(50, sim::RequirementMix::kHeterogeneous,
                                        rng);
  core::SearchConfig config;
  config.deadline_seconds = 1.0;
  const core::Placement first =
      scheduler.deploy(base, core::Algorithm::kDbaStar, config);
  ASSERT_TRUE(first.feasible) << first.failure_reason;

  const auto grown = sim::grow_multitier(
      base, 50, 5, 1, sim::RequirementMix::kHeterogeneous, rng);
  core::PlacementRequest request;
  request.topology = &grown;
  request.config = config;
  request.pinned.assign(grown.node_count(), dc::kInvalidHost);
  for (topo::NodeId v = 0; v < base.node_count(); ++v) {
    request.pinned[v] = first.assignment[v];
  }
  // Note: the old application's reservations must be released before
  // re-placement, otherwise its resources double-count.
  core::OstroScheduler replan(datacenter);
  util::Rng rng2(21);
  sim::apply_sim_preload(replan.occupancy(), rng2);
  const core::Placement delta =
      replan.plan(request, core::Algorithm::kDbaStar);
  if (delta.feasible) {
    for (topo::NodeId v = 0; v < base.node_count(); ++v) {
      EXPECT_EQ(delta.assignment[v], first.assignment[v]);
    }
    EXPECT_TRUE(core::verify_placement(replan.occupancy(), grown,
                                       delta.assignment)
                    .empty());
  } else {
    // Section IV-E: a growing delta can force re-positioning of previously
    // placed nodes.  Unpin everything and require the full re-plan to work.
    core::PlacementRequest full = request;
    full.pinned.clear();
    const core::Placement replaced =
        replan.plan(full, core::Algorithm::kDbaStar);
    ASSERT_TRUE(replaced.feasible) << replaced.failure_reason;
    EXPECT_TRUE(core::verify_placement(replan.occupancy(), grown,
                                       replaced.assignment)
                    .empty());
  }
}

TEST(EndToEndTest, MeshWorkloadThroughFullStack) {
  const auto datacenter = sim::make_sim_datacenter(8, 16);
  core::OstroScheduler scheduler(datacenter);
  util::Rng rng(99);
  const auto app = sim::make_mesh(6, sim::RequirementMix::kHeterogeneous, rng);
  core::SearchConfig config;
  config.deadline_seconds = 0.5;
  const core::Placement placement =
      scheduler.deploy(app, core::Algorithm::kDbaStar, config);
  ASSERT_TRUE(placement.feasible) << placement.failure_reason;
  EXPECT_TRUE(core::verify_placement(dc::Occupancy(datacenter), app,
                                     placement.assignment)
                  .empty());
}

}  // namespace
}  // namespace ostro
