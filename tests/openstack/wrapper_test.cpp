#include "openstack/ostro_wrapper.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "helpers.h"

namespace ostro::os {
namespace {

using ostro::testing::add_host_load;
using ostro::testing::small_dc;

constexpr const char* kTemplate = R"({
  "description": "wrapper demo",
  "resources": {
    "a": {"type": "OS::Nova::Server", "properties": {"flavor": "m1.small"}},
    "b": {"type": "OS::Nova::Server", "properties": {"flavor": "m1.small"}},
    "v": {"type": "OS::Cinder::Volume", "properties": {"size_gb": 50}},
    "p0": {"type": "ATT::QoS::Pipe",
           "properties": {"from": "a", "to": "b", "bandwidth_mbps": 100}},
    "p1": {"type": "ATT::QoS::Pipe",
           "properties": {"from": "b", "to": "v", "bandwidth_mbps": 200}}
  }
})";

TEST(WrapperTest, FullPipelineCoLocates) {
  const auto datacenter = small_dc(2, 2);
  core::OstroScheduler scheduler(datacenter);
  HeatEngine engine(scheduler.occupancy());
  OstroHeatWrapper wrapper(scheduler, engine);

  const WrapperResult result =
      wrapper.process_text(kTemplate, core::Algorithm::kEg);
  ASSERT_TRUE(result.placement.feasible);
  ASSERT_TRUE(result.deployment.success) << result.deployment.failure;
  // Ostro co-locates the whole stack: zero reserved bandwidth, unlike the
  // naive per-request path (see HeatEngineTest).
  EXPECT_DOUBLE_EQ(result.deployment.reserved_bandwidth_mbps, 0.0);
  EXPECT_EQ(result.deployment.new_active_hosts, 1);
  // The annotated template carries hints for every server/volume.
  for (const char* key : {"a", "b", "v"}) {
    EXPECT_TRUE(result.annotated_template.at("resources")
                    .at(key)
                    .contains("scheduler_hints"))
        << key;
  }
}

TEST(WrapperTest, DeploymentMatchesOstroDecision) {
  const auto datacenter = small_dc(2, 2);
  core::OstroScheduler scheduler(datacenter);
  HeatEngine engine(scheduler.occupancy());
  OstroHeatWrapper wrapper(scheduler, engine);
  const WrapperResult result =
      wrapper.process_text(kTemplate, core::Algorithm::kBaStar);
  ASSERT_TRUE(result.deployment.success);
  EXPECT_EQ(result.deployment.assignment, result.placement.assignment);
}

TEST(WrapperTest, InfeasiblePlacementReported) {
  const auto datacenter = small_dc(1, 1);
  core::OstroScheduler scheduler(datacenter);
  add_host_load(scheduler.occupancy(), 0, {7.0, 15.0, 0.0});
  HeatEngine engine(scheduler.occupancy());
  OstroHeatWrapper wrapper(scheduler, engine);
  const WrapperResult result =
      wrapper.process_text(kTemplate, core::Algorithm::kEg);
  EXPECT_FALSE(result.placement.feasible);
  EXPECT_FALSE(result.deployment.success);
  EXPECT_NE(result.deployment.failure.find("Ostro"), std::string::npos);
}

TEST(WrapperTest, BadTemplateReported) {
  const auto datacenter = small_dc();
  core::OstroScheduler scheduler(datacenter);
  HeatEngine engine(scheduler.occupancy());
  OstroHeatWrapper wrapper(scheduler, engine);
  EXPECT_FALSE(
      wrapper.process_text("not json", core::Algorithm::kEg).deployment.success);
  EXPECT_FALSE(wrapper.process_text(R"({"resources": {"x": {"type": "Bad"}}})",
                                    core::Algorithm::kEg)
                   .deployment.success);
}

TEST(WrapperTest, SuccessiveStacksShareTheDataCenter) {
  const auto datacenter = small_dc(2, 2);
  core::OstroScheduler scheduler(datacenter);
  HeatEngine engine(scheduler.occupancy());
  OstroHeatWrapper wrapper(scheduler, engine);
  ASSERT_TRUE(
      wrapper.process_text(kTemplate, core::Algorithm::kEg).deployment.success);
  const WrapperResult second =
      wrapper.process_text(kTemplate, core::Algorithm::kEg);
  ASSERT_TRUE(second.deployment.success);
  // Ostro prefers the already-active host; no new activations needed.
  EXPECT_EQ(second.deployment.new_active_hosts, 0);
}

TEST(WrapperTest, ConcurrentStacksNeverFailEngineValidation) {
  // Concurrent stacks through one shared service: a competing commit
  // between Ostro's plan and the Heat deploy must surface as a clean
  // replan inside the service, never as the engine's own "placement
  // validation failed" (the deploy runs under the service's writer lock
  // after the re-validation gate).
  const auto datacenter = small_dc(2, 2);
  core::OstroScheduler scheduler(datacenter);
  core::PlacementService service(scheduler);
  HeatEngine engine(scheduler.occupancy());

  constexpr int kThreads = 4;
  std::vector<WrapperResult> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      OstroHeatWrapper wrapper(service, engine);
      results[static_cast<std::size_t>(t)] =
          wrapper.process_text(kTemplate, core::Algorithm::kEg);
    });
  }
  for (auto& thread : threads) thread.join();

  int committed = 0;
  for (const WrapperResult& result : results) {
    if (result.deployment.success) {
      EXPECT_TRUE(result.placement.committed);
      ++committed;
    } else {
      // Only service-level outcomes are acceptable failures.
      EXPECT_EQ(result.deployment.failure.find("validation"),
                std::string::npos)
          << result.deployment.failure;
    }
  }
  // The DC has room for all four small stacks.
  EXPECT_EQ(committed, kThreads);
}

TEST(WrapperStreamTest, StreamedStackDeploysLikeProcess) {
  const auto datacenter = small_dc(2, 2);
  core::OstroScheduler scheduler(datacenter);
  core::PlacementService service(scheduler);
  HeatEngine engine(scheduler.occupancy());
  OstroHeatWrapper wrapper(service, engine);

  core::SearchConfig config;
  config.threads = 1;
  core::StreamingService stream(service, config, /*start_dispatchers=*/false);

  auto streamed = wrapper.submit_streamed(
      stream, util::Json::parse(kTemplate), core::Algorithm::kEg,
      core::StreamPriority::kHigh);
  EXPECT_EQ(stream.dispatch_once(), 1u);

  const core::StreamResult result = streamed.result.get();
  ASSERT_EQ(result.status, core::StreamStatus::kCommitted);
  ASSERT_TRUE(result.service.placement.committed);
  // The commit step ran the engine deploy and filled the shared stack.
  ASSERT_TRUE(streamed.stack->deployment.success)
      << streamed.stack->deployment.failure;
  EXPECT_EQ(streamed.stack->deployment.assignment,
            result.service.placement.assignment);
  EXPECT_DOUBLE_EQ(streamed.stack->deployment.reserved_bandwidth_mbps, 0.0);
  EXPECT_EQ(streamed.stack->deployment.new_active_hosts, 1);
  for (const char* key : {"a", "b", "v"}) {
    EXPECT_TRUE(streamed.stack->annotated_template.at("resources")
                    .at(key)
                    .contains("scheduler_hints"))
        << key;
  }
}

TEST(WrapperStreamTest, BadTemplateResolvesImmediatelyAsFailed) {
  const auto datacenter = small_dc(2, 2);
  core::OstroScheduler scheduler(datacenter);
  core::PlacementService service(scheduler);
  HeatEngine engine(scheduler.occupancy());
  OstroHeatWrapper wrapper(service, engine);

  core::SearchConfig config;
  config.threads = 1;
  core::StreamingService stream(service, config, /*start_dispatchers=*/false);

  auto streamed = wrapper.submit_streamed(
      stream, util::Json::parse(R"({"resources": {"x": {"type": "Bad"}}})"),
      core::Algorithm::kEg);
  // Parse failures never enter the queue: the future is already resolved.
  ASSERT_EQ(streamed.result.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const core::StreamResult result = streamed.result.get();
  EXPECT_EQ(result.status, core::StreamStatus::kFailed);
  EXPECT_FALSE(result.service.placement.failure_reason.empty());
  EXPECT_FALSE(streamed.stack->deployment.success);
  EXPECT_EQ(streamed.stack->deployment.failure,
            result.service.placement.failure_reason);
  EXPECT_EQ(stream.queue_depth(), 0u);
}

}  // namespace
}  // namespace ostro::os
