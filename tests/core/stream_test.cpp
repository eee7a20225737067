// StreamingService + AdmissionQueue: the streaming admission front end.
//
// Deterministic interleavings use manual dispatch mode (no dispatcher
// threads; dispatch_once() pumps exactly one batch) to pin queue
// drain/shutdown semantics, priority overtaking, deadline expiry while
// queued, and the batch-commit spill path.  The stress test drives
// multi-dispatcher batched commits and checks the committed set replays
// serially — in commit_epoch order — to the bit-identical occupancy, the
// same invariant service_test.cpp proves for unbatched commits.  Runs
// under TSan in CI.
#include "core/stream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/scheduler.h"
#include "core/service.h"
#include "helpers.h"
#include "net/reservation.h"
#include "topology/app_topology.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ostro::core {
namespace {

using ostro::testing::small_dc;
using ostro::testing::tiny_app;

/// One 8-core host plus one 2-core host: a 6-core VM fits only on "big",
/// so two 6-core requests contend for exactly one slot.
dc::DataCenter contended_dc() {
  dc::DataCenterBuilder builder;
  const auto site = builder.add_site("site0", 16000.0);
  const auto pod = builder.add_pod(site, "pod0", 16000.0);
  const auto rack = builder.add_rack(pod, "rack0", 4000.0);
  builder.add_host(rack, "big", {8.0, 16.0, 500.0}, 1000.0);
  builder.add_host(rack, "small", {2.0, 4.0, 100.0}, 1000.0);
  return builder.build();
}

topo::AppTopology one_vm(const std::string& name, double cores) {
  topo::TopologyBuilder builder;
  builder.add_vm(name, {cores, cores, 0.0});
  return builder.build();
}

SearchConfig stream_config(std::size_t batch = 8, std::size_t capacity = 64) {
  SearchConfig config;
  config.threads = 1;  // the streaming layer is the concurrency under test
  config.stream_max_batch = batch;
  config.stream_queue_capacity = capacity;
  return config;
}

StreamRequest request_for(topo::AppTopology topology,
                          StreamPriority priority = StreamPriority::kNormal,
                          double deadline_seconds = 0.0) {
  StreamRequest request;
  request.topology = std::move(topology);
  request.algorithm = Algorithm::kEg;
  request.priority = priority;
  request.deadline_seconds = deadline_seconds;
  return request;
}

AdmissionQueue::Entry entry_for(topo::AppTopology topology,
                                StreamPriority priority) {
  AdmissionQueue::Entry entry;
  entry.request = request_for(std::move(topology), priority);
  entry.enqueued = AdmissionQueue::Clock::now();
  return entry;
}

TEST(StreamConfigTest, ValidateRejectsZeroStreamKnobs) {
  SearchConfig config;
  config.stream_queue_capacity = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = SearchConfig{};
  config.stream_max_batch = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = SearchConfig{};
  config.stream_dispatch_threads = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  EXPECT_NO_THROW(SearchConfig{}.validate());
}

TEST(StreamPriorityTest, ParseAndPrintRoundTrip) {
  EXPECT_EQ(parse_stream_priority("high"), StreamPriority::kHigh);
  EXPECT_EQ(parse_stream_priority("NORMAL"), StreamPriority::kNormal);
  EXPECT_EQ(parse_stream_priority("Low"), StreamPriority::kLow);
  EXPECT_THROW((void)parse_stream_priority("urgent"), std::invalid_argument);
  EXPECT_STREQ(to_string(StreamPriority::kHigh), "high");
  EXPECT_STREQ(to_string(StreamStatus::kExpired), "expired");
}

TEST(AdmissionQueueTest, PriorityClassesOvertakeFifoWithinClass) {
  AdmissionQueue queue(8);
  auto low = entry_for(one_vm("l", 1.0), StreamPriority::kLow);
  auto normal_a = entry_for(one_vm("na", 1.0), StreamPriority::kNormal);
  auto normal_b = entry_for(one_vm("nb", 1.0), StreamPriority::kNormal);
  auto high = entry_for(one_vm("h", 1.0), StreamPriority::kHigh);
  ASSERT_TRUE(queue.push(low));
  ASSERT_TRUE(queue.push(normal_a));
  ASSERT_TRUE(queue.push(normal_b));
  ASSERT_TRUE(queue.push(high));
  EXPECT_EQ(queue.depth(), 4u);

  // High first, then the normals in arrival order, then low.
  auto batch = queue.pop_batch(3);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].request.priority, StreamPriority::kHigh);
  EXPECT_EQ(batch[1].request.topology.node(0).name, "na");
  EXPECT_EQ(batch[2].request.topology.node(0).name, "nb");
  batch = queue.pop_batch(3);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].request.priority, StreamPriority::kLow);
  EXPECT_EQ(queue.depth(), 0u);
}

TEST(AdmissionQueueTest, BoundedCapacityRefusesWhenFull) {
  AdmissionQueue queue(2);
  auto a = entry_for(one_vm("a", 1.0), StreamPriority::kNormal);
  auto b = entry_for(one_vm("b", 1.0), StreamPriority::kNormal);
  auto c = entry_for(one_vm("c", 1.0), StreamPriority::kNormal);
  EXPECT_TRUE(queue.push(a));
  EXPECT_TRUE(queue.push(b));
  EXPECT_FALSE(queue.push(c));  // full; entry c untouched
  (void)queue.pop_batch(1);
  EXPECT_TRUE(queue.push(c));  // a pop frees a slot
}

TEST(AdmissionQueueTest, CloseStopsAdmissionsButDrains) {
  AdmissionQueue queue(4);
  auto a = entry_for(one_vm("a", 1.0), StreamPriority::kNormal);
  ASSERT_TRUE(queue.push(a));
  queue.close();
  auto late = entry_for(one_vm("late", 1.0), StreamPriority::kHigh);
  EXPECT_FALSE(queue.push(late));
  // Queued work remains poppable after close; the following empty pop is
  // the consumer-exit signal (and must not block).
  EXPECT_EQ(queue.pop_batch(4).size(), 1u);
  EXPECT_TRUE(queue.pop_batch(4).empty());
}

TEST(StreamTest, SubmitCommitsLikeDeploy) {
  const auto datacenter = small_dc(2, 2);
  const SearchConfig config = stream_config();
  OstroScheduler scheduler(datacenter, config);
  PlacementService service(scheduler);
  StreamingService stream(service, config, /*start_dispatchers=*/false);

  OstroScheduler reference(datacenter, config);
  const Placement expected = reference.deploy(tiny_app(), Algorithm::kEg);
  ASSERT_TRUE(expected.committed);

  auto future = stream.submit(request_for(tiny_app()));
  EXPECT_EQ(stream.queue_depth(), 1u);
  EXPECT_EQ(stream.dispatch_once(), 1u);
  const StreamResult result = future.get();
  EXPECT_EQ(result.status, StreamStatus::kCommitted);
  EXPECT_TRUE(result.service.placement.committed);
  EXPECT_EQ(result.service.placement.assignment, expected.assignment);
  EXPECT_EQ(result.batch_size, 1u);
  EXPECT_EQ(result.spills, 0u);
  EXPECT_GT(result.service.commit_epoch, 0u);
  EXPECT_TRUE(scheduler.occupancy() == reference.occupancy());
}

// Regression for the dispatcher's catch (...) blocks: a committer throwing
// a NON-std type must resolve the member's promise exactly once with that
// exception, leave the occupancy untouched, keep the dispatcher alive, and
// count one stream.dispatch_errors.
TEST(StreamTest, NonStdCommitterThrowResolvesPromiseOnceAndCounts) {
  struct Boom {};  // deliberately not derived from std::exception
  util::metrics::set_enabled(true);
  util::metrics::Counter& errors =
      util::metrics::counter("stream.dispatch_errors");
  errors.reset();

  const auto datacenter = small_dc(2, 2);
  const SearchConfig config = stream_config();
  OstroScheduler scheduler(datacenter, config);
  PlacementService service(scheduler);
  StreamingService stream(service, config, /*start_dispatchers=*/false);

  StreamRequest request = request_for(tiny_app());
  request.committer = [](const Placement&, std::string&) -> bool {
    throw Boom{};
  };
  auto future = stream.submit(std::move(request));
  EXPECT_EQ(stream.dispatch_once(), 1u);
  EXPECT_THROW(future.get(), Boom);
  EXPECT_EQ(errors.value(), 1u);
  // The throw happened before any commit: nothing leaked into the state,
  // and the dispatcher is healthy enough to serve the next request.
  EXPECT_TRUE(scheduler.occupancy() == dc::Occupancy(datacenter));
  auto next = stream.submit(request_for(tiny_app()));
  EXPECT_EQ(stream.dispatch_once(), 1u);
  EXPECT_EQ(next.get().status, StreamStatus::kCommitted);
  EXPECT_EQ(errors.value(), 1u);  // healthy dispatches add nothing
}

// A member whose commit step throws must not poison batch members already
// committed: their resources are applied, so their futures report the
// commit, and only the rest see the exception.
TEST(StreamTest, CommitterThrowKeepsEarlierBatchMembersCommitted) {
  const auto datacenter = small_dc(2, 2);
  const SearchConfig config = stream_config(/*batch=*/2);
  OstroScheduler scheduler(datacenter, config);
  PlacementService service(scheduler);
  StreamingService stream(service, config, /*start_dispatchers=*/false);

  auto first = stream.submit(request_for(tiny_app()));
  StreamRequest crashing = request_for(one_vm("x", 1.0));
  crashing.committer = [](const Placement&, std::string&) -> bool {
    throw std::runtime_error("engine crashed");
  };
  auto second = stream.submit(std::move(crashing));
  EXPECT_EQ(stream.dispatch_once(), 2u);

  ASSERT_GT(scheduler.occupancy().version(), 0u);  // member 1 applied
  const StreamResult result = first.get();
  EXPECT_EQ(result.status, StreamStatus::kCommitted);
  EXPECT_TRUE(result.service.placement.committed);
  EXPECT_EQ(result.service.commit_epoch, scheduler.occupancy().version());
  EXPECT_THROW(second.get(), std::runtime_error);
}

TEST(StreamTest, FullQueueRejectsImmediately) {
  const auto datacenter = small_dc(1, 2);
  const SearchConfig config = stream_config(/*batch=*/8, /*capacity=*/1);
  OstroScheduler scheduler(datacenter, config);
  PlacementService service(scheduler);
  StreamingService stream(service, config, /*start_dispatchers=*/false);

  auto queued = stream.submit(request_for(tiny_app()));
  auto overflow = stream.submit(request_for(tiny_app()));
  // The overflow future is ready without any dispatching.
  ASSERT_EQ(overflow.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const StreamResult rejected = overflow.get();
  EXPECT_EQ(rejected.status, StreamStatus::kRejected);
  EXPECT_NE(rejected.service.placement.failure_reason.find("queue full"),
            std::string::npos);
  stream.shutdown();  // drains the queued request
  EXPECT_EQ(queued.get().status, StreamStatus::kCommitted);
}

TEST(StreamTest, SubmitAfterCloseRejects) {
  const auto datacenter = small_dc(1, 2);
  const SearchConfig config = stream_config();
  OstroScheduler scheduler(datacenter, config);
  PlacementService service(scheduler);
  StreamingService stream(service, config, /*start_dispatchers=*/false);
  stream.close();
  const StreamResult result = stream.submit(request_for(tiny_app())).get();
  EXPECT_EQ(result.status, StreamStatus::kRejected);
  EXPECT_NE(result.service.placement.failure_reason.find("closed"),
            std::string::npos);
}

TEST(StreamTest, DeadlineExpiryWhileQueued) {
  const auto datacenter = small_dc(1, 2);
  const SearchConfig config = stream_config();
  OstroScheduler scheduler(datacenter, config);
  PlacementService service(scheduler);
  StreamingService stream(service, config, /*start_dispatchers=*/false);

  // 1 ms admission deadline; nothing dispatches for 20 ms, so the request
  // is picked up strictly after expiry and must complete kExpired without
  // planning or committing anything.
  auto future = stream.submit(request_for(tiny_app(), StreamPriority::kNormal,
                                          /*deadline_seconds=*/0.001));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(stream.dispatch_once(), 1u);
  const StreamResult result = future.get();
  EXPECT_EQ(result.status, StreamStatus::kExpired);
  EXPECT_GE(result.wait_seconds, 0.001);
  EXPECT_FALSE(result.service.placement.feasible);
  EXPECT_TRUE(scheduler.occupancy() == dc::Occupancy(datacenter));
}

TEST(StreamTest, NoDeadlineNeverExpires) {
  const auto datacenter = small_dc(1, 2);
  const SearchConfig config = stream_config();
  OstroScheduler scheduler(datacenter, config);
  PlacementService service(scheduler);
  StreamingService stream(service, config, /*start_dispatchers=*/false);
  auto future = stream.submit(request_for(tiny_app()));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(stream.dispatch_once(), 1u);
  EXPECT_EQ(future.get().status, StreamStatus::kCommitted);
}

TEST(StreamTest, UnrepresentableDeadlineMeansNone) {
  // steady_clock counts int64 nanoseconds, so a deadline past ~9.2e9 s
  // from now cannot be represented; it must mean "no deadline" instead of
  // overflowing into one that has already passed.
  const auto datacenter = small_dc(1, 1);
  const SearchConfig config = stream_config();
  OstroScheduler scheduler(datacenter, config);
  PlacementService service(scheduler);
  StreamingService stream(service, config, /*start_dispatchers=*/false);
  for (const double deadline :
       {1e10, std::numeric_limits<double>::infinity()}) {
    auto future = stream.submit(
        request_for(one_vm("vm", 1.0), StreamPriority::kNormal, deadline));
    EXPECT_EQ(stream.dispatch_once(), 1u);
    EXPECT_EQ(future.get().status, StreamStatus::kCommitted) << deadline;
  }
}

TEST(StreamTest, HigherPriorityOvertakesQueuedWork) {
  const auto datacenter = small_dc(2, 2);
  // batch = 1: each dispatch_once picks exactly the front of the queue.
  const SearchConfig config = stream_config(/*batch=*/1);
  OstroScheduler scheduler(datacenter, config);
  PlacementService service(scheduler);
  StreamingService stream(service, config, /*start_dispatchers=*/false);

  auto low = stream.submit(
      request_for(one_vm("low", 1.0), StreamPriority::kLow));
  auto high = stream.submit(
      request_for(one_vm("high", 1.0), StreamPriority::kHigh));

  EXPECT_EQ(stream.dispatch_once(), 1u);
  ASSERT_EQ(high.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(low.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
  EXPECT_EQ(stream.dispatch_once(), 1u);

  const StreamResult high_result = high.get();
  const StreamResult low_result = low.get();
  EXPECT_EQ(high_result.status, StreamStatus::kCommitted);
  EXPECT_EQ(low_result.status, StreamStatus::kCommitted);
  // The overtake is visible in the total commit order.
  EXPECT_LT(high_result.service.commit_epoch,
            low_result.service.commit_epoch);
}

TEST(StreamTest, BatchConflictSpillsIntoLadderAndReplans) {
  // Two 8-core hosts; two 6-core requests in ONE batch.  Both plan onto
  // the same (cheapest) host against the shared empty snapshot; the batch
  // gate commits the first and re-verifies the second against the mutated
  // occupancy — an intra-batch conflict that spills into the replan
  // ladder, which lands it on the remaining host.
  const auto datacenter = small_dc(1, 2);
  const SearchConfig config = stream_config(/*batch=*/2);
  OstroScheduler scheduler(datacenter, config);
  PlacementService service(scheduler);
  StreamingService stream(service, config, /*start_dispatchers=*/false);

  auto a = stream.submit(request_for(one_vm("a", 6.0)));
  auto b = stream.submit(request_for(one_vm("b", 6.0)));
  EXPECT_EQ(stream.dispatch_once(), 2u);

  const StreamResult first = a.get();
  const StreamResult second = b.get();
  EXPECT_EQ(first.status, StreamStatus::kCommitted);
  EXPECT_EQ(second.status, StreamStatus::kCommitted);
  EXPECT_EQ(first.batch_size, 2u);
  EXPECT_EQ(second.batch_size, 2u);
  EXPECT_EQ(first.spills, 0u);
  EXPECT_EQ(second.spills, 1u);
  EXPECT_GE(second.service.conflicts, 1u);
  // Both 6-core VMs are placed, necessarily on distinct hosts.
  EXPECT_EQ(scheduler.occupancy().active_host_count(), 2u);
}

TEST(StreamTest, SpilledMemberCanEndInfeasible) {
  // Only "big" fits 6 cores: the spilled member's replan finds nothing.
  const auto datacenter = contended_dc();
  const SearchConfig config = stream_config(/*batch=*/2);
  OstroScheduler scheduler(datacenter, config);
  PlacementService service(scheduler);
  StreamingService stream(service, config, /*start_dispatchers=*/false);

  auto a = stream.submit(request_for(one_vm("a", 6.0)));
  auto b = stream.submit(request_for(one_vm("b", 6.0)));
  EXPECT_EQ(stream.dispatch_once(), 2u);

  const StreamResult first = a.get();
  const StreamResult second = b.get();
  EXPECT_EQ(first.status, StreamStatus::kCommitted);
  EXPECT_EQ(second.status, StreamStatus::kFailed);
  EXPECT_EQ(second.spills, 1u);
  EXPECT_FALSE(second.service.placement.committed);
  EXPECT_EQ(scheduler.occupancy().active_host_count(), 1u);
}

TEST(StreamTest, ShutdownDrainsQueuedRequests) {
  const auto datacenter = small_dc(2, 2);
  const SearchConfig config = stream_config(/*batch=*/2);
  OstroScheduler scheduler(datacenter, config);
  PlacementService service(scheduler);

  std::vector<std::future<StreamResult>> futures;
  {
    StreamingService stream(service, config, /*start_dispatchers=*/false);
    for (int i = 0; i < 5; ++i) {
      futures.push_back(stream.submit(request_for(one_vm("v", 1.0))));
    }
    EXPECT_EQ(stream.queue_depth(), 5u);
    // Destruction shuts down: close + inline drain in manual mode.
  }
  for (auto& future : futures) {
    EXPECT_EQ(future.get().status, StreamStatus::kCommitted);
  }
}

TEST(StreamTest, DispatcherThreadsDrainAutonomously) {
  const auto datacenter = small_dc(2, 2);
  SearchConfig config = stream_config(/*batch=*/4);
  config.stream_dispatch_threads = 2;
  OstroScheduler scheduler(datacenter, config);
  PlacementService service(scheduler);
  StreamingService stream(service, config);  // real dispatcher pool

  std::vector<std::future<StreamResult>> futures;
  for (int i = 0; i < 12; ++i) {
    futures.push_back(stream.submit(request_for(one_vm("v", 1.0))));
  }
  stream.close();
  stream.shutdown();
  int committed = 0;
  for (auto& future : futures) {
    if (future.get().status == StreamStatus::kCommitted) ++committed;
  }
  EXPECT_EQ(committed, 12);
}

// The acceptance-criteria stress: multi-dispatcher snapshot-shared batching
// must preserve the serial-replay bit-identity invariant of
// service_test.cpp — replaying exactly the committed placements in
// commit_epoch order reproduces the live occupancy bit for bit.
TEST(StreamStressTest, BatchedCommitsMatchSerialReplay) {
  constexpr int kSubmitters = 4;
  constexpr int kStacksPerSubmitter = 50;
  constexpr int kTotal = kSubmitters * kStacksPerSubmitter;

  const auto datacenter = small_dc(4, 4);  // 16 hosts, 128 cores
  SearchConfig config = stream_config(/*batch=*/4, /*capacity=*/kTotal);
  config.stream_dispatch_threads = 3;
  OstroScheduler scheduler(datacenter, config);
  PlacementService service(scheduler);
  StreamingService stream(service, config);

  std::vector<topo::AppTopology> stacks;
  util::Rng rng(20260807);
  stacks.reserve(kTotal);
  for (int i = 0; i < kTotal; ++i) {
    topo::TopologyBuilder builder;
    const double cores = static_cast<double>(rng.uniform_int(1, 2));
    builder.add_vm("w", {cores, cores, 0.0});
    builder.add_vm("d", {1.0, 1.0, 0.0});
    builder.connect("w", "d", static_cast<double>(rng.uniform_int(10, 50)));
    stacks.push_back(builder.build());
  }

  std::vector<std::future<StreamResult>> futures(kTotal);
  util::run_workers(kSubmitters, [&](std::size_t t) {
    for (int j = 0; j < kStacksPerSubmitter; ++j) {
      const std::size_t i = t * kStacksPerSubmitter +
                            static_cast<std::size_t>(j);
      const auto priority =
          static_cast<StreamPriority>(i % kStreamPriorityCount);
      futures[i] = stream.submit(request_for(stacks[i], priority));
    }
  });
  stream.close();
  stream.shutdown();

  std::vector<StreamResult> results;
  results.reserve(futures.size());
  for (auto& future : futures) results.push_back(future.get());

  struct Committed {
    std::uint64_t epoch;
    std::size_t index;
  };
  std::vector<Committed> committed;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const StreamResult& result = results[i];
    if (result.status == StreamStatus::kCommitted) {
      EXPECT_TRUE(result.service.placement.committed);
      EXPECT_GT(result.service.commit_epoch, 0u);
      EXPECT_GE(result.batch_size, 1u);
      committed.push_back({result.service.commit_epoch, i});
    } else {
      EXPECT_EQ(result.status, StreamStatus::kFailed);
      EXPECT_FALSE(result.service.placement.failure_reason.empty());
    }
  }
  ASSERT_FALSE(committed.empty());

  // commit_epoch totally orders the committed set across every batch.
  std::sort(committed.begin(), committed.end(),
            [](const Committed& a, const Committed& b) {
              return a.epoch < b.epoch;
            });
  for (std::size_t i = 1; i < committed.size(); ++i) {
    EXPECT_LT(committed[i - 1].epoch, committed[i].epoch);
  }

  // Serial replay in commit order reproduces the occupancy exactly.
  dc::Occupancy replay(datacenter);
  for (const Committed& c : committed) {
    net::commit_placement(replay, stacks[c.index],
                          results[c.index].service.placement.assignment);
  }
  EXPECT_TRUE(replay == scheduler.occupancy());

  // No double-booked capacity anywhere.
  for (dc::HostId h = 0;
       h < static_cast<dc::HostId>(datacenter.host_count()); ++h) {
    const topo::Resources used = scheduler.occupancy().used(h);
    const topo::Resources& cap = datacenter.host(h).capacity;
    EXPECT_LE(used.vcpus, cap.vcpus);
    EXPECT_LE(used.mem_gb, cap.mem_gb);
    EXPECT_LE(used.disk_gb, cap.disk_gb);
  }
}

// BA* variant of the stress test: multi-dispatcher batched commits where
// every plan runs the BA* search concurrently on the dispatcher threads.
// The serial replay invariant plus TSan coverage proves concurrent searches
// share no state across the streaming pipeline.
TEST(StreamStressTest, BaStarBatchedCommitsMatchSerialReplay) {
  constexpr int kSubmitters = 4;
  constexpr int kStacksPerSubmitter = 25;
  constexpr int kTotal = kSubmitters * kStacksPerSubmitter;

  const auto datacenter = small_dc(4, 4);
  SearchConfig config = stream_config(/*batch=*/4, /*capacity=*/kTotal);
  config.stream_dispatch_threads = 3;
  OstroScheduler scheduler(datacenter, config);
  PlacementService service(scheduler);
  StreamingService stream(service, config);

  std::vector<topo::AppTopology> stacks;
  util::Rng rng(20260809);
  stacks.reserve(kTotal);
  for (int i = 0; i < kTotal; ++i) {
    topo::TopologyBuilder builder;
    const double cores = static_cast<double>(rng.uniform_int(1, 2));
    builder.add_vm("w", {cores, cores, 0.0});
    builder.add_vm("d", {1.0, 1.0, 0.0});
    builder.connect("w", "d", static_cast<double>(rng.uniform_int(10, 50)));
    stacks.push_back(builder.build());
  }

  std::vector<std::future<StreamResult>> futures(kTotal);
  util::run_workers(kSubmitters, [&](std::size_t t) {
    for (int j = 0; j < kStacksPerSubmitter; ++j) {
      const std::size_t i =
          t * kStacksPerSubmitter + static_cast<std::size_t>(j);
      StreamRequest request = request_for(stacks[i]);
      request.algorithm = Algorithm::kBaStar;  // exercise the BA* search
      futures[i] = stream.submit(std::move(request));
    }
  });
  stream.close();
  stream.shutdown();

  std::vector<StreamResult> results;
  results.reserve(futures.size());
  for (auto& future : futures) results.push_back(future.get());

  struct Committed {
    std::uint64_t epoch;
    std::size_t index;
  };
  std::vector<Committed> committed;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const StreamResult& result = results[i];
    if (result.status == StreamStatus::kCommitted) {
      committed.push_back({result.service.commit_epoch, i});
    }
  }
  ASSERT_FALSE(committed.empty());
  std::sort(committed.begin(), committed.end(),
            [](const Committed& a, const Committed& b) {
              return a.epoch < b.epoch;
            });

  dc::Occupancy replay(datacenter);
  for (const Committed& c : committed) {
    net::commit_placement(replay, stacks[c.index],
                          results[c.index].service.placement.assignment);
  }
  EXPECT_TRUE(replay == scheduler.occupancy());
}

}  // namespace
}  // namespace ostro::core
