// Streaming admission front end — the sustained-traffic shape of the
// placement service.
//
// PlacementService answers one-shot concurrent requests; a production
// control plane faces a *stream*: requests arrive continuously, carry
// priorities and admission deadlines, and the binding question is not "can
// this plan commit" but "how long does a request wait before the engine
// even looks at it".  Two pieces turn the service into that front end:
//
//  * AdmissionQueue — a bounded multi-class priority queue.  push() fails
//    immediately when the queue is full (admission control: overload is
//    answered with a fast reject, never with unbounded queueing delay) or
//    after close().  pop_batch() drains strictly by priority class (high
//    before normal before low), FIFO within a class.
//
//  * StreamingService — dispatcher threads that drain the queue in
//    batches: pop up to SearchConfig::stream_max_batch requests, drop
//    members whose admission deadline expired while queued, take ONE
//    occupancy snapshot, plan every member against it with no lock held,
//    then validate-and-commit the whole batch under a single writer-lock
//    acquisition (PlacementService::try_commit_batch).  Members whose
//    validation fails — because a batch predecessor or a concurrent
//    request consumed their resources — are *spilled* back into the
//    per-request conflict-replan ladder (PlacementService::place_with),
//    so batching is a throughput optimization that can delay but never
//    wrong a request.
//
// Every request resolves exactly once through its std::future, including
// on shutdown (close() stops admissions, queued work still drains) and on
// planning or commit exceptions (delivered through the future, never
// allowed to escape a dispatcher thread).  When a member's commit step
// throws, batch members already committed still resolve as committed.
//
// Telemetry under "stream.": submitted / rejected_queue_full /
// deadline_misses / batches / spills / committed / failed counters,
// queue_depth / batch_size / admission_wait_seconds summaries.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/service.h"

namespace ostro::core {

/// Admission priority classes; higher drains first, FIFO within a class.
enum class StreamPriority : std::uint8_t { kLow = 0, kNormal = 1, kHigh = 2 };
inline constexpr std::size_t kStreamPriorityCount = 3;

[[nodiscard]] const char* to_string(StreamPriority priority) noexcept;
/// Parses "low" / "normal" / "high" (case-insensitive); throws
/// std::invalid_argument otherwise.
[[nodiscard]] StreamPriority parse_stream_priority(const std::string& name);

/// One queued placement request.
struct StreamRequest {
  topo::AppTopology topology;
  Algorithm algorithm = Algorithm::kEg;
  StreamPriority priority = StreamPriority::kNormal;
  /// Admission deadline: the longest this request may wait *queued*, in
  /// seconds (<= 0 = none).  A request whose deadline passes before a
  /// dispatcher picks it up completes as kExpired without ever planning —
  /// a late placement answer is treated as worthless, per-request.
  double deadline_seconds = 0.0;
  /// Optional commit step run under the writer lock after validation (the
  /// Heat wrapper's annotate+deploy; see PlacementService::Committer).
  /// Empty = the default scheduler commit.
  PlacementService::Committer committer;
};

/// Terminal state of a streamed request.
enum class StreamStatus : std::uint8_t {
  kCommitted,  ///< planned and committed
  kFailed,     ///< planned, not committed (infeasible, overcommitted,
               ///< committer refusal, or conflict ladder exhausted)
  kExpired,    ///< admission deadline passed while queued; never planned
  kRejected,   ///< refused at submit: queue full, or service closed
};

[[nodiscard]] const char* to_string(StreamStatus status) noexcept;

/// What the stream did with one request.
struct StreamResult {
  StreamStatus status = StreamStatus::kRejected;
  /// Placement details; meaningful for kCommitted/kFailed (for kExpired and
  /// kRejected only `placement.failure_reason` is set).
  ServiceResult service;
  /// Admission wait: submit() to dispatcher pickup, seconds.
  double wait_seconds = 0.0;
  /// Members planned together in this request's batch (itself included);
  /// 0 when the request never reached the planning phase.
  std::uint32_t batch_size = 0;
  /// 1 when the batch commit conflicted and the request was spilled into
  /// the per-request conflict-replan ladder.
  std::uint32_t spills = 0;
};

/// Bounded multi-class FIFO with blocking batched pops.  Thread-safe.
class AdmissionQueue {
 public:
  using Clock = std::chrono::steady_clock;

  struct Entry {
    StreamRequest request;
    std::promise<StreamResult> promise;
    Clock::time_point enqueued{};
    /// Absolute expiry; Clock::time_point::max() when no deadline.
    Clock::time_point deadline = Clock::time_point::max();
  };

  explicit AdmissionQueue(std::size_t capacity);

  /// Moves `entry` in and returns true; returns false (entry untouched)
  /// when the queue is full or closed.
  [[nodiscard]] bool push(Entry& entry);

  /// Pops up to `max_batch` entries in priority order.  With `wait`,
  /// blocks until at least one entry is available or the queue is closed
  /// *and* drained (then returns empty — the consumer-exit signal).
  /// Without `wait`, returns empty immediately when nothing is queued.
  [[nodiscard]] std::vector<Entry> pop_batch(std::size_t max_batch,
                                             bool wait = true);

  /// Stops admissions and wakes every blocked consumer.  Queued entries
  /// remain poppable: close-then-drain is the shutdown protocol.
  void close();

  [[nodiscard]] std::size_t depth() const;
  [[nodiscard]] bool closed() const;

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::array<std::deque<Entry>, kStreamPriorityCount> classes_;
  std::size_t size_ = 0;
  std::size_t capacity_;
  bool closed_ = false;
};

/// The streaming front end.  One instance per PlacementService; the
/// stream_* knobs of the SearchConfig given at construction size the queue
/// and the dispatcher pool, and the same config is the search
/// configuration every request is planned with.
class StreamingService {
 public:
  /// `service` must outlive the streaming service.  With
  /// `start_dispatchers` (the default) a pool of
  /// config.stream_dispatch_threads dispatcher threads drains the queue;
  /// with false, nothing runs until dispatch_once() is called — the
  /// deterministic mode the interleaving tests (and any caller that wants
  /// to pump the queue itself) use.  `config.validate()` is enforced.
  StreamingService(PlacementService& service, SearchConfig config,
                   bool start_dispatchers = true);
  ~StreamingService();  ///< shutdown()

  StreamingService(const StreamingService&) = delete;
  StreamingService& operator=(const StreamingService&) = delete;

  /// Enqueues a request.  The future resolves exactly once: with the
  /// placement outcome, kExpired, or — immediately, when the queue is full
  /// or the service closed — kRejected.
  [[nodiscard]] std::future<StreamResult> submit(StreamRequest request);

  /// Stops admissions; already-queued requests still drain.
  void close();
  /// close(), then joins the dispatchers; in manual mode (no dispatcher
  /// threads) drains the queue inline first.  Idempotent.
  void shutdown();

  /// Manual pump: form and process one batch.  Returns the number of
  /// requests completed (0 = queue empty).  Only meaningful in manual
  /// mode; racing it against a running dispatcher pool is safe but makes
  /// batch composition nondeterministic.
  std::size_t dispatch_once();

  [[nodiscard]] std::size_t queue_depth() const { return queue_.depth(); }
  [[nodiscard]] const SearchConfig& config() const noexcept { return config_; }

 private:
  void dispatcher_loop();
  std::size_t process_batch(std::vector<AdmissionQueue::Entry> batch);

  PlacementService* service_;
  SearchConfig config_;
  AdmissionQueue queue_;
  std::vector<std::thread> dispatchers_;
  std::mutex shutdown_mutex_;
  bool shut_down_ = false;
};

}  // namespace ostro::core
