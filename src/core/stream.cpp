#include "core/stream.h"

#include <exception>
#include <stdexcept>
#include <utility>

#include "util/metrics.h"
#include "util/string_util.h"

namespace ostro::core {

namespace {

[[nodiscard]] double seconds_between(AdmissionQueue::Clock::time_point from,
                                     AdmissionQueue::Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

const char* to_string(StreamPriority priority) noexcept {
  switch (priority) {
    case StreamPriority::kLow: return "low";
    case StreamPriority::kNormal: return "normal";
    case StreamPriority::kHigh: return "high";
  }
  return "?";
}

StreamPriority parse_stream_priority(const std::string& name) {
  const std::string lower = util::to_lower(name);
  if (lower == "low") return StreamPriority::kLow;
  if (lower == "normal") return StreamPriority::kNormal;
  if (lower == "high") return StreamPriority::kHigh;
  throw std::invalid_argument("unknown stream priority: " + name);
}

const char* to_string(StreamStatus status) noexcept {
  switch (status) {
    case StreamStatus::kCommitted: return "committed";
    case StreamStatus::kFailed: return "failed";
    case StreamStatus::kExpired: return "expired";
    case StreamStatus::kRejected: return "rejected";
  }
  return "?";
}

AdmissionQueue::AdmissionQueue(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0) {
    throw std::invalid_argument("AdmissionQueue: capacity must be >= 1");
  }
}

bool AdmissionQueue::push(Entry& entry) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (closed_ || size_ >= capacity_) return false;
    classes_[static_cast<std::size_t>(entry.request.priority)].push_back(
        std::move(entry));
    ++size_;
  }
  cv_.notify_one();
  return true;
}

std::optional<AdmissionQueue::Entry> AdmissionQueue::pop(bool wait) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (wait) {
    cv_.wait(lock, [this] { return size_ > 0 || closed_; });
  }
  // Highest class first, FIFO within a class: a high-priority request
  // overtakes every queued normal/low one no matter when it arrived.
  for (std::size_t c = kStreamPriorityCount; c-- > 0;) {
    std::deque<Entry>& queue = classes_[c];
    if (queue.empty()) continue;
    std::optional<Entry> entry(std::move(queue.front()));
    queue.pop_front();
    --size_;
    return entry;
  }
  return std::nullopt;
}

void AdmissionQueue::close() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

std::size_t AdmissionQueue::depth() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return size_;
}

bool AdmissionQueue::closed() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

StreamingService::StreamingService(PlacementService& service,
                                   SearchConfig config, bool start_dispatcher)
    : service_(&service),
      config_(std::move(config)),
      queue_(config_.stream_queue_capacity) {
  config_.validate();
  if (start_dispatcher) {
    dispatcher_ = std::thread([this] { dispatcher_loop(); });
  }
}

StreamingService::~StreamingService() { shutdown(); }

std::future<StreamResult> StreamingService::submit(StreamRequest request) {
  static util::metrics::Counter& m_submitted =
      util::metrics::counter("stream.submitted");
  static util::metrics::Counter& m_rejected =
      util::metrics::counter("stream.rejected_queue_full");
  static util::metrics::Summary& m_depth =
      util::metrics::summary("stream.queue_depth");
  m_submitted.inc();

  AdmissionQueue::Entry entry;
  entry.enqueued = AdmissionQueue::Clock::now();
  if (request.deadline_seconds > 0.0) {
    // A deadline the clock cannot represent from now means "none", like
    // <= 0: casting it to the clock's integer ticks would overflow.
    using Duration = AdmissionQueue::Clock::duration;
    const Duration headroom =
        AdmissionQueue::Clock::time_point::max() - entry.enqueued;
    const std::chrono::duration<double> wanted(request.deadline_seconds);
    if (wanted < headroom) {
      const auto ticks = std::chrono::duration_cast<Duration>(wanted);
      if (ticks < headroom) entry.deadline = entry.enqueued + ticks;
    }
  }
  entry.request = std::move(request);
  std::future<StreamResult> future = entry.promise.get_future();
  if (!queue_.push(entry)) {
    m_rejected.inc();
    StreamResult rejected;
    rejected.status = StreamStatus::kRejected;
    rejected.service.placement.failure_reason =
        queue_.closed() ? "streaming service closed"
                        : "admission queue full";
    entry.promise.set_value(std::move(rejected));
    return future;
  }
  m_depth.observe(static_cast<double>(queue_.depth()));
  return future;
}

void StreamingService::close() { queue_.close(); }

void StreamingService::shutdown() {
  const std::lock_guard<std::mutex> lock(shutdown_mutex_);
  if (shut_down_) return;
  shut_down_ = true;
  queue_.close();
  if (dispatcher_.joinable()) {
    dispatcher_.join();
  } else {
    // Manual mode: drain inline so every queued promise resolves.
    while (dispatch_once() > 0) {
    }
  }
}

std::size_t StreamingService::dispatch_once() {
  std::optional<AdmissionQueue::Entry> entry = queue_.pop(/*wait=*/false);
  if (!entry.has_value()) return 0;
  process(std::move(*entry));
  return 1;
}

void StreamingService::dispatcher_loop() {
  // pop() returns nullopt only once the queue is closed and drained.
  while (std::optional<AdmissionQueue::Entry> entry = queue_.pop()) {
    process(std::move(*entry));
  }
}

void StreamingService::process(AdmissionQueue::Entry entry) {
  static util::metrics::Counter& m_misses =
      util::metrics::counter("stream.deadline_misses");
  static util::metrics::Counter& m_committed =
      util::metrics::counter("stream.committed");
  static util::metrics::Counter& m_failed =
      util::metrics::counter("stream.failed");
  static util::metrics::Counter& m_errors =
      util::metrics::counter("stream.dispatch_errors");
  static util::metrics::Summary& m_wait =
      util::metrics::summary("stream.admission_wait_seconds");

  const auto now = AdmissionQueue::Clock::now();
  StreamResult result;
  result.wait_seconds = seconds_between(entry.enqueued, now);
  m_wait.observe(result.wait_seconds);
  // A request whose admission deadline passed while queued completes
  // without planning: a stale placement answer is worthless.
  if (now >= entry.deadline) {
    m_misses.inc();
    result.status = StreamStatus::kExpired;
    result.service.placement.failure_reason =
        "admission deadline expired while queued";
    entry.promise.set_value(std::move(result));
    return;
  }
  const StreamRequest& request = entry.request;
  try {
    result.service = service_->place_with(request.topology, request.algorithm,
                                          config_, request.committer);
  } catch (...) {
    // Planning or commit-step throws, std or not, resolve the promise
    // exactly once; the dispatcher thread stays alive.
    m_errors.inc();
    entry.promise.set_exception(std::current_exception());
    return;
  }
  if (result.service.placement.committed) {
    result.status = StreamStatus::kCommitted;
    m_committed.inc();
  } else {
    result.status = StreamStatus::kFailed;
    m_failed.inc();
  }
  entry.promise.set_value(std::move(result));
}

}  // namespace ostro::core
