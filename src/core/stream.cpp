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

std::vector<AdmissionQueue::Entry> AdmissionQueue::pop_batch(
    std::size_t max_batch, bool wait) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (wait) {
    cv_.wait(lock, [this] { return size_ > 0 || closed_; });
  }
  std::vector<Entry> batch;
  // Highest class first, FIFO within a class: a high-priority request
  // overtakes every queued normal/low one no matter when it arrived.
  for (std::size_t c = kStreamPriorityCount; c-- > 0 && batch.size() < max_batch;) {
    std::deque<Entry>& queue = classes_[c];
    while (!queue.empty() && batch.size() < max_batch) {
      batch.push_back(std::move(queue.front()));
      queue.pop_front();
      --size_;
    }
  }
  return batch;
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
                                   SearchConfig config, bool start_dispatchers)
    : service_(&service),
      config_(std::move(config)),
      queue_(config_.stream_queue_capacity) {
  config_.validate();
  if (!start_dispatchers) return;
  dispatchers_.reserve(config_.stream_dispatch_threads);
  for (std::size_t i = 0; i < config_.stream_dispatch_threads; ++i) {
    dispatchers_.emplace_back([this] { dispatcher_loop(); });
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
  if (dispatchers_.empty()) {
    // Manual mode: drain inline so every queued promise resolves.
    while (dispatch_once() > 0) {
    }
  }
  for (std::thread& dispatcher : dispatchers_) dispatcher.join();
  dispatchers_.clear();
}

std::size_t StreamingService::dispatch_once() {
  return process_batch(
      queue_.pop_batch(config_.stream_max_batch, /*wait=*/false));
}

void StreamingService::dispatcher_loop() {
  for (;;) {
    std::vector<AdmissionQueue::Entry> batch =
        queue_.pop_batch(config_.stream_max_batch, /*wait=*/true);
    if (batch.empty()) return;  // closed and drained
    process_batch(std::move(batch));
  }
}

std::size_t StreamingService::process_batch(
    std::vector<AdmissionQueue::Entry> batch) {
  static util::metrics::Counter& m_misses =
      util::metrics::counter("stream.deadline_misses");
  static util::metrics::Counter& m_batches =
      util::metrics::counter("stream.batches");
  static util::metrics::Counter& m_spills =
      util::metrics::counter("stream.spills");
  static util::metrics::Counter& m_committed =
      util::metrics::counter("stream.committed");
  static util::metrics::Counter& m_failed =
      util::metrics::counter("stream.failed");
  static util::metrics::Counter& m_errors =
      util::metrics::counter("stream.dispatch_errors");
  static util::metrics::Summary& m_batch_size =
      util::metrics::summary("stream.batch_size");
  static util::metrics::Summary& m_wait =
      util::metrics::summary("stream.admission_wait_seconds");

  if (batch.empty()) return 0;
  std::size_t completed = 0;
  const auto now = AdmissionQueue::Clock::now();

  // Phase 0 — expiry: a member whose admission deadline passed while
  // queued completes immediately; a stale placement answer is worthless.
  struct Pending {
    AdmissionQueue::Entry entry;
    PlannedPlacement planned;
    double wait = 0.0;
  };
  std::vector<Pending> live;
  live.reserve(batch.size());
  for (AdmissionQueue::Entry& entry : batch) {
    const double wait = seconds_between(entry.enqueued, now);
    m_wait.observe(wait);
    if (now >= entry.deadline) {
      m_misses.inc();
      StreamResult expired;
      expired.status = StreamStatus::kExpired;
      expired.wait_seconds = wait;
      expired.service.placement.failure_reason =
          "admission deadline expired while queued";
      entry.promise.set_value(std::move(expired));
      ++completed;
      continue;
    }
    Pending pending;
    pending.entry = std::move(entry);
    pending.wait = wait;
    live.push_back(std::move(pending));
  }
  if (live.empty()) return completed;

  m_batches.inc();
  m_batch_size.observe(static_cast<double>(live.size()));
  const auto batch_members = static_cast<std::uint32_t>(live.size());

  // Phase 1 — plan every live member against ONE shared snapshot, no lock
  // held.  A member whose search throws resolves its future with that
  // exception; the dispatcher thread itself never dies.
  const dc::Occupancy snapshot = service_->snapshot();
  std::vector<Pending> planned;
  planned.reserve(live.size());
  for (Pending& pending : live) {
    const StreamRequest& request = pending.entry.request;
    try {
      pending.planned.epoch = snapshot.version();
      pending.planned.placement = service_->scheduler().plan_against(
          snapshot, request.topology, request.algorithm, config_);
    } catch (...) {
      // Non-std throws land here too; the promise is resolved exactly once
      // and the dispatcher stays alive.
      m_errors.inc();
      pending.entry.promise.set_exception(std::current_exception());
      ++completed;
      continue;
    }
    if (!pending.planned.placement.feasible) {
      m_failed.inc();
      StreamResult failed;
      failed.status = StreamStatus::kFailed;
      failed.wait_seconds = pending.wait;
      failed.batch_size = batch_members;
      failed.service.plan_epoch = pending.planned.epoch;
      failed.service.placement = std::move(pending.planned.placement);
      pending.entry.promise.set_value(std::move(failed));
      ++completed;
      continue;
    }
    planned.push_back(std::move(pending));
  }
  if (planned.empty()) return completed;

  // Phase 2 — group validate-and-commit under one writer-lock acquisition.
  std::vector<PlacementService::BatchCommitMember> members(planned.size());
  for (std::size_t i = 0; i < planned.size(); ++i) {
    members[i].topology = &planned[i].entry.request.topology;
    members[i].planned = &planned[i].planned;
    members[i].committer = &planned[i].entry.request.committer;
  }
  std::exception_ptr commit_error;
  try {
    service_->try_commit_batch(members);
  } catch (...) {
    // A member's commit step threw.  Members already at kCommitted were
    // applied and resolve as committed below; every other planned member
    // is resolved with the exception, std or not, one dispatch error each.
    commit_error = std::current_exception();
  }

  // Phase 3 — complete committed/rejected members; spill conflicted ones
  // back into the per-request conflict-replan ladder.
  for (std::size_t i = 0; i < planned.size(); ++i) {
    Pending& pending = planned[i];
    if (commit_error &&
        members[i].outcome != PlacementService::CommitOutcome::kCommitted) {
      m_errors.inc();
      pending.entry.promise.set_exception(commit_error);
      ++completed;
      continue;
    }
    const StreamRequest& request = pending.entry.request;
    StreamResult result;
    result.wait_seconds = pending.wait;
    result.batch_size = batch_members;
    result.service.plan_epoch = pending.planned.epoch;
    switch (members[i].outcome) {
      case PlacementService::CommitOutcome::kCommitted:
        result.status = StreamStatus::kCommitted;
        result.service.commit_epoch = members[i].commit_epoch;
        result.service.placement = std::move(pending.planned.placement);
        m_committed.inc();
        break;
      case PlacementService::CommitOutcome::kRejected:
        result.status = StreamStatus::kFailed;
        result.service.placement = std::move(pending.planned.placement);
        m_failed.inc();
        break;
      case PlacementService::CommitOutcome::kConflict: {
        // Spill: a batch predecessor (or a concurrent request) consumed
        // this member's resources.  Hand it to the service's full
        // plan→commit ladder, which replans from a fresh snapshot.
        m_spills.inc();
        result.spills = 1;
        try {
          result.service = service_->place_with(
              request.topology, request.algorithm, config_, request.committer);
        } catch (...) {
          m_errors.inc();
          pending.entry.promise.set_exception(std::current_exception());
          ++completed;
          continue;
        }
        result.service.conflicts += 1;  // the batch-commit conflict itself
        result.status = result.service.placement.committed
                            ? StreamStatus::kCommitted
                            : StreamStatus::kFailed;
        if (result.status == StreamStatus::kCommitted) {
          m_committed.inc();
        } else {
          m_failed.inc();
        }
        break;
      }
    }
    pending.entry.promise.set_value(std::move(result));
    ++completed;
  }
  return completed;
}

}  // namespace ostro::core
