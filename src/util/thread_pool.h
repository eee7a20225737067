// One-shot worker fan-out for client-side concurrency (benches, the CLI's
// concurrent placement modes, concurrency tests).  The placement core itself
// starts no threads: EG scores its candidates on the calling thread.
#pragma once

#include <cstddef>
#include <functional>

namespace ostro::util {

/// Spawns `count` one-shot worker threads running body(worker_index),
/// joins them ALL, then rethrows the first exception any worker raised
/// (in worker-index order).  This is the safe shape for client-side
/// fan-out: a bare `std::thread` lambda turns an escaping exception into
/// std::terminate mid-run, and nothing is rethrown until every worker has
/// finished, so `body` and the caller's captures are never referenced
/// past this call's lifetime.
void run_workers(std::size_t count,
                 const std::function<void(std::size_t)>& body);

}  // namespace ostro::util
