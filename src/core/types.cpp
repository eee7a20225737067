#include "core/types.h"

#include <cmath>
#include <stdexcept>

#include "util/string_util.h"

namespace ostro::core {

const char* to_string(Algorithm algorithm) noexcept {
  switch (algorithm) {
    case Algorithm::kEg: return "EG";
    case Algorithm::kEgC: return "EGC";
    case Algorithm::kEgBw: return "EGBW";
    case Algorithm::kBaStar: return "BA*";
    case Algorithm::kDbaStar: return "DBA*";
  }
  return "?";
}

Algorithm parse_algorithm(const std::string& name) {
  const std::string lower = util::to_lower(name);
  if (lower == "eg") return Algorithm::kEg;
  if (lower == "egc" || lower == "eg_c") return Algorithm::kEgC;
  if (lower == "egbw" || lower == "eg_bw") return Algorithm::kEgBw;
  if (lower == "ba" || lower == "ba*" || lower == "bastar") {
    return Algorithm::kBaStar;
  }
  if (lower == "dba" || lower == "dba*" || lower == "dbastar") {
    return Algorithm::kDbaStar;
  }
  throw std::invalid_argument("unknown algorithm: " + name);
}

void SearchConfig::validate() const {
  // NaN fails every comparison, so it is caught by the sum's finiteness
  // check, as is a pair of huge weights whose sum overflows.
  if (theta_bw < 0.0 || theta_c < 0.0 || theta_bw + theta_c <= 0.0 ||
      !std::isfinite(theta_bw + theta_c)) {
    throw std::invalid_argument(
        "SearchConfig: theta weights must be non-negative with positive, "
        "finite sum");
  }
  // NaN fails every comparison: a NaN deadline would never expire, yet
  // leave DBA* no time for its EG re-bounds, and a NaN r would pass the
  // sign check.  "No deadline" is spelled <= 0, so infinities are
  // rejected too.
  if (!std::isfinite(deadline_seconds)) {
    throw std::invalid_argument(
        "SearchConfig: deadline_seconds must be finite");
  }
  if (!std::isfinite(initial_prune_range) || initial_prune_range < 0.0) {
    throw std::invalid_argument(
        "SearchConfig: initial_prune_range must be finite and non-negative");
  }
  if (stream_queue_capacity == 0) {
    throw std::invalid_argument(
        "SearchConfig: stream_queue_capacity must be >= 1");
  }
  if (stream_max_batch == 0) {
    throw std::invalid_argument("SearchConfig: stream_max_batch must be >= 1");
  }
  if (stream_dispatch_threads == 0) {
    throw std::invalid_argument(
        "SearchConfig: stream_dispatch_threads must be >= 1");
  }
}

}  // namespace ostro::core
