#include "core/types.h"

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

const char* to_string(BudgetMode mode) noexcept {
  switch (mode) {
    case BudgetMode::kFixed: return "fixed";
    case BudgetMode::kAuto: return "auto";
  }
  return "?";
}

BudgetMode parse_budget_mode(const std::string& name) {
  const std::string lower = util::to_lower(name);
  if (lower == "fixed") return BudgetMode::kFixed;
  if (lower == "auto") return BudgetMode::kAuto;
  throw std::invalid_argument("unknown budget mode: " + name);
}

void SearchConfig::validate() const {
  if (theta_bw < 0.0 || theta_c < 0.0 || theta_bw + theta_c <= 0.0) {
    throw std::invalid_argument(
        "SearchConfig: theta weights must be non-negative with positive sum");
  }
  if (initial_prune_range < 0.0) {
    throw std::invalid_argument("SearchConfig: negative initial_prune_range");
  }
  if (alpha_factor < 0.0) {
    throw std::invalid_argument("SearchConfig: negative alpha_factor");
  }
  if (budget_widen_factor <= 1.0) {
    throw std::invalid_argument(
        "SearchConfig: budget_widen_factor must be > 1");
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
