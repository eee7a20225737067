// Shared scaffolding for the benchmark harness.
//
// Every bench binary regenerates one table or figure of the paper's
// evaluation section (see DESIGN.md for the index).  They print the same
// rows/series the paper reports, in an aligned text table by default or as
// CSV with --csv.  Absolute numbers differ from the paper's 2015 testbed;
// the reproduction target is the shape: who wins, by what factor, where
// the curves cross or saturate.
#pragma once

#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "core/scheduler.h"
#include "sim/clusters.h"
#include "sim/workloads.h"
#include "util/args.h"
#include "util/metrics.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/table.h"

namespace ostro::bench {

/// The algorithm line-up of the paper's figures (greedy baselines + Ostro).
[[nodiscard]] inline std::vector<core::Algorithm> figure_algorithms() {
  return {core::Algorithm::kEgC, core::Algorithm::kEgBw, core::Algorithm::kEg,
          core::Algorithm::kDbaStar};
}

/// All five algorithms (Tables I/II include BA*).
[[nodiscard]] inline std::vector<core::Algorithm> table_algorithms() {
  return {core::Algorithm::kEgC, core::Algorithm::kEgBw, core::Algorithm::kEg,
          core::Algorithm::kBaStar, core::Algorithm::kDbaStar};
}

/// DBA* deadline used in the scalability figures: grows with the topology
/// size like the run times the paper reports (~16 s at 200 VMs, Fig. 9a).
[[nodiscard]] inline double dba_deadline_for(int vms) {
  return 0.08 * static_cast<double>(vms);
}

/// Registers the flags shared by every sweep bench.
inline void add_common_flags(util::ArgParser& args) {
  args.add_flag("csv", "emit CSV instead of an aligned table");
  args.add_int("runs", 2, "repetitions per cell (paper: 20)");
  args.add_int("seed", 42, "base RNG seed");
  args.add_flag("full", "run the paper's full size sweep (slower)");
  args.add_flag("metrics",
                "dump the metrics registry as a JSON block after the tables");
  args.add_flag("no-metrics", "disable metrics collection for this run");
}

/// Applies the --no-metrics switch; call once after parsing.
inline void apply_metrics_flags(const util::ArgParser& args) {
  if (args.flag("no-metrics")) util::metrics::set_enabled(false);
}

/// Prints the metrics registry as a labelled JSON block when --metrics was
/// given.  Call at the end of main, after the tables.
inline void emit_metrics(const util::ArgParser& args) {
  if (!args.flag("metrics")) return;
  std::cout << "\n== metrics ==\n"
            << util::metrics::Registry::global().to_json().pretty() << "\n";
}

/// Prints `table` as text or CSV per the --csv flag.
inline void emit(const util::TablePrinter& table, const util::ArgParser& args,
                 const std::string& caption) {
  if (!args.flag("csv")) std::cout << "\n== " << caption << " ==\n";
  if (args.flag("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
}

/// Formats a mean as "m" or "m +- s" when multiple runs were aggregated.
[[nodiscard]] inline std::string mean_pm(const util::Samples& samples,
                                         int decimals = 1) {
  if (samples.count() == 0) return "n/a";
  if (samples.count() == 1) {
    return util::format("%.*f", decimals, samples.mean());
  }
  return util::format("%.*f+-%.*f", decimals, samples.mean(), decimals,
                      samples.stddev());
}

/// Cell for a Truncated column: "no", or how many runs stopped at a search
/// budget (the max_open_paths valve or max_expansions) and so returned their
/// incumbent rather than a completed search.
[[nodiscard]] inline std::string truncated_runs(int truncated) {
  return truncated > 0 ? util::format("%d runs", truncated) : "no";
}

}  // namespace ostro::bench
