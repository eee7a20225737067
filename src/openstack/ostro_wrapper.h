// The Heat wrapper of Figure 1: intercepts a QoS-enhanced Heat template,
// asks Ostro for a holistic placement, annotates the template with the
// resulting force_host scheduler hints, and hands it to the Heat engine,
// which drives Nova/Cinder onto the designated hosts and disks.
//
// The plan→deploy pipeline runs through core::PlacementService, so it is
// atomic against concurrent stacks: the Heat-engine deploy executes under
// the service's writer lock after the validate-and-commit gate, and a
// competing commit that lands between Ostro's plan and the engine deploy
// produces a clean replan (not a spurious "placement validation failed").
#pragma once

#include <future>
#include <memory>

#include "core/scheduler.h"
#include "core/service.h"
#include "core/stream.h"
#include "openstack/heat_engine.h"
#include "openstack/heat_template.h"

namespace ostro::os {

struct WrapperResult {
  core::Placement placement;     ///< Ostro's decision (may be infeasible)
  util::Json annotated_template; ///< template with scheduler hints
  StackDeployment deployment;    ///< what the Heat engine then did
  std::uint32_t conflicts = 0;   ///< commit conflicts hit by this request
  std::uint32_t retries = 0;     ///< replans after conflicts
};

class OstroHeatWrapper {
 public:
  /// Scheduler and engine must share the same occupancy lifetime; the usual
  /// wiring is one OstroScheduler plus a HeatEngine over its occupancy.
  /// This constructor wraps the scheduler in an internally owned
  /// PlacementService; the scheduler must then not be driven concurrently
  /// outside the wrapper.
  OstroHeatWrapper(core::OstroScheduler& scheduler, HeatEngine& engine)
      : owned_service_(std::make_unique<core::PlacementService>(scheduler)),
        service_(owned_service_.get()),
        engine_(&engine) {}

  /// Shares an external service (and with it, the concurrency domain of
  /// every other request going through that service).  The engine must
  /// deploy into the occupancy of the service's scheduler.
  OstroHeatWrapper(core::PlacementService& service, HeatEngine& engine)
      : service_(&service), engine_(&engine) {}

  /// Full pipeline: parse -> Ostro placement -> annotate -> Heat deploy,
  /// with the annotate+deploy step running as the service's commit step.
  /// On any failure the returned deployment carries the reason and nothing
  /// is committed.
  [[nodiscard]] WrapperResult process(const util::Json& template_document,
                                      core::Algorithm algorithm);
  [[nodiscard]] WrapperResult process_text(std::string_view template_text,
                                           core::Algorithm algorithm);

  /// A stack admitted to the streaming front end.  `result` resolves when
  /// the dispatcher completes the request; `stack` is shared with the commit
  /// step and carries the annotated template and engine deployment once
  /// the result is ready (merge the placement from the StreamResult).
  struct StreamedStack {
    std::future<core::StreamResult> result;
    std::shared_ptr<WrapperResult> stack;
  };

  /// Streamed pipeline: parse, then enqueue on `stream` (which must front
  /// the same PlacementService this wrapper deploys through) with the
  /// annotate+deploy step as the request's commit step — the same
  /// TOCTOU-free shape as process(), but prioritized and deadline-gated by
  /// the admission queue.  Template parse errors resolve the future
  /// immediately as kFailed.
  [[nodiscard]] StreamedStack submit_streamed(
      core::StreamingService& stream, const util::Json& template_document,
      core::Algorithm algorithm,
      core::StreamPriority priority = core::StreamPriority::kNormal,
      double deadline_seconds = 0.0);

 private:
  std::unique_ptr<core::PlacementService> owned_service_;
  core::PlacementService* service_;
  HeatEngine* engine_;
};

}  // namespace ostro::os
