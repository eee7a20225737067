#include "openstack/ostro_wrapper.h"

namespace ostro::os {

WrapperResult OstroHeatWrapper::process(const util::Json& template_document,
                                        core::Algorithm algorithm) {
  WrapperResult result;
  HeatTemplate parsed;
  try {
    parsed = HeatTemplate::parse(template_document);
  } catch (const TemplateError& e) {
    result.deployment.failure = e.what();
    return result;
  }

  // The annotate+deploy step is the service's committer: it runs under the
  // writer lock, after the validate-and-commit gate re-checked the plan
  // against the live occupancy, so the engine's own validation can only
  // fail for engine-level reasons — never because a competing stack
  // committed between plan and deploy.
  const core::ServiceResult service_result = service_->place_with(
      parsed.topology, algorithm, service_->scheduler().defaults(),
      [&](const core::Placement& placement, std::string& failure) {
        result.annotated_template = annotate_with_placement(
            template_document, parsed, placement.assignment,
            service_->datacenter());
        result.deployment = engine_->deploy(result.annotated_template);
        if (!result.deployment.success) failure = result.deployment.failure;
        return result.deployment.success;
      });

  result.placement = service_result.placement;
  result.conflicts = service_result.conflicts;
  result.retries = service_result.retries;
  if (!result.placement.feasible) {
    result.deployment.failure =
        "Ostro found no feasible placement: " + result.placement.failure_reason;
  } else if (!result.placement.committed && result.deployment.failure.empty()) {
    // Conflict ladder exhausted (or overcommitted): the committer never
    // ran, so surface the service's reason as the deployment failure.
    result.deployment.failure = result.placement.failure_reason;
  }
  return result;
}

OstroHeatWrapper::StreamedStack OstroHeatWrapper::submit_streamed(
    core::StreamingService& stream, const util::Json& template_document,
    core::Algorithm algorithm, core::StreamPriority priority,
    double deadline_seconds) {
  StreamedStack streamed;
  streamed.stack = std::make_shared<WrapperResult>();

  HeatTemplate parsed;
  try {
    parsed = HeatTemplate::parse(template_document);
  } catch (const TemplateError& e) {
    streamed.stack->deployment.failure = e.what();
    std::promise<core::StreamResult> failed;
    core::StreamResult result;
    result.status = core::StreamStatus::kFailed;
    result.service.placement.failure_reason = e.what();
    failed.set_value(std::move(result));
    streamed.result = failed.get_future();
    return streamed;
  }

  core::StreamRequest request;
  request.topology = parsed.topology;
  request.algorithm = algorithm;
  request.priority = priority;
  request.deadline_seconds = deadline_seconds;
  // Same commit step as process(), shared with the caller through `stack`:
  // the dispatcher runs it under the service writer lock after the commit
  // gate validated the plan, so the engine deploy stays TOCTOU-free.
  request.committer = [state = streamed.stack, document = template_document,
                       parsed = std::move(parsed), this](
                          const core::Placement& placement,
                          std::string& failure) {
    state->annotated_template = annotate_with_placement(
        document, parsed, placement.assignment, service_->datacenter());
    state->deployment = engine_->deploy(state->annotated_template);
    if (!state->deployment.success) failure = state->deployment.failure;
    return state->deployment.success;
  };
  streamed.result = stream.submit(std::move(request));
  return streamed;
}

WrapperResult OstroHeatWrapper::process_text(std::string_view template_text,
                                             core::Algorithm algorithm) {
  try {
    return process(util::Json::parse(template_text), algorithm);
  } catch (const util::JsonError& e) {
    WrapperResult result;
    result.deployment.failure = std::string("invalid template JSON: ") +
                                e.what();
    return result;
  }
}

}  // namespace ostro::os
