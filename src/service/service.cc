#include "service/service.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "common/log.h"
#include "generate/generator.h"
#include "lang/parser.h"

namespace dbpc {

namespace {

/// The refused outcome a program degrades to when every attempt failed.
PipelineOutcome DegradedOutcome(const std::string& program_name,
                                const std::string& diagnostic) {
  PipelineOutcome outcome;
  outcome.classification = Convertibility::kNotConvertible;
  outcome.accepted = false;
  outcome.conversion.outcome = Convertibility::kNotConvertible;
  outcome.conversion.converted.name = program_name;
  outcome.conversion.notes.push_back("conversion degraded to refused: " +
                                     diagnostic);
  return outcome;
}

}  // namespace

Status ServiceOptions::Validate() const {
  if (jobs <= 0) {
    return Status::InvalidArgument(
        "ServiceOptions::jobs must be >= 1 (got " + std::to_string(jobs) +
        ")");
  }
  if (deadline_ms < 0) {
    return Status::InvalidArgument(
        "ServiceOptions::deadline_ms must be >= 0 (got " +
        std::to_string(deadline_ms) + ")");
  }
  if (retries < 0) {
    return Status::InvalidArgument(
        "ServiceOptions::retries must be >= 0 (got " +
        std::to_string(retries) + ")");
  }
  DBPC_RETURN_IF_ERROR(cache.Validate());
  return supervisor.Validate();
}

ConversionService::ConversionService(ServiceOptions options)
    : options_(std::move(options)),
      pool_(std::make_unique<WorkerPool>(options_.jobs)) {}

Result<std::unique_ptr<ConversionService>> ConversionService::Create(
    Schema source, std::vector<const Transformation*> plan,
    ServiceOptions options) {
  DBPC_RETURN_IF_ERROR(options.Validate());
  std::unique_ptr<ConversionService> service(
      new ConversionService(std::move(options)));
  service->options_.supervisor.metrics = &service->metrics_;
  if (service->options_.supervisor.cache == nullptr &&
      service->options_.cache.enabled) {
    service->cache_ =
        std::make_unique<TemplateCache>(service->options_.cache);
    service->options_.supervisor.cache = service->cache_.get();
  }
  if (service->options_.supervisor.cache != nullptr) {
    // Register the cache.* counters up front so every metrics snapshot
    // shows them, traffic or not.
    for (const char* name :
         {"cache.hits", "cache.misses", "cache.evictions",
          "cache.invalidations", "cache.traced_bypass"}) {
      service->metrics_.GetCounter(name);
    }
    service->cache_entries_gauge_ =
        service->metrics_.GetGauge("cache.entries");
  }
  service->conversions_rate_ =
      service->metrics_.GetRate("service.conversions");
  service->pool_->SetBusyGauge(
      service->metrics_.GetGauge("service.workers_busy"));
  DBPC_ASSIGN_OR_RETURN(
      ConversionSupervisor supervisor,
      ConversionSupervisor::Create(std::move(source), std::move(plan),
                                   service->options_.supervisor));
  service->supervisor_ =
      std::make_unique<ConversionSupervisor>(std::move(supervisor));
  return service;
}

void ConversionService::RefreshGauges() {
  if (cache_entries_gauge_ != nullptr) {
    TemplateCache* cache = options_.supervisor.cache;
    if (cache != nullptr) {
      cache_entries_gauge_->Set(
          static_cast<int64_t>(cache->Stats().entries));
    }
  }
}

void ConversionService::InvalidateCache() {
  TemplateCache* cache = options_.supervisor.cache;
  if (cache == nullptr) return;
  size_t dropped = cache->Clear();
  if (dropped > 0) {
    metrics_.GetCounter("cache.invalidations")->Increment(dropped);
  }
}

PipelineOutcome ConversionService::RunOne(const Program& program,
                                          uint64_t sequence,
                                          RequestTimeline* timeline,
                                          int deadline_ms,
                                          SpanCollector* span_override,
                                          std::string* generated) {
  const int effective_deadline_ms =
      deadline_ms > 0 ? deadline_ms : options_.deadline_ms;
  const uint64_t deadline_us =
      static_cast<uint64_t>(effective_deadline_ms) * 1000;
  const int attempts = 1 + options_.retries;
  SpanCollector* spans =
      span_override != nullptr ? span_override : options_.supervisor.spans;
  std::string diagnostic;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) metrics_.GetCounter("service.retries")->Increment();
    // One root span per attempt (each worker job mutates only its own
    // tree); the sequence is the program's batch index, so exports are
    // ordered identically for any worker count.
    SpanContext root;
    if (spans != nullptr) {
      root = spans->StartRoot("convert " + program.name, sequence);
      root.SetAttribute("job", std::to_string(sequence));
      if (attempt > 0) {
        root.SetAttribute("attempt", std::to_string(attempt + 1));
      }
    }
    timeline->Stamp(Mark::kAttemptStart);
    Result<PipelineOutcome> result = [&]() -> Result<PipelineOutcome> {
      try {
        if (options_.pipeline_override) {
          return options_.pipeline_override(program);
        }
        return supervisor_->ConvertProgram(program, root, timeline);
      } catch (const std::exception& e) {
        metrics_.GetCounter("service.exceptions")->Increment();
        return Status::Internal(std::string("conversion threw: ") + e.what());
      } catch (...) {
        metrics_.GetCounter("service.exceptions")->Increment();
        return Status::Internal("conversion threw a non-standard exception");
      }
    }();
    timeline->Stamp(Mark::kAttemptEnd);
    uint64_t elapsed_us =
        *timeline->Micros(Mark::kAttemptStart, Mark::kAttemptEnd);
    bool over_deadline = deadline_us > 0 && elapsed_us > deadline_us;
    if (result.ok() && !over_deadline) {
      PipelineOutcome outcome = std::move(result).value();
      if (outcome.accepted) {
        // The Program Generator stage: emit target source once so its cost
        // is part of the pipeline metrics.
        SpanContext gen_span = root.StartChild("program_generator");
        std::string text = GenerateCplSource(outcome.conversion.converted);
        timeline->Stamp(Mark::kGenerated);
        gen_span.AddCounter("bytes", text.size());
        gen_span.End();
        metrics_.GetCounter("generator.bytes")->Increment(text.size());
        if (generated != nullptr) *generated = std::move(text);
      }
      RecordDurations(*timeline, &metrics_, {kProgramTotalUs, kGenerateUs});
      root.End();
      return outcome;
    }
    if (over_deadline) {
      metrics_.GetCounter("service.deadline_exceeded")->Increment();
      diagnostic = "deadline of " + std::to_string(effective_deadline_ms) +
                   "ms exceeded (attempt took " +
                   std::to_string(elapsed_us / 1000) + "ms)";
    } else {
      diagnostic = result.status().ToString();
    }
    root.SetAttribute("failed", diagnostic);
    root.End();
  }
  metrics_.GetCounter("service.degraded")->Increment();
  DBPC_LOG_RATELIMITED(LogLevel::kWarn, 5.0, 10.0, "conversion_degraded",
                       LogField("program", program.name),
                       LogField("attempts", attempts),
                       LogField("diagnostic", diagnostic));
  return DegradedOutcome(
      program.name, diagnostic + " after " + std::to_string(attempts) +
                   (attempts == 1 ? " attempt" : " attempts"));
}

Result<Program> ConversionService::ResolveProgram(
    const ConversionRequest& request) {
  Result<Program> program = [&request]() -> Result<Program> {
    DBPC_RETURN_IF_ERROR(request.Validate());
    if (request.program.has_value()) return *request.program;
    return ParseProgram(request.source);
  }();
  if (!program.ok()) {
    metrics_.GetCounter("service.requests_invalid")->Increment();
    return program;
  }
  if (!request.name.empty()) program->name = request.name;
  return program;
}

ConversionResponse ConversionService::Convert(const ConversionRequest& request,
                                              JobId id,
                                              RequestTimeline* timeline) {
  RequestTimeline own_timeline;
  if (timeline == nullptr) timeline = &own_timeline;
  timeline->Stamp(Mark::kPickup);
  ConversionResponse response;
  response.id = id;
  response.program_name = request.name;
  Result<Program> program = ResolveProgram(request);
  if (!program.ok()) {
    response.state = JobState::kFailed;
    response.status = program.status();
  } else {
    // Per-request tracing uses a collector local to this job so concurrent
    // jobs never share span state; the job id is the deterministic
    // sequence.
    SpanCollector local_spans;
    std::string generated;
    response.outcome =
        RunOne(*program, id == 0 ? 1 : id, timeline, request.deadline_ms,
               request.trace ? &local_spans : nullptr, &generated);
    response.state = JobState::kDone;
    response.accepted = response.outcome.accepted;
    response.classification = response.outcome.classification;
    response.program_name = program->name;
    response.converted_source = std::move(generated);
    response.notes = response.outcome.conversion.notes;
    if (request.trace) response.trace_text = local_spans.ToText();
    metrics_.GetCounter("service.requests")->Increment();
    if (conversions_rate_ != nullptr) conversions_rate_->Tick();
  }
  timeline->Stamp(Mark::kResponded);
  response.latency_us = *timeline->Micros(Mark::kPickup, Mark::kResponded);
  return response;
}

Result<SystemConversionReport> ConversionService::ConvertSystem(
    const std::vector<ConversionRequest>& requests) {
  // Workers fill per-request slots; the report is assembled in input order
  // afterwards, so completion order never shows in the output. Batch runs
  // trace through ServiceOptions (one collector, per-job sequences);
  // ConversionRequest::trace is a single-job (daemon) knob and is ignored
  // here so batch span forests stay byte-identical for any job count.
  std::vector<PipelineOutcome> slots(requests.size());
  auto run_request = [this](const ConversionRequest& request,
                            uint64_t sequence) -> PipelineOutcome {
    Result<Program> program = ResolveProgram(request);
    if (!program.ok()) {
      return DegradedOutcome(request.name.empty() ? "request" : request.name,
                             program.status().ToString());
    }
    RequestTimeline timeline;
    return RunOne(*program, sequence, &timeline, request.deadline_ms);
  };
  if (options_.jobs == 1) {
    // Run on the caller's thread: jobs=1 is the reference serial mode.
    for (size_t i = 0; i < requests.size(); ++i) {
      slots[i] = run_request(requests[i], i + 1);
    }
  } else {
    for (size_t i = 0; i < requests.size(); ++i) {
      pool_->Submit([&run_request, &requests, &slots, i] {
        slots[i] = run_request(requests[i], i + 1);
      });
    }
    pool_->Wait();
  }

  SystemConversionReport report;
  for (PipelineOutcome& outcome : slots) report.Add(std::move(outcome));
  metrics_.AddCounts({{"programs.automatic", report.automatic},
                      {"programs.needs_analyst", report.needs_analyst},
                      {"programs.refused", report.refused},
                      {"programs.accepted", report.accepted}});
  metrics_.GetCounter("service.batches")->Increment();
  if (conversions_rate_ != nullptr) {
    conversions_rate_->Tick(static_cast<uint64_t>(requests.size()));
  }
  return report;
}

}  // namespace dbpc
