#include "supervisor/supervisor.h"

#include <cmath>
#include <cstdio>

#include "common/log.h"
#include "convert/provenance.h"
#include "optimize/stats.h"

namespace dbpc {

namespace {

std::string CacheKeyHex(uint64_t key) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(key));
  return buf;
}

}  // namespace

AnalystPolicy ApproveAllAnalyst() {
  return [](const std::string&) { return true; };
}

AnalystPolicy RejectAllAnalyst() {
  return [](const std::string&) { return false; };
}

Status SupervisorOptions::Validate() const {
  if (mode == AnalystMode::kAssisted && !analyst) {
    return Status::InvalidArgument(
        "assisted mode requires an analyst policy (SupervisorOptions::analyst "
        "is unset)");
  }
  if (mode == AnalystMode::kStrict && analyst) {
    return Status::InvalidArgument(
        "strict mode never consults the analyst, but an analyst policy is "
        "set; drop the policy or use AnalystMode::kAuto");
  }
  return Status::OK();
}

Result<ConversionSupervisor> ConversionSupervisor::Create(
    Schema source, std::vector<const Transformation*> plan,
    SupervisorOptions options) {
  DBPC_RETURN_IF_ERROR(options.Validate());
  DBPC_ASSIGN_OR_RETURN(
      ProgramConverter converter,
      ProgramConverter::Create(std::move(source), plan, options.analyzer));
  return ConversionSupervisor(std::move(converter), std::move(plan),
                              std::move(options));
}

ConversionSupervisor::ConversionSupervisor(
    ProgramConverter converter, std::vector<const Transformation*> plan,
    SupervisorOptions options)
    : converter_(std::move(converter)),
      plan_(std::move(plan)),
      options_(std::move(options)) {
  if (options_.cache == nullptr) return;
  // Everything besides the program and the statistics that can change the
  // converted output, rendered once. Two supervisors sharing one cache
  // (different plans, schemas or switches) can therefore never serve each
  // other's entries. The analyst configuration is deliberately absent:
  // analyst-consulting conversions are never memoized.
  std::string& prefix = cache_context_prefix_;
  prefix = "source schema:\n" + converter_.source_schema().ToDdl();
  prefix += "target schema:\n" + converter_.target_schema().ToDdl();
  prefix += "plan:\n";
  for (const Transformation* step : plan_) {
    prefix += step->Name() + ": " + step->Describe() + "\n";
  }
  prefix += "options: optimizer=" + std::to_string(options_.run_optimizer) +
            " lift=" + std::to_string(options_.analyzer.lift_templates) +
            " index=" + std::to_string(options_.index.enabled) +
            " auto_join=" + std::to_string(options_.index.auto_join_indexes) +
            "\nstatistics:\n";
  // The prefix is kilobytes (two schemas' DDL); hash it once here instead
  // of on every conversion. The statistics text is still hashed per call —
  // that recomputation is what invalidates entries when the catalog is
  // mutated in place.
  cache_context_prefix_fp_ = Fingerprint64(cache_context_prefix_);
}

std::string ExplainCacheLine(const PipelineOutcome& outcome) {
  if (!outcome.cache_hit) return "";
  return "  plan: cached (memo key " + outcome.cache_key +
         "); candidate costs below were enumerated when the cache entry "
         "was populated\n";
}

Result<PipelineOutcome> ConversionSupervisor::ConvertProgram(
    const Program& program, SpanContext span,
    RequestTimeline* timeline) const {
  MetricsRegistry* metrics = options_.metrics;
  RequestTimeline own_timeline;
  if (timeline == nullptr) timeline = &own_timeline;

  // The conversion memo. Traced conversions bypass it: a hit skips the
  // pipeline stages, so serving one under a collector would leave the span
  // forest describing work that never ran — tracing on/off must produce
  // identical, honest forests.
  TemplateCache* cache = options_.cache;
  uint64_t cache_key = 0;
  std::string cache_context;
  std::string cache_key_hex;
  if (cache != nullptr) {
    if (span.enabled() || options_.spans != nullptr) {
      if (metrics != nullptr) {
        metrics->GetCounter("cache.traced_bypass")->Increment();
      }
      cache = nullptr;
    } else {
      std::string statistics_text =
          options_.statistics != nullptr ? options_.statistics->ToText() : "";
      cache_key = MixFingerprints(
          MixFingerprints(cache_context_prefix_fp_,
                          Fingerprint64(statistics_text)),
          Fingerprint64(CanonicalProgramText(program)));
      cache_key_hex = CacheKeyHex(cache_key);
      // Piecewise lookup: the kilobyte prefix and the statistics text are
      // compared against the stored context without being concatenated.
      if (std::shared_ptr<const CachedConversion> entry = cache->Lookup(
              cache_key, cache_context_prefix_, statistics_text, program)) {
        if (metrics != nullptr) metrics->GetCounter("cache.hits")->Increment();
        PipelineOutcome outcome;
        outcome.conversion = entry->result;
        // Re-stamp the per-program identity: the memo stores the template,
        // the name belongs to this request. Provenance ids on the cached
        // statements are already this program's ids — the canonical-body
        // equality check guarantees statement-for-statement identical
        // sources, which StampSourceProvenance numbers identically.
        outcome.conversion.converted.name = program.name;
        outcome.classification = entry->result.outcome;
        outcome.accepted = entry->accepted;
        outcome.optimizer_stats = entry->optimizer_stats;
        outcome.cache_hit = true;
        outcome.cache_key = cache_key_hex;
        return outcome;
      }
      if (metrics != nullptr) metrics->GetCounter("cache.misses")->Increment();
      // Only a miss needs the combined context string — it becomes the
      // stored key material of the entry memoized below.
      cache_context = cache_context_prefix_ + statistics_text;
    }
  }

  // Self-rooting: a direct caller with only a collector configured still
  // gets one complete tree per conversion. The service passes its own root
  // (with a per-job sequence) instead and keeps it open for the generator
  // stage.
  SpanContext owned_root;
  if (!span.enabled() && options_.spans != nullptr) {
    owned_root = options_.spans->StartRoot("convert " + program.name);
    span = owned_root;
  }
  // The Conversion Analyzer classified the schema restructuring when the
  // supervisor was built; restate its verdict on every conversion root so
  // each tree shows all Figure 4.1 stages.
  if (span.enabled()) {
    SpanContext analyzer_span = span.StartChild("conversion_analyzer");
    analyzer_span.AddCounter("schema_changes", converter_.changes().size());
    analyzer_span.AddCounter("plan_steps", plan_.size());
    analyzer_span.End();
  }

  PipelineOutcome outcome;
  DBPC_ASSIGN_OR_RETURN(outcome.conversion,
                        converter_.Convert(program, span, timeline));
  RecordDurations(*timeline, metrics, {kAnalyzeUs, kConvertUs});
  outcome.classification = outcome.conversion.outcome;
  auto finish = [&]() {
    if (span.enabled()) {
      span.SetAttribute("classification",
                        ConvertibilityName(outcome.classification));
      span.SetAttribute("accepted", outcome.accepted ? "true" : "false");
    }
    owned_root.End();
  };
  // Memoizes a finished outcome. Conversions the analyst participated in
  // are never cached: the policy is an arbitrary (possibly stateful)
  // function, so its answers are not a function of the memo key.
  auto memoize = [&](PipelineOutcome& out) {
    out.cache_key = cache_key_hex;
    if (cache == nullptr) return;
    if (out.classification == Convertibility::kNeedsAnalyst ||
        !out.analyst_log.empty()) {
      return;
    }
    CachedConversion entry;
    entry.context = cache_context;
    entry.canonical_body = program.body;
    entry.result = out.conversion;
    entry.result.converted.name.clear();  // re-stamped per hit
    entry.result.analyze_micros = 0;      // a hit spends no stage time
    entry.result.convert_micros = 0;
    entry.optimizer_stats = out.optimizer_stats;
    entry.accepted = out.accepted;
    size_t evicted = cache->Insert(cache_key, std::move(entry));
    if (metrics != nullptr && evicted > 0) {
      metrics->GetCounter("cache.evictions")->Increment(evicted);
    }
  };

  const bool consult_analyst =
      options_.mode != AnalystMode::kStrict && options_.analyst != nullptr;

  switch (outcome.classification) {
    case Convertibility::kNotConvertible:
      outcome.accepted = false;
      DBPC_LOG_RATELIMITED(
          LogLevel::kDebug, 10.0, 20.0, "program_refused",
          LogField("program", program.name),
          LogField("issues", outcome.conversion.analysis.issues.size()));
      memoize(outcome);
      RecordOutcomeMetrics(outcome);
      finish();
      return outcome;
    case Convertibility::kAutomatic:
      outcome.accepted = true;
      break;
    case Convertibility::kNeedsAnalyst: {
      // One question per analyst-relevant finding; all must be approved.
      bool all_approved = true;
      auto ask = [&](const std::string& question) {
        bool answer = consult_analyst ? options_.analyst(question) : false;
        outcome.analyst_log.emplace_back(question, answer);
        if (!answer) all_approved = false;
      };
      for (const AnalysisIssue& issue : outcome.conversion.analysis.issues) {
        switch (issue.kind) {
          case AnalysisIssue::Kind::kAmbiguousOwnerSelection:
          case AnalysisIssue::Kind::kUnliftedNavigation:
          case AnalysisIssue::Kind::kStatusCodeDependence:
            ask(issue.ToString());
            break;
          default:
            break;  // informational
        }
      }
      for (const std::string& note : outcome.conversion.notes) {
        ask(note);
      }
      outcome.accepted = all_approved;
      break;
    }
  }
  if (span.enabled() && !outcome.analyst_log.empty()) {
    // The Conversion Analyst's involvement, folded into one span: the
    // questions were answered synchronously above.
    SpanContext analyst_span = span.StartChild("conversion_analyst");
    uint64_t approved = 0;
    for (const auto& [question, answer] : outcome.analyst_log) {
      if (answer) ++approved;
    }
    analyst_span.AddCounter("questions", outcome.analyst_log.size());
    analyst_span.AddCounter("approved", approved);
    analyst_span.End();
  }

  if (outcome.accepted && options_.run_optimizer) {
    SpanContext opt_span = span.StartChild("optimizer");
    timeline->Stamp(Mark::kOptimizeStart);
    Program before = outcome.conversion.converted;
    Status opt_status = OptimizeProgram(converter_.target_schema(),
                                        options_.statistics,
                                        &outcome.conversion.converted,
                                        &outcome.optimizer_stats);
    if (opt_status.ok()) {
      // Statements the optimizer rewrote are re-tagged as its work; their
      // source ids survive from the converter's stamps.
      std::vector<StampedRewrite> stamped = StampRewriteStep(
          before, &outcome.conversion.converted, "optimizer", "optimize");
      const OptimizerStats& os = outcome.optimizer_stats;
      if (opt_span.enabled()) {
        opt_span.AddCounter("predicates_pushed",
                            static_cast<uint64_t>(os.predicates_pushed));
        opt_span.AddCounter("sorts_removed",
                            static_cast<uint64_t>(os.sorts_removed));
        opt_span.AddCounter("plans_costed",
                            static_cast<uint64_t>(os.plans_costed));
        opt_span.AddCounter("rewrites", stamped.size());
        for (const PlanChoice& pc : os.plan_choices) {
          SpanContext choice_span = opt_span.StartChild("plan_choice");
          choice_span.SetAttribute("original", pc.original);
          choice_span.SetAttribute("chosen", pc.chosen);
          choice_span.AddCounter("candidates", pc.candidates.size());
          choice_span.End();
        }
        for (StampedRewrite& r : stamped) {
          SpanContext rewrite_span = opt_span.StartChild("rewrite");
          rewrite_span.SetAttribute("rule", std::move(r.rule));
          rewrite_span.SetAttribute("src", std::to_string(r.source_stmt_id));
          rewrite_span.SetAttribute("stmt", std::move(r.head));
          rewrite_span.End();
        }
      }
    }
    opt_span.End();
    timeline->Stamp(Mark::kOptimizeEnd);
    RecordDurations(*timeline, metrics, {kOptimizeUs});
    if (!opt_status.ok()) {
      finish();
      return opt_status;
    }
  }
  memoize(outcome);
  RecordOutcomeMetrics(outcome);
  finish();
  return outcome;
}

// Classification counters (programs.*) are deliberately not recorded here:
// the conversion service retries failed attempts, and only it knows which
// attempt's outcome is final.
void ConversionSupervisor::RecordOutcomeMetrics(
    const PipelineOutcome& outcome) const {
  if (options_.metrics == nullptr) return;
  const OptimizerStats& os = outcome.optimizer_stats;
  options_.metrics->AddCounts(
      {{"analyst.questions", static_cast<int64_t>(outcome.analyst_log.size())},
       {"optimizer.predicates_pushed", os.predicates_pushed},
       {"optimizer.sorts_removed", os.sorts_removed},
       {"optimizer.plans_costed", os.plans_costed},
       {"optimizer.plans_rerouted", os.plans_rerouted},
       // Only whole operations: an estimated saving under one is not one.
       {"optimizer.est_ops_saved",
        os.estimated_ops_saved >= 1.0 ? std::llround(os.estimated_ops_saved)
                                      : 0}});
}

void SystemConversionReport::Add(PipelineOutcome outcome) {
  switch (outcome.classification) {
    case Convertibility::kAutomatic:
      ++automatic;
      break;
    case Convertibility::kNeedsAnalyst:
      ++needs_analyst;
      break;
    case Convertibility::kNotConvertible:
      ++refused;
      break;
  }
  if (outcome.accepted) ++accepted;
  outcomes.push_back(std::move(outcome));
}

std::string SystemConversionReport::ToText() const {
  std::string out;
  out += "=== application system conversion report ===\n";
  for (const PipelineOutcome& o : outcomes) {
    out += "program " + o.conversion.converted.name + ": " +
           ConvertibilityName(o.classification) +
           (o.accepted ? " (accepted)" : " (not converted)") + "\n";
    for (const AnalysisIssue& issue : o.conversion.analysis.issues) {
      out += "  issue: " + issue.ToString() + "\n";
    }
    for (const std::string& note : o.conversion.notes) {
      out += "  note: " + note + "\n";
    }
    for (const auto& [question, answer] : o.analyst_log) {
      out += std::string("  analyst ") + (answer ? "approved" : "rejected") +
             ": " + question + "\n";
    }
  }
  out += "summary: " + std::to_string(outcomes.size()) + " programs, " +
         std::to_string(automatic) + " automatic, " +
         std::to_string(needs_analyst) + " analyst, " +
         std::to_string(refused) + " refused; " +
         std::to_string(accepted) + " accepted -> system " +
         (fully_converted() ? "fully converted" : "NOT fully converted") +
         "\n";
  return out;
}

Result<SystemConversionReport> ConversionSupervisor::ConvertSystem(
    const std::vector<Program>& programs) const {
  SystemConversionReport report;
  for (const Program& program : programs) {
    DBPC_ASSIGN_OR_RETURN(PipelineOutcome outcome, ConvertProgram(program));
    report.Add(std::move(outcome));
  }
  return report;
}

Result<Database> ConversionSupervisor::TranslateDatabase(
    const Database& source) const {
  DBPC_ASSIGN_OR_RETURN(Database target, dbpc::TranslateDatabase(source, plan_));
  target.SetIndexOptions(options_.index);
  return target;
}

}  // namespace dbpc
