#ifndef DBPC_SUPERVISOR_SUPERVISOR_H_
#define DBPC_SUPERVISOR_SUPERVISOR_H_

#include <functional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/span.h"
#include "common/timeline.h"
#include "convert/converter.h"
#include "convert/template_cache.h"
#include "engine/database.h"
#include "optimize/optimizer.h"

namespace dbpc {

class StatisticsCatalog;

/// The Conversion Analyst's decision procedure. The supervisor asks one
/// question per analyst-facing issue or note; returning true approves the
/// proposed handling, false rejects the conversion.
using AnalystPolicy = std::function<bool(const std::string& question)>;

/// An analyst that approves everything (assisted mode) / rejects everything
/// (strictly automatic mode).
AnalystPolicy ApproveAllAnalyst();
AnalystPolicy RejectAllAnalyst();

/// Whether the Conversion Analyst participates in the pipeline.
enum class AnalystMode {
  /// Assisted iff an analyst policy is set (the historical default).
  kAuto,
  /// Never consult the analyst; only kAutomatic conversions are accepted.
  kStrict,
  /// An analyst policy is required; Validate() rejects the options
  /// otherwise.
  kAssisted,
};

/// Supervisor configuration.
struct SupervisorOptions {
  bool run_optimizer = true;
  /// Statistics of the *translated* target database instance
  /// (optimize/stats.h). When set (and non-empty) the optimizer runs
  /// cost-based plan selection; otherwise the rule-based pass is the
  /// fallback. Must outlive the supervisor.
  const StatisticsCatalog* statistics = nullptr;
  AnalystMode mode = AnalystMode::kAuto;
  /// Null behaves like RejectAllAnalyst(): only kAutomatic conversions are
  /// accepted. When conversions run on several worker threads
  /// (service/service.h) the policy is invoked concurrently and must be
  /// thread-safe.
  AnalystPolicy analyst;
  /// Program Analyzer configuration (lifting ablation switch).
  AnalyzerOptions analyzer;
  /// Index configuration applied to databases produced by
  /// TranslateDatabase (engine/database.h). Defaults keep equality indexes
  /// on; disabling them is an ablation/debugging switch — results are
  /// identical either way, only access-path costs change.
  IndexOptions index;
  /// When set, the pipeline records per-stage latency histograms
  /// (stage.analyze_us / stage.convert_us / stage.optimize_us),
  /// classification counters (programs.*) and analyst/optimizer activity
  /// counters. The registry must outlive the supervisor.
  MetricsRegistry* metrics = nullptr;
  /// When set, every conversion emits a span tree (common/span.h): one
  /// root per ConvertProgram call with children for each Figure 4.1 stage
  /// (conversion_analyzer, program_analyzer, program_converter, optimizer)
  /// and per-transformation / per-rewrite-rule subspans carrying statement
  /// provenance. A caller that passes its own SpanContext to
  /// ConvertProgram (the conversion service does, to add the
  /// program_generator stage and a per-job sequence) owns the root
  /// instead. The collector must outlive the supervisor.
  SpanCollector* spans = nullptr;
  /// Template-level conversion memo (convert/template_cache.h). Null runs
  /// every program through the full pipeline (the rules-only / --no-cache
  /// fallback). The cache may be shared by any number of supervisors —
  /// schema pair, plan, options and statistics are all folded into the
  /// memo key — and must outlive them all. Conversions that consult the
  /// analyst are never memoized (policies are arbitrary functions), and
  /// traced conversions bypass the cache so span forests stay complete
  /// and honest.
  TemplateCache* cache = nullptr;

  /// Rejects nonsensical configurations with a structured error instead of
  /// letting the pipeline silently misbehave. Called at pipeline entry
  /// (ConversionSupervisor::Create).
  Status Validate() const;
};

/// Outcome of the full Figure 4.1 pipeline for one program.
struct PipelineOutcome {
  /// The analyzer/converter classification.
  Convertibility classification = Convertibility::kAutomatic;
  /// True when a converted program was produced (automatic, or every
  /// analyst question was approved).
  bool accepted = false;
  ConversionResult conversion;
  OptimizerStats optimizer_stats;
  /// Questions asked of the analyst and the answers given.
  std::vector<std::pair<std::string, bool>> analyst_log;
  /// True when this outcome was served from the conversion memo; the
  /// optimizer_stats (candidate costs included) were then enumerated when
  /// the entry was populated, not for this request — `dbpcc --explain`
  /// marks them accordingly (ExplainCacheLine).
  bool cache_hit = false;
  /// Hex memo key ("0x...."), set whenever the cache was consulted (hit
  /// or miss); empty when no cache was configured or tracing bypassed it.
  std::string cache_key;
};

/// The `cached` marker line `dbpcc --explain` prints for a memoized
/// outcome (empty string for a pipeline-computed one): candidate costs
/// shown below it were enumerated when the memo entry was populated, not
/// re-costed for this request.
std::string ExplainCacheLine(const PipelineOutcome& outcome);

/// Result of converting a whole application system (paper section 1.1:
/// "a database application system is converted when each program actually
/// existing in the source system has been converted").
struct SystemConversionReport {
  std::vector<PipelineOutcome> outcomes;
  int automatic = 0;
  int needs_analyst = 0;
  int refused = 0;
  int accepted = 0;

  bool fully_converted() const {
    return accepted == static_cast<int>(outcomes.size());
  }

  /// Appends one program's outcome and tallies its bucket.
  void Add(PipelineOutcome outcome);

  /// Analyst-facing text report: per-program classification, notes and
  /// questions, plus the summary line.
  std::string ToText() const;
};

/// The Program Conversion Supervisor (Figure 4.1): drives Conversion
/// Analyzer, Program Analyzer, Program Converter, Optimizer and Program
/// Generator over one schema restructuring, consulting the Conversion
/// Analyst where the pipeline cannot proceed automatically.
class ConversionSupervisor {
 public:
  /// Transformations must outlive the supervisor.
  static Result<ConversionSupervisor> Create(
      Schema source, std::vector<const Transformation*> plan,
      SupervisorOptions options = {});

  /// Converts one program through the full pipeline. With an enabled
  /// `span` the stage spans become its children; otherwise, when
  /// SupervisorOptions::spans is set, the call opens (and closes) its own
  /// root span in that collector. A non-null `timeline` receives the
  /// stage marks the stage.*_us histograms are recorded from.
  Result<PipelineOutcome> ConvertProgram(
      const Program& program, SpanContext span = {},
      RequestTimeline* timeline = nullptr) const;

  /// Converts every program of an application system and tallies the
  /// outcome buckets.
  Result<SystemConversionReport> ConvertSystem(
      const std::vector<Program>& programs) const;

  /// Translates a database instance along the same plan.
  Result<Database> TranslateDatabase(const Database& source) const;

  const Schema& source_schema() const { return converter_.source_schema(); }
  const Schema& target_schema() const { return converter_.target_schema(); }
  /// The Conversion Analyzer's classified schema changes.
  const std::vector<SchemaChange>& changes() const {
    return converter_.changes();
  }

 private:
  void RecordOutcomeMetrics(const PipelineOutcome& outcome) const;

  ConversionSupervisor(ProgramConverter converter,
                       std::vector<const Transformation*> plan,
                       SupervisorOptions options);

  ProgramConverter converter_;
  std::vector<const Transformation*> plan_;
  SupervisorOptions options_;
  /// Schema pair + plan + option switches, rendered once at Create; the
  /// statistics catalog's current text is appended per call (re-read every
  /// conversion, so mutating the catalog in place invalidates every prior
  /// entry).
  std::string cache_context_prefix_;
  /// Fingerprint64 of the prefix, precomputed at Create so the per-call
  /// key derivation only hashes the statistics text and the program.
  uint64_t cache_context_prefix_fp_ = 0;
};

}  // namespace dbpc

#endif  // DBPC_SUPERVISOR_SUPERVISOR_H_
