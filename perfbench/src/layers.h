#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

// In-process measurements: the uncached reference every daemon answer is
// checked against, the per-layer timings taken by calling each layer's
// public function from outside, and the migrate path's execute-and-compare
// step (paper section 1.1).

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "inputs.h"
#include "serve_io.h"
#include "util.h"

namespace perfbench {

/// The source schema and restructuring plan every workload converts under.
struct Conversion {
  dbpc::Schema schema;
  dbpc::RestructuringPlan plan;

  static Conversion Load(const std::string& ddl_path,
                         const std::string& plan_path);
};

/// Supervisor options as dbpcd sets them by default: an approve-all
/// analyst (assisted mode), no statistics, the optimizer on.
dbpc::SupervisorOptions DaemonLikeOptions();

/// An uncached, in-process supervisor configured like the daemon: the
/// reference for every answer the daemon gives.
class Reference {
 public:
  explicit Reference(const Conversion& conversion);
  /// The fingerprint the daemon's answer to `payload` must have.
  ResultPrint Print(const Payload& payload) const;

 private:
  dbpc::ConversionSupervisor supervisor_;
};

/// Checks every answered request of `phases` against the reference, on
/// `threads` threads. Returns the number of mismatching answers.
uint64_t VerifyAnswers(const std::vector<const PhaseResult*>& phases,
                       const PayloadFn& make, const Reference& reference,
                       int threads);

/// Per-layer results keyed by metric name (see README.md for units).
using LayerMetrics = std::map<std::string, double>;

/// An accepted conversion and the program it came from.
struct ConvertedProgram {
  dbpc::Program source;
  dbpc::Program converted;
  dbpc::Convertibility classification;
};

/// Times ParseProgram, ConversionService::Convert, a warm (cache-hit)
/// ConvertProgram and GenerateCplSource on `payloads`, and ConvertSystem
/// over them at `jobs` and at 1 worker. `service_options` configures the
/// in-process service like the workload's own converter. Records one span
/// per call. Returns the accepted conversions of the uncached pass, for the
/// data layers.
std::vector<ConvertedProgram> MeasureProgramLayers(
    const Conversion& conversion, const dbpc::ServiceOptions& service_options,
    const std::vector<Payload>& payloads, int jobs, SpanLog* spans,
    LayerMetrics* out, std::vector<double>* hit_us);

/// The translated target of a source database, and its statistics.
struct Translated {
  dbpc::Database target;
  dbpc::StatisticsCatalog catalog;
};

/// TranslateDatabase + StatisticsCatalog::Collect on `source`, then
/// RebuildIndexes on the result, each timed.
Translated MeasureTranslate(const Conversion& conversion,
                            const dbpc::Database& source, SpanLog* spans,
                            LayerMetrics* out);

/// RunSystem of the converted programs on `target`, timed, with the
/// engine's OpStats summed. With `compare`, also runs the source programs
/// the same way on a copy of `source` and returns the failed runs plus the
/// conversions whose traces differ (paper section 1.1); without it, only
/// the failed runs.
uint64_t MeasureRuns(const dbpc::Database& source, dbpc::Database* target,
                     const std::vector<ConvertedProgram>& programs,
                     bool compare, SpanLog* spans, LayerMetrics* out);

/// Automatic conversions whose trace differs from their source program's
/// (paper section 1.1); prints each.
uint64_t CountDifferences(const std::vector<ConvertedProgram>& programs,
                          const std::vector<uint64_t>& converted_traces,
                          const std::vector<uint64_t>& source_traces);

/// What running an application system's programs produced, in order.
struct SystemRun {
  std::vector<double> run_us;    ///< Interpreter::Run wall time per program
  std::vector<uint64_t> traces;  ///< trace fingerprint per program; 0 = error
  uint64_t steps = 0;
  uint64_t errors = 0;
  dbpc::OpStats ops;             ///< engine work summed over every run
};

/// Runs `programs` the way the migrated system is exercised: programs that
/// only read run on `db` itself, so each sees the freshly translated data;
/// programs that write (`writes[i]`) run in order on one working copy of
/// it. The copy is made before any run and is not timed.
SystemRun RunSystem(dbpc::Database* db,
                    const std::vector<const dbpc::Program*>& programs,
                    const std::vector<bool>& writes, SpanLog* spans);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
