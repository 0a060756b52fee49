#ifndef DBPC_CONVERT_CONVERTER_H_
#define DBPC_CONVERT_CONVERTER_H_

#include <string>
#include <vector>

#include "analyze/analyzer.h"
#include "common/span.h"
#include "common/timeline.h"
#include "lang/ast.h"
#include "restructure/transformation.h"
#include "schema/schema.h"

namespace dbpc {

/// One classified difference between two schemas (output of the Conversion
/// Analyzer of Figure 4.1). The restructuring *definition* is an input to
/// the framework; classification is what drives rule selection and what an
/// analyst reviews.
struct SchemaChange {
  std::string category;  ///< e.g. "record-type-added", "set-order-changed"
  std::string detail;

  std::string ToString() const { return category + ": " + detail; }
};

/// Diffs two schemas into classified changes. Renames and structural
/// reshapes appear as paired add/remove entries — recovering intent from a
/// diff alone is exactly why the framework takes an explicit restructuring
/// definition (transformation plan) as input.
std::vector<SchemaChange> ClassifySchemaChanges(const Schema& source,
                                                const Schema& target);

/// Output of one program conversion.
struct ConversionResult {
  /// The converted program (valid against the target schema) — meaningful
  /// when `outcome` is not kNotConvertible.
  Program converted;
  /// The analyzer's report on the source program.
  Analysis analysis;
  /// Notes accumulated by transformation rewrite rules for the analyst.
  RewriteNotes notes;
  /// Final classification: the analyzer's verdict tightened by any rewrite
  /// rule that required analyst intervention.
  Convertibility outcome = Convertibility::kAutomatic;
  /// Head text of every numbered source statement (index ==
  /// Provenance::source_stmt_id on the converted program's statements);
  /// empty when the conversion was refused before numbering. See
  /// convert/provenance.h.
  std::vector<std::string> source_statements;
  /// Wall time spent in the Program Analyzer / in rule rewriting: the
  /// timeline's kAnalyzeStart->kAnalyzed and kAnalyzed->kConverted spans
  /// (common/timeline.h). Zero on a template-cache hit.
  uint64_t analyze_micros = 0;
  uint64_t convert_micros = 0;
};

/// The Program Converter of Figure 4.1: selects and applies transformation
/// rules (owned by the plan's transformations) to map the source program
/// representation to the target program representation.
class ProgramConverter {
 public:
  /// `plan` transformations are applied in order; the converter computes
  /// the intermediate schemas. Transformations must outlive the converter.
  static Result<ProgramConverter> Create(
      Schema source, std::vector<const Transformation*> plan,
      AnalyzerOptions analyzer_options = {});

  /// Analyzes and converts one program. A non-OK status means the program
  /// or plan is malformed; inconvertibility is reported in the result.
  /// With an enabled `span`, emits Figure 4.1 stage spans
  /// (program_analyzer, program_converter) with per-transformation
  /// subspans and a per-rewrite-rule subspan for every statement a step
  /// produced or modified, provenance attached as attributes. A non-null
  /// `timeline` receives the kAnalyzeStart, kAnalyzed and kConverted marks.
  Result<ConversionResult> Convert(const Program& source_program,
                                   SpanContext span = {},
                                   RequestTimeline* timeline = nullptr) const;

  const Schema& source_schema() const { return schemas_.front(); }
  const Schema& target_schema() const { return schemas_.back(); }
  const std::vector<SchemaChange>& changes() const { return changes_; }

 private:
  ProgramConverter(std::vector<Schema> schemas,
                   std::vector<const Transformation*> plan,
                   AnalyzerOptions analyzer_options)
      : schemas_(std::move(schemas)),
        plan_(std::move(plan)),
        analyzer_options_(analyzer_options) {
    changes_ = ClassifySchemaChanges(schemas_.front(), schemas_.back());
  }

  /// source schema, then the schema after each plan step.
  std::vector<Schema> schemas_;
  std::vector<const Transformation*> plan_;
  AnalyzerOptions analyzer_options_;
  std::vector<SchemaChange> changes_;
};

}  // namespace dbpc

#endif  // DBPC_CONVERT_CONVERTER_H_
