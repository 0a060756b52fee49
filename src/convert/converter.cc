#include "convert/converter.h"

#include "common/string_util.h"
#include "convert/provenance.h"
#include "restructure/rewrite_util.h"

namespace dbpc {

namespace {

std::string MembershipText(const SetDef& s) {
  return std::string(InsertionClassName(s.insertion)) + "/" +
         RetentionClassName(s.retention);
}

}  // namespace

std::vector<SchemaChange> ClassifySchemaChanges(const Schema& source,
                                                const Schema& target) {
  std::vector<SchemaChange> out;
  for (const RecordTypeDef& r : source.record_types()) {
    const RecordTypeDef* t = target.FindRecordType(r.name);
    if (t == nullptr) {
      out.push_back({"record-type-removed", r.name});
      continue;
    }
    for (const FieldDef& f : r.fields) {
      const FieldDef* tf = t->FindField(f.name);
      if (tf == nullptr) {
        out.push_back({"field-removed", r.name + "." + f.name});
      } else if (f.is_virtual != tf->is_virtual) {
        out.push_back({tf->is_virtual ? "field-virtualized"
                                      : "field-materialized",
                       r.name + "." + f.name});
      } else if (f.type != tf->type) {
        out.push_back({"field-retyped", r.name + "." + f.name});
      }
    }
    for (const FieldDef& tf : t->fields) {
      if (!r.HasField(tf.name)) {
        out.push_back({"field-added", r.name + "." + tf.name});
      }
    }
  }
  for (const RecordTypeDef& t : target.record_types()) {
    if (source.FindRecordType(t.name) == nullptr) {
      out.push_back({"record-type-added", t.name});
    }
  }
  for (const SetDef& s : source.sets()) {
    const SetDef* t = target.FindSet(s.name);
    if (t == nullptr) {
      out.push_back({"set-removed", s.name});
      continue;
    }
    if (!EqualsIgnoreCase(s.owner, t->owner) ||
        !EqualsIgnoreCase(s.member, t->member)) {
      out.push_back({"set-relinked", s.name + ": " + s.owner + "->" +
                                         s.member + " becomes " + t->owner +
                                         "->" + t->member});
    }
    if (s.keys != t->keys || s.ordering != t->ordering) {
      out.push_back({"set-order-changed", s.name});
    }
    if (s.insertion != t->insertion || s.retention != t->retention) {
      out.push_back({"set-membership-changed",
                     s.name + ": " + MembershipText(s) + " becomes " +
                         MembershipText(*t)});
    }
    if (s.member_characterizes_owner != t->member_characterizes_owner) {
      out.push_back({t->member_characterizes_owner ? "dependency-added"
                                                   : "dependency-removed",
                     s.name});
    }
  }
  for (const SetDef& t : target.sets()) {
    if (source.FindSet(t.name) == nullptr) {
      out.push_back({"set-added", t.name + " (" + t.owner + " -> " + t.member +
                                      ")"});
    }
  }
  for (const ConstraintDef& c : source.constraints()) {
    if (target.FindConstraint(c.name) == nullptr) {
      out.push_back({"constraint-removed", c.ToString()});
    }
  }
  for (const ConstraintDef& c : target.constraints()) {
    if (source.FindConstraint(c.name) == nullptr) {
      out.push_back({"constraint-added", c.ToString()});
    }
  }
  return out;
}

Result<ProgramConverter> ProgramConverter::Create(
    Schema source, std::vector<const Transformation*> plan,
    AnalyzerOptions analyzer_options) {
  DBPC_RETURN_IF_ERROR(source.Validate());
  std::vector<Schema> schemas;
  schemas.push_back(std::move(source));
  for (const Transformation* t : plan) {
    DBPC_ASSIGN_OR_RETURN(Schema next, t->ApplyToSchema(schemas.back()));
    schemas.push_back(std::move(next));
  }
  return ProgramConverter(std::move(schemas), std::move(plan),
                          analyzer_options);
}

Result<ConversionResult> ProgramConverter::Convert(
    const Program& source_program, SpanContext span,
    RequestTimeline* timeline) const {
  RequestTimeline own_timeline;
  if (timeline == nullptr) timeline = &own_timeline;
  ConversionResult result;
  SpanContext analyze_span = span.StartChild("program_analyzer");
  timeline->Stamp(Mark::kAnalyzeStart);
  ProgramAnalyzer analyzer(schemas_.front(), analyzer_options_);
  DBPC_ASSIGN_OR_RETURN(result.analysis, analyzer.Analyze(source_program));
  timeline->Stamp(Mark::kAnalyzed);
  result.analyze_micros =
      *timeline->Micros(Mark::kAnalyzeStart, Mark::kAnalyzed);
  analyze_span.SetAttribute("classification",
                            ConvertibilityName(result.analysis.convertibility));
  analyze_span.AddCounter("issues", result.analysis.issues.size());
  analyze_span.AddCounter("statements", source_program.StatementCount());
  analyze_span.End();
  result.outcome = result.analysis.convertibility;
  result.converted = result.analysis.lifted;
  if (result.outcome == Convertibility::kNotConvertible) {
    result.notes.push_back(
        "conversion refused: program behaviour varies at run time");
    // A refused program is not rewritten: its convert stage is empty.
    timeline->StampAt(Mark::kConverted, timeline->At(Mark::kAnalyzed));
    return result;
  }

  // Number the (lifted) source statements: the ids every later rewrite's
  // provenance refers back to.
  result.source_statements = StampSourceProvenance(
      &result.converted, "rewrite",
      result.converted == source_program ? "source" : "lift");

  // The analyzer names order-dependent sets as of the source schema; keep
  // the list current as plan steps rename or split sets so later steps can
  // still find theirs in it.
  SpanContext convert_span = span.StartChild("program_converter");
  std::vector<std::string> order_sets = result.analysis.order_dependent_sets;
  for (size_t i = 0; i < plan_.size(); ++i) {
    SpanContext step_span = convert_span.StartChild(plan_[i]->Name());
    if (step_span.enabled()) {
      step_span.SetAttribute("transformation", plan_[i]->Describe());
    }
    Program before = result.converted;
    Status s = plan_[i]->RewriteProgram(schemas_[i], schemas_[i + 1],
                                        order_sets, &result.converted,
                                        &result.notes);
    plan_[i]->MapSetNames(&order_sets);
    // Stamp regardless of the step's verdict: an analyst-level step may
    // still have rewritten statements the analyst will want mapped.
    std::vector<StampedRewrite> stamped = StampRewriteStep(
        before, &result.converted, "rewrite", plan_[i]->Name());
    step_span.AddCounter("rewrites", stamped.size());
    if (step_span.enabled()) {
      for (StampedRewrite& r : stamped) {
        SpanContext rewrite_span = step_span.StartChild("rewrite");
        rewrite_span.SetAttribute("rule", std::move(r.rule));
        rewrite_span.SetAttribute("src", std::to_string(r.source_stmt_id));
        rewrite_span.SetAttribute("stmt", std::move(r.head));
        rewrite_span.End();
      }
    }
    step_span.End();
    if (!s.ok()) {
      if (s.code() == StatusCode::kNeedsAnalyst) {
        result.notes.push_back("step '" + plan_[i]->Name() +
                               "' needs analyst review: " + s.message());
        if (result.outcome == Convertibility::kAutomatic) {
          result.outcome = Convertibility::kNeedsAnalyst;
        }
        continue;
      }
      convert_span.End();
      return s;
    }
  }
  convert_span.End();

  // Sanity: every retrieval must resolve against the target schema. A
  // failure here is a transformation-rule bug, not an input problem.
  Status resolve_status = Status::OK();
  rewrite::ForEachRetrievalMut(&result.converted, [&](Retrieval* r) {
    FindQuery probe = r->query;  // validate on a copy; keep steps unresolved
    Status s = ResolveFindQuery(target_schema(), &probe);
    if (!s.ok() && resolve_status.ok()) resolve_status = s;
  });
  if (!resolve_status.ok() && result.outcome == Convertibility::kAutomatic) {
    return Status::Internal("converted program does not fit target schema: " +
                            resolve_status.message());
  }
  timeline->Stamp(Mark::kConverted);
  result.convert_micros = *timeline->Micros(Mark::kAnalyzed, Mark::kConverted);
  return result;
}

}  // namespace dbpc
