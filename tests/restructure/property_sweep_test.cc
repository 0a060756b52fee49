// Property sweeps across the corpus and the transformation catalog:
//
//  P1  inverse translation: for every invertible plan, translating forward
//      and back reproduces the source database content exactly (Housel's
//      inverse-operator condition, paper section 2.2);
//  P2  strategy agreement: for every corpus program the pipeline accepts
//      automatically, the rewritten program, the DML-emulation layer and
//      the bridge all produce the source program's exact I/O trace;
//  P3  lower/lift: lowering an accepted Maryland program to navigational
//      templates and re-analyzing it preserves behaviour.

#include <gtest/gtest.h>

#include <string>

#include "bridge/bridge.h"
#include "corpus/corpus.h"
#include "emulate/emulator.h"
#include "equivalence/checker.h"
#include "generate/generator.h"
#include "lang/interpreter.h"
#include "restructure/plan_parser.h"
#include "supervisor/supervisor.h"
#include "testing/fixtures.h"

namespace dbpc {
namespace {

using testing::MakeCompanyDatabase;

/// Invertible plans, written in the plan language for good measure.
const char* const kInvertiblePlans[] = {
    R"(RESTRUCTURE PLAN RENAMES.
  RENAME RECORD EMP TO WORKER.
  RENAME FIELD AGE OF WORKER TO YEARS.
  RENAME SET DIV-EMP TO STAFF.
END PLAN.)",
    R"(RESTRUCTURE PLAN FIG44.
  INTRODUCE RECORD DEPT BETWEEN DIV-EMP GROUPING BY DEPT-NAME
      AS DIV-DEPT AND DEPT-EMP.
END PLAN.)",
    R"(RESTRUCTURE PLAN MATERIALIZE.
  MATERIALIZE FIELD DIV-NAME OF EMP.
END PLAN.)",
    R"(RESTRUCTURE PLAN REORDER.
  ORDER SET DIV-EMP BY (AGE, EMP-NAME).
END PLAN.)",
};

/// Canonical content fingerprint: type + sorted fields + owners, sorted.
std::string ContentFingerprint(const Database& db) {
  std::vector<std::string> lines;
  for (RecordId id : db.raw_store().AllRecords()) {
    const StoredRecord* rec = db.raw_store().Get(id);
    std::string line = rec->type + "{";
    for (const auto& [field, value] : rec->fields) {
      line += field + "=" + value.ToLiteral() + ";";
    }
    line += "}[";
    for (const SetDef& set : db.schema().sets()) {
      if (set.system_owned()) continue;
      RecordId owner = db.OwnerOf(set.name, id);
      if (owner == 0) continue;
      const StoredRecord* orec = db.raw_store().Get(owner);
      line += set.name + "->" + orec->type + "{";
      for (const auto& [field, value] : orec->fields) {
        line += field + "=" + value.ToLiteral() + ";";
      }
      line += "};";
    }
    line += "]";
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& l : lines) {
    out += l;
    out += "\n";
  }
  return out;
}

class InverseTranslationTest : public ::testing::TestWithParam<const char*> {};

TEST_P(InverseTranslationTest, ForwardThenBackwardIsIdentity) {
  RestructuringPlan plan = std::move(ParsePlan(GetParam())).value();
  Database source = MakeCompanyDatabase();

  // Forward.
  Result<Database> forward = TranslateDatabase(source, plan.View());
  ASSERT_TRUE(forward.ok()) << forward.status();
  // Backward: the inverse plan resolves schema-dependent inverses itself.
  Result<std::vector<TransformationPtr>> inverse_owned =
      InversePlan(source.schema(), plan.View());
  ASSERT_TRUE(inverse_owned.ok()) << inverse_owned.status();
  std::vector<const Transformation*> inverse_plan;
  for (const TransformationPtr& t : *inverse_owned) {
    inverse_plan.push_back(t.get());
  }
  Result<Database> round = TranslateDatabase(*forward, inverse_plan);
  ASSERT_TRUE(round.ok()) << round.status();
  EXPECT_EQ(round->schema().ToDdl(), source.schema().ToDdl());
  EXPECT_EQ(ContentFingerprint(*round), ContentFingerprint(source));
}

INSTANTIATE_TEST_SUITE_P(Plans, InverseTranslationTest,
                         ::testing::ValuesIn(kInvertiblePlans));

/// The classification each corpus shape is pinned to under the FIG44 plan,
/// so that a program slipping from automatic to analyst review fails the
/// sweep instead of silently leaving it.
Convertibility PinnedFig44Classification(CorpusShape shape) {
  switch (shape) {
    case CorpusShape::kNestedNavigational:  // inner loop follows DIV-EMP order
    case CorpusShape::kAmbiguousOwner:
    case CorpusShape::kStatusDependent:
    case CorpusShape::kEraseInScan:
      return Convertibility::kNeedsAnalyst;
    case CorpusShape::kRuntimeVariable:
      return Convertibility::kNotConvertible;
    default:
      return Convertibility::kAutomatic;
  }
}

class StrategyAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(StrategyAgreementTest, AllStrategiesMatchSourceTrace) {
  std::vector<CorpusProgram> corpus = GenerateCompanyCorpus(CorpusMix{}, 99);
  const CorpusProgram& entry = corpus[static_cast<size_t>(GetParam())];

  Database source = MakeCompanyDatabase();
  RestructuringPlan plan = std::move(ParsePlan(kInvertiblePlans[1])).value();

  ConversionSupervisor supervisor = *ConversionSupervisor::Create(
      source.schema(), plan.View(), SupervisorOptions{});
  PipelineOutcome outcome = *supervisor.ConvertProgram(entry.program);
  ASSERT_EQ(ConvertibilityName(outcome.classification),
            std::string(ConvertibilityName(PinnedFig44Classification(
                entry.shape))))
      << CorpusShapeName(entry.shape) << "\n" << entry.program.ToSource();
  if (outcome.classification != Convertibility::kAutomatic) {
    // With no analyst configured, nothing short of automatic is converted.
    EXPECT_FALSE(outcome.accepted);
    return;
  }
  ASSERT_TRUE(outcome.accepted);
  Database target = *supervisor.TranslateDatabase(source);

  IoScript script;
  script.terminal_input = {"FIND"};
  Trace source_trace = *TraceOf(source, entry.program, script);

  // Rewritten.
  Trace rewritten = *TraceOf(target, outcome.conversion.converted, script);
  EXPECT_EQ(rewritten, source_trace)
      << CorpusShapeName(entry.shape) << " rewritten\n"
      << entry.program.ToSource();
  // Emulation.
  {
    DmlEmulator emulator =
        *DmlEmulator::Create(source.schema(), plan.View());
    Database db = target;
    DmlEmulator::EmulationRun run = *emulator.Run(entry.program, &db, script);
    EXPECT_EQ(run.run.trace, source_trace)
        << CorpusShapeName(entry.shape) << " emulation";
  }
  // Bridge.
  {
    BridgeRunner bridge =
        std::move(BridgeRunner::Create(source.schema(), plan.View())).value();
    Database db = target;
    BridgeRunner::BridgeRun run =
        *bridge.Run(entry.program, &db, script, {.differential = true});
    EXPECT_EQ(run.run.trace, source_trace)
        << CorpusShapeName(entry.shape) << " bridge";
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, StrategyAgreementTest,
                         ::testing::Range(0, CorpusMix{}.Total()));

class LowerLiftSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(LowerLiftSweepTest, LoweredProgramsBehaveIdentically) {
  std::vector<CorpusProgram> corpus = GenerateCompanyCorpus(CorpusMix{}, 123);
  const CorpusProgram& entry = corpus[static_cast<size_t>(GetParam())];
  Database db = MakeCompanyDatabase();
  Result<LoweringResult> lowered =
      LowerToNavigational(db.schema(), entry.program);
  ASSERT_TRUE(lowered.ok()) << lowered.status();
  IoScript script;
  script.terminal_input = {"FIND"};
  EquivalenceReport report = *CheckEquivalence(
      db, entry.program, db, lowered->program, script);
  EXPECT_TRUE(report.equivalent)
      << CorpusShapeName(entry.shape) << "\n"
      << report.detail << "\noriginal:\n"
      << entry.program.ToSource() << "\nlowered:\n"
      << lowered->program.ToSource();
}

INSTANTIATE_TEST_SUITE_P(Corpus, LowerLiftSweepTest,
                         ::testing::Range(0, CorpusMix{}.Total()));

TEST(SystemConversionTest, ReportTalliesBuckets) {
  Database source = MakeCompanyDatabase();
  RestructuringPlan plan = std::move(ParsePlan(kInvertiblePlans[0])).value();
  SupervisorOptions options;
  options.analyst = ApproveAllAnalyst();
  ConversionSupervisor supervisor = *ConversionSupervisor::Create(
      source.schema(), plan.View(), options);
  std::vector<Program> programs;
  for (const CorpusProgram& entry : GenerateCompanyCorpus(CorpusMix{}, 7)) {
    programs.push_back(entry.program);
  }
  SystemConversionReport report = *supervisor.ConvertSystem(programs);
  EXPECT_EQ(report.outcomes.size(), programs.size());
  EXPECT_EQ(report.automatic + report.needs_analyst + report.refused,
            static_cast<int>(programs.size()));
  EXPECT_GT(report.automatic, 0);
  EXPECT_GT(report.refused, 0);
  EXPECT_FALSE(report.fully_converted());  // run-time-variable shape refused
  std::string text = report.ToText();
  EXPECT_NE(text.find("summary:"), std::string::npos);
  EXPECT_NE(text.find("NOT fully converted"), std::string::npos);
}

}  // namespace
}  // namespace dbpc
