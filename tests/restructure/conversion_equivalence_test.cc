// The framework's central property (paper section 1.1): whenever the
// pipeline accepts a program, the converted program running against the
// restructured database preserves the original's input/output behaviour.
// This suite sweeps (program shape x transformation) pairs.

#include <gtest/gtest.h>

#include <string>

#include "corpus/corpus.h"
#include "equivalence/checker.h"
#include "lang/parser.h"
#include "restructure/transformation.h"
#include "supervisor/supervisor.h"
#include "testing/fixtures.h"

namespace dbpc {
namespace {

using testing::MakeCompanyDatabase;

/// Named transformation plans over the COMPANY schema.
struct PlanCase {
  const char* name;
  std::vector<TransformationPtr> (*make)();
  /// True when the plan replaces DIV-EMP's member order with one that no
  /// SORT over the restructured path can give back.
  bool loses_div_emp_order;
};

std::vector<TransformationPtr> RenameEverything() {
  std::vector<TransformationPtr> plan;
  plan.push_back(MakeRenameRecord("EMP", "WORKER"));
  plan.push_back(MakeRenameField("WORKER", "AGE", "YEARS"));
  plan.push_back(MakeRenameSet("DIV-EMP", "STAFF"));
  return plan;
}

std::vector<TransformationPtr> Figure44() {
  IntroduceIntermediateParams p;
  p.set_name = "DIV-EMP";
  p.intermediate = "DEPT";
  p.upper_set = "DIV-DEPT";
  p.lower_set = "DEPT-EMP";
  p.group_field = "DEPT-NAME";
  std::vector<TransformationPtr> plan;
  plan.push_back(MakeIntroduceIntermediate(p));
  return plan;
}

std::vector<TransformationPtr> ReorderByAge() {
  std::vector<TransformationPtr> plan;
  plan.push_back(MakeChangeSetOrder("DIV-EMP", {"AGE", "EMP-NAME"}));
  return plan;
}

std::vector<TransformationPtr> MaterializeDivName() {
  std::vector<TransformationPtr> plan;
  plan.push_back(MakeMaterializeVirtualField("EMP", "DIV-NAME"));
  return plan;
}

std::vector<TransformationPtr> AddAuditField() {
  FieldDef f;
  f.name = "AUDIT-FLAG";
  f.type = FieldType::kString;
  f.pic_width = 1;
  f.default_value = Value::String("N");
  std::vector<TransformationPtr> plan;
  plan.push_back(MakeAddField("EMP", f));
  return plan;
}

std::vector<TransformationPtr> Fig44ThenRename() {
  std::vector<TransformationPtr> plan = Figure44();
  plan.push_back(MakeRenameField("EMP", "EMP-NAME", "FULL-NAME"));
  return plan;
}

const PlanCase kPlans[] = {
    {"renames", &RenameEverything, false},
    {"figure-4-4", &Figure44, true},
    {"reorder-by-age", &ReorderByAge, true},
    {"materialize-div-name", &MaterializeDivName, false},
    {"add-audit-field", &AddAuditField, false},
    {"figure-4-4-then-rename", &Fig44ThenRename, true},
};

/// The classification every (plan, shape) pair is pinned to, so that a
/// program slipping from automatic to analyst review fails the sweep
/// instead of silently leaving the equivalence property.
Convertibility PinnedClassification(const PlanCase& plan, CorpusShape shape) {
  switch (shape) {
    case CorpusShape::kAmbiguousOwner:
    case CorpusShape::kStatusDependent:
    case CorpusShape::kEraseInScan:
      return Convertibility::kNeedsAnalyst;
    case CorpusShape::kRuntimeVariable:
      return Convertibility::kNotConvertible;
    case CorpusShape::kNestedNavigational:
      // The inner loop's output follows DIV-EMP's member order.
      return plan.loses_div_emp_order ? Convertibility::kNeedsAnalyst
                                      : Convertibility::kAutomatic;
    default:
      return Convertibility::kAutomatic;
  }
}

class ConversionEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<const PlanCase*, int>> {};

TEST_P(ConversionEquivalenceTest, AcceptedProgramsRunEquivalently) {
  const PlanCase* plan_case = std::get<0>(GetParam());
  int program_index = std::get<1>(GetParam());

  std::vector<CorpusProgram> corpus = GenerateCompanyCorpus(CorpusMix{}, 42);
  ASSERT_LT(program_index, static_cast<int>(corpus.size()));
  const CorpusProgram& entry = corpus[static_cast<size_t>(program_index)];

  Database source_db = MakeCompanyDatabase();
  std::vector<TransformationPtr> owned = plan_case->make();
  std::vector<const Transformation*> plan;
  for (const TransformationPtr& t : owned) plan.push_back(t.get());

  SupervisorOptions options;
  options.analyst = ApproveAllAnalyst();
  Result<ConversionSupervisor> supervisor =
      ConversionSupervisor::Create(source_db.schema(), plan, options);
  ASSERT_TRUE(supervisor.ok()) << supervisor.status();

  Result<PipelineOutcome> outcome =
      supervisor->ConvertProgram(entry.program);
  ASSERT_TRUE(outcome.ok()) << outcome.status() << "\nprogram:\n"
                            << entry.program.ToSource();
  Convertibility pinned = PinnedClassification(*plan_case, entry.shape);
  ASSERT_EQ(ConvertibilityName(outcome->classification),
            std::string(ConvertibilityName(pinned)))
      << "plan: " << plan_case->name
      << "\nshape: " << CorpusShapeName(entry.shape) << "\nprogram:\n"
      << entry.program.ToSource();
  if (pinned != Convertibility::kAutomatic) {
    // Analyst-approved or refused conversions do not promise strict
    // equivalence; the property below only covers kAutomatic. A program
    // needing review was put to the approving analyst and accepted; a
    // refused one was not converted.
    bool needs_analyst = pinned == Convertibility::kNeedsAnalyst;
    EXPECT_EQ(outcome->accepted, needs_analyst);
    EXPECT_EQ(!outcome->analyst_log.empty(), needs_analyst);
    return;
  }
  ASSERT_TRUE(outcome->accepted);

  Result<Database> target_db = supervisor->TranslateDatabase(source_db);
  ASSERT_TRUE(target_db.ok()) << target_db.status();

  IoScript script;
  script.terminal_input = {"FIND", "MACHINERY"};
  Result<EquivalenceReport> report =
      CheckEquivalence(source_db, entry.program, *target_db,
                       outcome->conversion.converted, script);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->equivalent)
      << "plan: " << plan_case->name << "\nshape: "
      << CorpusShapeName(entry.shape) << "\n"
      << report->detail << "\noriginal:\n"
      << entry.program.ToSource() << "\nconverted:\n"
      << outcome->conversion.converted.ToSource() << "\nsource trace:\n"
      << report->source_trace.ToString() << "\ntarget trace:\n"
      << report->target_trace.ToString();
}

std::string CaseName(
    const ::testing::TestParamInfo<std::tuple<const PlanCase*, int>>& info) {
  std::string name = std::get<0>(info.param)->name;
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_p" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    PlansTimesPrograms, ConversionEquivalenceTest,
    ::testing::Combine(::testing::Values(&kPlans[0], &kPlans[1], &kPlans[2],
                                         &kPlans[3], &kPlans[4], &kPlans[5]),
                       ::testing::Range(0, CorpusMix{}.Total())),
    CaseName);

// Focused end-to-end check of the paper's own Figure 4.2 -> 4.4 example:
// the two FIND statements of section 4.2 convert into the forms the paper
// shows (a SORT-wrapped spliced path, and a pushed-down DEPT
// qualification after optimization).
TEST(Figure44ConversionTest, PaperFindStatementsConvertAsPublished) {
  Database source_db = MakeCompanyDatabase();
  std::vector<TransformationPtr> owned = Figure44();
  std::vector<const Transformation*> plan{owned[0].get()};

  Program program = *ParseProgram(R"(
PROGRAM FIG42.
  FOR EACH E IN FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 30)) DO
    GET EMP-NAME OF E INTO N.
    DISPLAY N.
  END-FOR.
  FOR EACH E IN FIND(EMP: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'MACHINERY'),
      DIV-EMP, EMP(DEPT-NAME = 'SALES')) DO
    GET EMP-NAME OF E INTO N.
    DISPLAY N.
  END-FOR.
END PROGRAM.)");

  SupervisorOptions options;
  options.analyst = ApproveAllAnalyst();
  ConversionSupervisor supervisor =
      *ConversionSupervisor::Create(source_db.schema(), plan, options);
  PipelineOutcome outcome = *supervisor.ConvertProgram(program);
  ASSERT_TRUE(outcome.accepted);
  ASSERT_EQ(outcome.classification, Convertibility::kAutomatic);

  const Stmt& first = outcome.conversion.converted.body[0];
  const Stmt& second = outcome.conversion.converted.body[1];
  // First query: spliced path, SORT to preserve the old DIV-EMP ordering.
  // The paper's Figure 4.4 writes SORT(FIND(...)) ON (EMP-NAME) — an
  // order *within* each division. This engine's SORT is a global stable
  // sort over the flattened result, so the compensation must also restate
  // the enclosing ALL-DIV order (DIV-NAME) or employees of different
  // divisions would interleave.
  EXPECT_EQ(first.retrieval->ToString(),
            "SORT(FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-DEPT, DEPT, DEPT-EMP, "
            "EMP(AGE > 30))) ON (DIV-NAME, EMP-NAME)");
  // Second query: the optimizer pushed DEPT-NAME onto the DEPT step, as in
  // the paper's hand-converted FIND.
  EXPECT_EQ(second.retrieval->ToString(),
            "FIND(EMP: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'MACHINERY'), "
            "DIV-DEPT, DEPT(DEPT-NAME = 'SALES'), DEPT-EMP, EMP)");

  // And it all actually runs equivalently.
  Database target_db = *supervisor.TranslateDatabase(source_db);
  EquivalenceReport report =
      *CheckEquivalence(source_db, program, target_db,
                        outcome.conversion.converted, IoScript());
  EXPECT_TRUE(report.equivalent) << report.detail;
}

// Su's dependency example (section 4.1): after dropping the dependency the
// converted program must delete dependents explicitly.
TEST(DependencyMigrationTest, DeleteGainsExplicitMemberLoop) {
  // Build a COMPANY variant where DIV-EMP members characterize DIV.
  Schema schema = MakeCompanyDatabase().schema();
  schema.FindSet("DIV-EMP")->member_characterizes_owner = true;
  Database source_db = *Database::Create(schema);
  RecordId m = *source_db.StoreRecord(
      {"DIV", {{"DIV-NAME", Value::String("MACHINERY")}}, {}});
  (void)*source_db.StoreRecord(
      {"EMP", {{"EMP-NAME", Value::String("ADAMS")}}, {{"DIV-EMP", m}}});
  (void)*source_db.StoreRecord(
      {"EMP", {{"EMP-NAME", Value::String("BAKER")}}, {{"DIV-EMP", m}}});

  Program program = *ParseProgram(R"(
PROGRAM KILLDIV.
  FOR EACH D IN FIND(DIV: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'MACHINERY')) DO
    DELETE D.
  END-FOR.
  DISPLAY 'GONE'.
END PROGRAM.)");

  TransformationPtr drop = MakeDropDependency("DIV-EMP");
  SupervisorOptions options;
  ConversionSupervisor supervisor =
      *ConversionSupervisor::Create(source_db.schema(), {drop.get()}, options);
  PipelineOutcome outcome = *supervisor.ConvertProgram(program);
  ASSERT_TRUE(outcome.accepted) << ConvertibilityName(outcome.classification);

  // The converted DELETE is preceded by an explicit member-deletion loop.
  const Stmt& loop = outcome.conversion.converted.body[0];
  ASSERT_EQ(loop.body.size(), 2u) << outcome.conversion.converted.ToSource();
  EXPECT_EQ(loop.body[0].kind, StmtKind::kForEach);
  EXPECT_EQ(loop.body[0].body[0].kind, StmtKind::kDelete);
  EXPECT_EQ(loop.body[1].kind, StmtKind::kDelete);

  Database target_db = *supervisor.TranslateDatabase(source_db);
  EquivalenceReport report = *CheckEquivalence(
      source_db, program, target_db, outcome.conversion.converted, IoScript());
  EXPECT_TRUE(report.equivalent)
      << report.detail << "\n"
      << outcome.conversion.converted.ToSource();
}

}  // namespace
}  // namespace dbpc
