#include "convert/provenance.h"

#include <gtest/gtest.h>

#include "convert/converter.h"
#include "lang/parser.h"
#include "testing/fixtures.h"

namespace dbpc {
namespace {

using testing::Figure44Plan;

constexpr const char* kSalesReport = R"(
PROGRAM SALES-RPT.
  FOR EACH CUR-1 IN FIND(EMP: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'MACHINERY'),
                         DIV-EMP, EMP(DEPT-NAME = 'SALES')) DO
    GET EMP-NAME OF CUR-1 INTO N.
    WRITE REPORT FROM N.
  END-FOR.
END PROGRAM.)";

TEST(ProvenanceTest, StmtHeadTextElidesNestedBlocks) {
  Program p = *ParseProgram(kSalesReport);
  ASSERT_EQ(p.body.size(), 1u);
  std::string head = StmtHeadText(p.body[0]);
  EXPECT_NE(head.find("FOR EACH CUR-1"), std::string::npos) << head;
  EXPECT_EQ(head.find("GET EMP-NAME"), std::string::npos) << head;
  EXPECT_EQ(head.find('\n'), std::string::npos) << head;
}

TEST(ProvenanceTest, ProvenanceNeverAffectsStatementEquality) {
  Program a = *ParseProgram(kSalesReport);
  Program b = *ParseProgram(kSalesReport);
  StampSourceProvenance(&a, "rewrite", "source");
  EXPECT_EQ(a, b);  // provenance is observation-invisible
  EXPECT_EQ(a.body[0], b.body[0]);
  ASSERT_TRUE(a.body[0].prov.has_value());
  EXPECT_FALSE(b.body[0].prov.has_value());
}

TEST(ProvenanceTest, StampSourceNumbersStatementsPreOrder) {
  Program p = *ParseProgram(kSalesReport);
  std::vector<std::string> heads = StampSourceProvenance(&p, "rewrite", "source");
  ASSERT_EQ(heads.size(), 3u);  // FOR-EACH, GET, WRITE
  EXPECT_EQ(p.body[0].prov->source_stmt_id, 0);
  EXPECT_EQ(p.body[0].body[0].prov->source_stmt_id, 1);
  EXPECT_EQ(p.body[0].body[1].prov->source_stmt_id, 2);
  EXPECT_EQ(p.body[0].prov->rule, "source");
  EXPECT_EQ(UnstampedCount(p), 0u);
}

TEST(ProvenanceTest, StampRewriteStepKeepsCarriedStatementsAndTagsNewOnes) {
  Program before = *ParseProgram(kSalesReport);
  StampSourceProvenance(&before, "rewrite", "source");
  Program after = before;
  // Simulate a rewrite: a new DISPLAY appended after the FOR-EACH.
  Program extra = *ParseProgram(R"(
PROGRAM X.
  DISPLAY 'DONE'.
END PROGRAM.)");
  after.body.push_back(extra.body[0]);
  std::vector<StampedRewrite> stamped =
      StampRewriteStep(before, &after, "rewrite", "append-display");
  ASSERT_EQ(stamped.size(), 1u);
  EXPECT_EQ(stamped[0].rule, "append-display");
  // The new statement inherits the id of the nearest preceding stamped
  // statement (the WRITE, pre-order id 2).
  EXPECT_EQ(stamped[0].source_stmt_id, 2);
  // Carried statements keep their original stamps.
  EXPECT_EQ(after.body[0].prov->rule, "source");
  EXPECT_EQ(UnstampedCount(after), 0u);
}

TEST(ProvenanceTest, RestampStrategyRelabelsWithoutTouchingIds) {
  Program p = *ParseProgram(kSalesReport);
  StampSourceProvenance(&p, "rewrite", "source");
  RestampStrategy(&p, "emulation");
  EXPECT_EQ(p.body[0].prov->strategy, "emulation");
  EXPECT_EQ(p.body[0].prov->rule, "source");
  EXPECT_EQ(p.body[0].prov->source_stmt_id, 0);
}

TEST(ProvenanceTest, ConverterStampsEveryEmittedStatement) {
  Schema schema = testing::MakeDatabase(testing::CompanyDdl()).schema();
  RestructuringPlan plan = Figure44Plan();
  ProgramConverter converter =
      *ProgramConverter::Create(schema, plan.View());
  ConversionResult result = *converter.Convert(*ParseProgram(kSalesReport));
  ASSERT_EQ(result.outcome, Convertibility::kAutomatic);
  EXPECT_EQ(UnstampedCount(result.converted), 0u);
  ASSERT_FALSE(result.source_statements.empty());
  // The FIND was respliced through the introduced DEPT record: its
  // statement must be stamped by the plan step, not left as "source".
  ASSERT_TRUE(result.converted.body[0].prov.has_value());
  EXPECT_EQ(result.converted.body[0].prov->strategy, "rewrite");
  EXPECT_EQ(result.converted.body[0].prov->rule, "introduce-intermediate");
  EXPECT_EQ(result.converted.body[0].prov->source_stmt_id, 0);
}

TEST(ProvenanceTest, ListingMapsEveryStatementToItsSource) {
  Schema schema = testing::MakeDatabase(testing::CompanyDdl()).schema();
  RestructuringPlan plan = Figure44Plan();
  ProgramConverter converter =
      *ProgramConverter::Create(schema, plan.View());
  ConversionResult result = *converter.Convert(*ParseProgram(kSalesReport));
  std::string listing = ProvenanceListing(
      result.converted.name, result.source_statements, result.converted);
  EXPECT_NE(listing.find("== provenance for program SALES-RPT =="),
            std::string::npos)
      << listing;
  EXPECT_EQ(listing.find("UNSTAMPED"), std::string::npos) << listing;
  EXPECT_NE(listing.find("introduce-intermediate"), std::string::npos)
      << listing;
}

}  // namespace
}  // namespace dbpc
