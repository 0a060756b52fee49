#include "engine/database.h"

#include <memory>

#include <gtest/gtest.h>

#include "testing/fixtures.h"

namespace dbpc {
namespace {

using testing::MakeCompanyDatabase;
using testing::MakeDatabase;
using testing::MakeSchoolDatabase;

TEST(DatabaseTest, StoreAndReadBack) {
  Database db = MakeDatabase(testing::CompanyDdl());
  Result<RecordId> div = db.StoreRecord(
      {"DIV",
       {{"DIV-NAME", Value::String("M")}, {"DIV-LOC", Value::String("E")}},
       {}});
  ASSERT_TRUE(div.ok()) << div.status();
  Result<Value> name = db.GetField(*div, "DIV-NAME");
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(name->as_string(), "M");
}

TEST(DatabaseTest, UnknownFieldRejected) {
  Database db = MakeDatabase(testing::CompanyDdl());
  Result<RecordId> r = db.StoreRecord(
      {"DIV", {{"NO-SUCH", Value::String("X")}}, {}});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(DatabaseTest, StoringVirtualFieldRejected) {
  Database db = MakeCompanyDatabase();
  RecordId div = db.AllOfType("DIV")[0];
  Result<RecordId> r = db.StoreRecord(
      {"EMP",
       {{"EMP-NAME", Value::String("X")}, {"DIV-NAME", Value::String("M")}},
       {{"DIV-EMP", div}}});
  EXPECT_FALSE(r.ok());
}

TEST(DatabaseTest, FieldTypeCoercedOnStore) {
  Database db = MakeCompanyDatabase();
  RecordId div = db.AllOfType("DIV")[0];
  // AGE is PIC 9; a digit string coerces.
  Result<RecordId> id = db.StoreRecord({"EMP",
                                        {{"EMP-NAME", Value::String("X")},
                                         {"AGE", Value::String("27")}},
                                        {{"DIV-EMP", div}}});
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_EQ(db.GetField(*id, "AGE")->as_int(), 27);
}

TEST(DatabaseTest, AutomaticSetRequiresOwner) {
  Database db = MakeDatabase(testing::CompanyDdl());
  Result<RecordId> r =
      db.StoreRecord({"EMP", {{"EMP-NAME", Value::String("X")}}, {}});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kConstraintViolation);
}

TEST(DatabaseTest, SystemSetMembershipIsImplicit) {
  Database db = MakeCompanyDatabase();
  EXPECT_EQ(db.SystemMembers("ALL-DIV").size(), 2u);
}

TEST(DatabaseTest, SortedSetOrdersMembersByKey) {
  Database db = MakeCompanyDatabase();
  // ALL-DIV sorted by DIV-NAME: MACHINERY < TEXTILES.
  std::vector<RecordId> divs = db.SystemMembers("ALL-DIV");
  ASSERT_EQ(divs.size(), 2u);
  EXPECT_EQ(db.GetField(divs[0], "DIV-NAME")->as_string(), "MACHINERY");
  EXPECT_EQ(db.GetField(divs[1], "DIV-NAME")->as_string(), "TEXTILES");
  // DIV-EMP sorted by EMP-NAME within MACHINERY: ADAMS, BAKER, CLARK.
  std::vector<RecordId> emps = db.Members("DIV-EMP", divs[0]);
  ASSERT_EQ(emps.size(), 3u);
  EXPECT_EQ(db.GetField(emps[0], "EMP-NAME")->as_string(), "ADAMS");
  EXPECT_EQ(db.GetField(emps[2], "EMP-NAME")->as_string(), "CLARK");
}

TEST(DatabaseTest, DuplicateSetKeyWithinOccurrenceRejected) {
  Database db = MakeCompanyDatabase();
  RecordId machinery = db.SystemMembers("ALL-DIV")[0];
  Result<RecordId> dup = db.StoreRecord(
      {"EMP", {{"EMP-NAME", Value::String("ADAMS")}}, {{"DIV-EMP", machinery}}});
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kConstraintViolation);
  // The same key in a *different* occurrence is fine.
  RecordId textiles = db.SystemMembers("ALL-DIV")[1];
  EXPECT_TRUE(db.StoreRecord({"EMP",
                              {{"EMP-NAME", Value::String("ADAMS")}},
                              {{"DIV-EMP", textiles}}})
                  .ok());
}

TEST(DatabaseTest, VirtualFieldResolvesThroughSet) {
  Database db = MakeCompanyDatabase();
  RecordId machinery = db.SystemMembers("ALL-DIV")[0];
  RecordId adams = db.Members("DIV-EMP", machinery)[0];
  Result<Value> div_name = db.GetField(adams, "DIV-NAME");
  ASSERT_TRUE(div_name.ok());
  EXPECT_EQ(div_name->as_string(), "MACHINERY");
}

TEST(DatabaseTest, ChainedVirtualFieldResolves) {
  Database db = MakeDatabase(testing::CompanyRevisedDdl());
  RecordId div = *db.StoreRecord(
      {"DIV", {{"DIV-NAME", Value::String("MACHINERY")}}, {}});
  RecordId dept = *db.StoreRecord(
      {"DEPT", {{"DEPT-NAME", Value::String("SALES")}}, {{"DIV-DEPT", div}}});
  RecordId emp = *db.StoreRecord(
      {"EMP", {{"EMP-NAME", Value::String("ADAMS")}}, {{"DEPT-EMP", dept}}});
  EXPECT_EQ(db.GetField(emp, "DEPT-NAME")->as_string(), "SALES");
  EXPECT_EQ(db.GetField(emp, "DIV-NAME")->as_string(), "MACHINERY");
}

TEST(DatabaseTest, VirtualFieldNullWhenUnconnected) {
  Database db = MakeDatabase(testing::CompanyDdl());
  // Make DIV-EMP manual so an EMP can exist unconnected.
  Schema schema = db.schema();
  schema.FindSet("DIV-EMP")->insertion = InsertionClass::kManual;
  schema.FindSet("DIV-EMP")->retention = RetentionClass::kOptional;
  Database db2 = *Database::Create(schema);
  RecordId emp =
      *db2.StoreRecord({"EMP", {{"EMP-NAME", Value::String("X")}}, {}});
  EXPECT_TRUE(db2.GetField(emp, "DIV-NAME")->is_null());
}

TEST(DatabaseTest, EraseOwnerWithMandatoryMembersBlocked) {
  Database db = MakeCompanyDatabase();
  RecordId machinery = db.SystemMembers("ALL-DIV")[0];
  Status s = db.EraseRecord(machinery);
  EXPECT_EQ(s.code(), StatusCode::kConstraintViolation);
}

TEST(DatabaseTest, EraseCascadesToCharacterizingMembers) {
  Database db = MakeSchoolDatabase();
  std::vector<RecordId> courses = db.SystemMembers("ALL-COURSE");
  RecordId cs101 = courses[0];
  size_t before = db.AllOfType("OFFERING").size();
  ASSERT_EQ(before, 3u);
  ASSERT_TRUE(db.EraseRecord(cs101).ok());
  EXPECT_EQ(db.AllOfType("OFFERING").size(), 1u);  // CS101 had two offerings
  EXPECT_EQ(db.AllOfType("COURSE").size(), 1u);
}

TEST(DatabaseTest, EraseDisconnectsOptionalMembers) {
  Schema schema = MakeDatabase(testing::CompanyDdl()).schema();
  schema.FindSet("DIV-EMP")->retention = RetentionClass::kOptional;
  Database db = *Database::Create(schema);
  RecordId div =
      *db.StoreRecord({"DIV", {{"DIV-NAME", Value::String("M")}}, {}});
  RecordId emp = *db.StoreRecord(
      {"EMP", {{"EMP-NAME", Value::String("X")}}, {{"DIV-EMP", div}}});
  ASSERT_TRUE(db.EraseRecord(div).ok());
  EXPECT_TRUE(db.Exists(emp));
  EXPECT_EQ(db.OwnerOf("DIV-EMP", emp), 0u);
}

TEST(DatabaseTest, ModifyUpdatesFieldAndResorts) {
  Database db = MakeCompanyDatabase();
  RecordId machinery = db.SystemMembers("ALL-DIV")[0];
  std::vector<RecordId> emps = db.Members("DIV-EMP", machinery);
  RecordId adams = emps[0];
  // Rename ADAMS to ZEBRA: must move to the end of the sorted occurrence.
  ASSERT_TRUE(
      db.ModifyRecord(adams, {{"EMP-NAME", Value::String("ZEBRA")}}).ok());
  std::vector<RecordId> after = db.Members("DIV-EMP", machinery);
  EXPECT_EQ(after.back(), adams);
}

TEST(DatabaseTest, ModifyToDuplicateSetKeyRejected) {
  Database db = MakeCompanyDatabase();
  RecordId machinery = db.SystemMembers("ALL-DIV")[0];
  std::vector<RecordId> emps = db.Members("DIV-EMP", machinery);
  Status s = db.ModifyRecord(emps[0], {{"EMP-NAME", Value::String("BAKER")}});
  EXPECT_EQ(s.code(), StatusCode::kConstraintViolation);
}

TEST(DatabaseTest, CardinalityLimitEnforced) {
  Database db = MakeSchoolDatabase();
  RecordId cs101 = db.SystemMembers("ALL-COURSE")[0];
  RecordId s79 = db.SystemMembers("ALL-SEM")[1];
  // CS101 already offered once in 1979; a second 1979 offering is fine...
  Result<RecordId> second = db.StoreRecord(
      {"OFFERING",
       {{"SECTION-NO", Value::Int(2)}, {"YEAR", Value::Int(1979)}},
       {{"CRS-OFF", cs101}, {"SEM-OFF", s79}}});
  ASSERT_TRUE(second.ok()) << second.status();
  // ...but a third violates the twice-per-year rule.
  Result<RecordId> third = db.StoreRecord(
      {"OFFERING",
       {{"SECTION-NO", Value::Int(3)}, {"YEAR", Value::Int(1979)}},
       {{"CRS-OFF", cs101}, {"SEM-OFF", s79}}});
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kConstraintViolation);
  // A different year is unaffected.
  RecordId f78 = db.SystemMembers("ALL-SEM")[0];
  EXPECT_TRUE(db.StoreRecord({"OFFERING",
                              {{"SECTION-NO", Value::Int(9)},
                               {"YEAR", Value::Int(1980)}},
                              {{"CRS-OFF", cs101}, {"SEM-OFF", f78}}})
                  .ok());
}

TEST(DatabaseTest, UniquenessConstraintEnforced) {
  Database db = MakeSchoolDatabase();
  Result<RecordId> dup = db.StoreRecord(
      {"COURSE",
       {{"CNO", Value::String("CS101")}, {"CNAME", Value::String("AGAIN")}},
       {}});
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kConstraintViolation);
}

TEST(DatabaseTest, UniquenessReleasedOnErase) {
  Database db = MakeSchoolDatabase();
  RecordId cs101 = db.SystemMembers("ALL-COURSE")[0];
  ASSERT_TRUE(db.EraseRecord(cs101).ok());
  EXPECT_TRUE(db.StoreRecord({"COURSE",
                              {{"CNO", Value::String("CS101")},
                               {"CNAME", Value::String("REBORN")}},
                              {}})
                  .ok());
}

TEST(DatabaseTest, UniquenessFollowsModify) {
  Database db = MakeSchoolDatabase();
  std::vector<RecordId> courses = db.SystemMembers("ALL-COURSE");
  // Renaming CS202 to CS101 collides.
  Status s = db.ModifyRecord(courses[1], {{"CNO", Value::String("CS101")}});
  EXPECT_EQ(s.code(), StatusCode::kConstraintViolation);
  // Renaming to a fresh key then reusing the old key is fine.
  ASSERT_TRUE(
      db.ModifyRecord(courses[1], {{"CNO", Value::String("CS303")}}).ok());
  EXPECT_TRUE(db.StoreRecord({"COURSE", {{"CNO", Value::String("CS202")}}, {}})
                  .ok());
}

TEST(DatabaseTest, ConnectDisconnectManualOptionalSet) {
  Schema schema = MakeDatabase(testing::CompanyDdl()).schema();
  schema.FindSet("DIV-EMP")->insertion = InsertionClass::kManual;
  schema.FindSet("DIV-EMP")->retention = RetentionClass::kOptional;
  Database db = *Database::Create(schema);
  RecordId div =
      *db.StoreRecord({"DIV", {{"DIV-NAME", Value::String("M")}}, {}});
  RecordId emp =
      *db.StoreRecord({"EMP", {{"EMP-NAME", Value::String("X")}}, {}});
  EXPECT_EQ(db.OwnerOf("DIV-EMP", emp), 0u);
  ASSERT_TRUE(db.Connect("DIV-EMP", emp, div).ok());
  EXPECT_EQ(db.OwnerOf("DIV-EMP", emp), div);
  // Connecting twice is a violation.
  EXPECT_FALSE(db.Connect("DIV-EMP", emp, div).ok());
  ASSERT_TRUE(db.Disconnect("DIV-EMP", emp).ok());
  EXPECT_EQ(db.OwnerOf("DIV-EMP", emp), 0u);
}

TEST(DatabaseTest, DisconnectMandatoryRejected) {
  Database db = MakeCompanyDatabase();
  RecordId machinery = db.SystemMembers("ALL-DIV")[0];
  RecordId adams = db.Members("DIV-EMP", machinery)[0];
  Status s = db.Disconnect("DIV-EMP", adams);
  EXPECT_EQ(s.code(), StatusCode::kConstraintViolation);
}

TEST(DatabaseTest, OwnerOfReportsConnection) {
  Database db = MakeCompanyDatabase();
  RecordId machinery = db.SystemMembers("ALL-DIV")[0];
  RecordId adams = db.Members("DIV-EMP", machinery)[0];
  EXPECT_EQ(db.OwnerOf("DIV-EMP", adams), machinery);
}

TEST(DatabaseTest, SelectWhereFiltersByPredicate) {
  Database db = MakeCompanyDatabase();
  Predicate over30 = Predicate::Compare("AGE", CompareOp::kGt,
                                        Operand::Literal(Value::Int(30)));
  Result<std::vector<RecordId>> r =
      db.SelectWhere("EMP", over30, EmptyHostEnv());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 3u);  // ADAMS 34, CLARK 45, DAVIS 31
}

TEST(DatabaseTest, StatsCountOperations) {
  Database db = MakeCompanyDatabase();
  db.ResetStats();
  (void)db.GetField(db.AllOfType("EMP")[0], "EMP-NAME");
  EXPECT_GT(db.stats().records_read, 0u);
}

TEST(DatabaseTest, GetAllFieldsIncludesVirtual) {
  Database db = MakeCompanyDatabase();
  RecordId machinery = db.SystemMembers("ALL-DIV")[0];
  RecordId adams = db.Members("DIV-EMP", machinery)[0];
  Result<FieldMap> all = db.GetAllFields(adams);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->at("DIV-NAME").as_string(), "MACHINERY");
  EXPECT_EQ(all->at("EMP-NAME").as_string(), "ADAMS");
  EXPECT_EQ(all->size(), 4u);
}

TEST(DatabaseTest, MixedCaseFieldNamesResolve) {
  Database db = MakeCompanyDatabase();
  RecordId machinery = db.SystemMembers("ALL-DIV")[0];
  RecordId adams = db.Members("DIV-EMP", machinery)[0];
  EXPECT_EQ(db.GetField(adams, "emp-name")->as_string(), "ADAMS");
  EXPECT_EQ(db.GetField(adams, "Emp-Name")->as_string(), "ADAMS");
  EXPECT_EQ(db.GetField(adams, "div-Name")->as_string(), "MACHINERY");
  // A record stored through the raw store with a lower-case type string
  // resolves against its schema type all the same.
  RecordId raw = db.mutable_store().Insert(
      "div", {{"DIV-NAME", Value::String("RAW")}});
  EXPECT_EQ(db.GetField(raw, "Div-Name")->as_string(), "RAW");
}

TEST(DatabaseTest, UnknownFieldReadIsNotFound) {
  Database db = MakeCompanyDatabase();
  RecordId emp = db.AllOfType("EMP")[0];
  Result<Value> v = db.GetField(emp, "No-Such");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(v.status().message(), "field EMP.No-Such");
  Result<Value> gone = db.GetField(987654, "EMP-NAME");
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().message(), "record 987654");
}

TEST(DatabaseTest, VirtualFieldNullWhenOwnerAbsentOrSystem) {
  Database db = MakeCompanyDatabase();
  RecordId emp = db.AllOfType("EMP")[0];
  // Raw-store surgery: detach the member, then hang it off the SYSTEM
  // pseudo-owner, which has no fields to read.
  ASSERT_TRUE(db.mutable_store().Unlink("DIV-EMP", emp).ok());
  Result<Value> absent = db.GetField(emp, "DIV-NAME");
  ASSERT_TRUE(absent.ok()) << absent.status();
  EXPECT_TRUE(absent->is_null());
  ASSERT_TRUE(db.mutable_store().LinkLast("DIV-EMP", kSystemOwner, emp).ok());
  Result<Value> system = db.GetField(emp, "DIV-NAME");
  ASSERT_TRUE(system.ok()) << system.status();
  EXPECT_TRUE(system->is_null());
}

TEST(DatabaseTest, CopyReadsFieldsAfterOriginalIsDestroyed) {
  auto original = std::make_unique<Database>(MakeCompanyDatabase());
  RecordId machinery = original->SystemMembers("ALL-DIV")[0];
  RecordId adams = original->Members("DIV-EMP", machinery)[0];
  Database copy = *original;
  original.reset();
  EXPECT_EQ(copy.GetField(adams, "EMP-NAME")->as_string(), "ADAMS");
  EXPECT_EQ(copy.GetField(adams, "div-name")->as_string(), "MACHINERY");
  EXPECT_EQ(copy.GetField(adams, "NO-SUCH").status().code(),
            StatusCode::kNotFound);
  // Sorted-set maintenance reads the copy's set keys too.
  Result<RecordId> aaron = copy.StoreRecord(
      {"EMP", {{"EMP-NAME", Value::String("AARON")}}, {{"DIV-EMP", machinery}}});
  ASSERT_TRUE(aaron.ok()) << aaron.status();
  EXPECT_EQ(copy.Members("DIV-EMP", machinery)[0], *aaron);
}

TEST(DatabaseTest, OneHopVirtualFieldReadsTwoRecords) {
  Database db = MakeCompanyDatabase();
  RecordId machinery = db.SystemMembers("ALL-DIV")[0];
  RecordId adams = db.Members("DIV-EMP", machinery)[0];
  db.ResetStats();
  ASSERT_TRUE(db.GetField(adams, "EMP-NAME").ok());
  EXPECT_EQ(db.stats().records_read, 1u);
  db.ResetStats();
  ASSERT_TRUE(db.GetField(adams, "DIV-NAME").ok());
  EXPECT_EQ(db.stats().records_read, 2u);
  EXPECT_EQ(db.stats().Total(), 2u);
}

}  // namespace
}  // namespace dbpc
