#include "storage/store.h"

#include <gtest/gtest.h>

namespace dbpc {
namespace {

TEST(StoreTest, InsertAssignsMonotonicIds) {
  Store store;
  RecordId a = store.Insert("R", {});
  RecordId b = store.Insert("R", {});
  EXPECT_LT(a, b);
  EXPECT_TRUE(store.Exists(a));
  EXPECT_EQ(store.LiveCount(), 2u);
}

TEST(StoreTest, GetReturnsStoredFields) {
  Store store;
  RecordId id = store.Insert("R", {{"F", Value::Int(7)}});
  const StoredRecord* rec = store.Get(id);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->type, "R");
  EXPECT_EQ(rec->fields.at("F").as_int(), 7);
  EXPECT_EQ(store.Get(999), nullptr);
}

TEST(StoreTest, RemoveDeletesRecord) {
  Store store;
  RecordId id = store.Insert("R", {});
  ASSERT_TRUE(store.Remove(id).ok());
  EXPECT_FALSE(store.Exists(id));
  EXPECT_EQ(store.Remove(id).code(), StatusCode::kNotFound);
}

TEST(StoreTest, AllOfTypeFiltersAndOrders) {
  Store store;
  RecordId a = store.Insert("A", {});
  (void)store.Insert("B", {});
  RecordId a2 = store.Insert("A", {});
  EXPECT_EQ(store.AllOfType("A"), (std::vector<RecordId>{a, a2}));
  EXPECT_EQ(store.AllRecords().size(), 3u);
}

TEST(StoreTest, LinkPositionsMembers) {
  Store store;
  RecordId owner = store.Insert("O", {});
  RecordId m1 = store.Insert("M", {});
  RecordId m2 = store.Insert("M", {});
  RecordId m3 = store.Insert("M", {});
  ASSERT_TRUE(store.LinkLast("S", owner, m1).ok());
  ASSERT_TRUE(store.LinkLast("S", owner, m3).ok());
  ASSERT_TRUE(store.Link("S", owner, m2, 1).ok());
  EXPECT_EQ(store.Members("S", owner), (std::vector<RecordId>{m1, m2, m3}));
  EXPECT_EQ(store.OwnerOf("S", m2), owner);
}

TEST(StoreTest, LinkBeyondEndClampsToAppend) {
  Store store;
  RecordId owner = store.Insert("O", {});
  RecordId m = store.Insert("M", {});
  ASSERT_TRUE(store.Link("S", owner, m, 99).ok());
  EXPECT_EQ(store.Members("S", owner).back(), m);
}

TEST(StoreTest, DoubleLinkRejected) {
  Store store;
  RecordId owner = store.Insert("O", {});
  RecordId m = store.Insert("M", {});
  ASSERT_TRUE(store.LinkLast("S", owner, m).ok());
  EXPECT_EQ(store.LinkLast("S", owner, m).code(), StatusCode::kAlreadyExists);
}

TEST(StoreTest, UnlinkRemovesMembership) {
  Store store;
  RecordId owner = store.Insert("O", {});
  RecordId m = store.Insert("M", {});
  ASSERT_TRUE(store.LinkLast("S", owner, m).ok());
  ASSERT_TRUE(store.Unlink("S", m).ok());
  EXPECT_EQ(store.OwnerOf("S", m), 0u);
  EXPECT_TRUE(store.Members("S", owner).empty());
  EXPECT_EQ(store.Unlink("S", m).code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Unlink("NO-SET", m).code(), StatusCode::kNotFound);
}

TEST(StoreTest, IndependentSetsDoNotInterfere) {
  Store store;
  RecordId o1 = store.Insert("O", {});
  RecordId o2 = store.Insert("P", {});
  RecordId m = store.Insert("M", {});
  ASSERT_TRUE(store.LinkLast("S1", o1, m).ok());
  ASSERT_TRUE(store.LinkLast("S2", o2, m).ok());
  EXPECT_EQ(store.OwnerOf("S1", m), o1);
  EXPECT_EQ(store.OwnerOf("S2", m), o2);
  ASSERT_TRUE(store.Unlink("S1", m).ok());
  EXPECT_EQ(store.OwnerOf("S2", m), o2);
}

TEST(StoreTest, SystemOwnerIsJustAnotherOwnerId) {
  Store store;
  RecordId m = store.Insert("M", {});
  ASSERT_TRUE(store.LinkLast("SYS", kSystemOwner, m).ok());
  EXPECT_EQ(store.OwnerOf("SYS", m), kSystemOwner);
  EXPECT_EQ(store.Members("SYS", kSystemOwner).size(), 1u);
}

TEST(StoreTest, AllOfTypeKeepsInsertionOrderAcrossRemovals) {
  // Regression for the per-type directory: results must stay in ascending
  // id (insertion) order — exactly what the old full-heap walk produced —
  // with removed ids dropped and later inserts appended.
  Store store;
  RecordId a1 = store.Insert("A", {});
  RecordId b1 = store.Insert("B", {});
  RecordId a2 = store.Insert("A", {});
  RecordId a3 = store.Insert("A", {});
  RecordId b2 = store.Insert("B", {});
  ASSERT_TRUE(store.Remove(a2).ok());
  RecordId a4 = store.Insert("A", {});
  EXPECT_EQ(store.AllOfType("A"), (std::vector<RecordId>{a1, a3, a4}));
  EXPECT_EQ(store.AllOfType("B"), (std::vector<RecordId>{b1, b2}));
  EXPECT_TRUE(store.AllOfType("C").empty());
  EXPECT_EQ(store.AllRecords(), (std::vector<RecordId>{a1, b1, a3, b2, a4}));
}

TEST(StoreTest, OfTypeReferenceSurvivesInsertsOfOtherTypes) {
  // The reference-stability contract the extent loader leans on: the vector
  // OfType returns lives in a node-stable map, so inserting records — even
  // enough distinct types to rehash the per-type directory — never moves
  // it. Only same-type inserts change its contents.
  Store store;
  RecordId a1 = store.Insert("A", {});
  const std::vector<RecordId>& ref = store.OfType("A");
  const std::vector<RecordId>* address = &ref;
  for (int i = 0; i < 200; ++i) {
    store.Insert("T" + std::to_string(i), {});
  }
  EXPECT_EQ(&store.OfType("A"), address);
  EXPECT_EQ(ref, (std::vector<RecordId>{a1}));
  RecordId a2 = store.Insert("A", {});
  EXPECT_EQ(&store.OfType("A"), address);
  EXPECT_EQ(ref, (std::vector<RecordId>{a1, a2}));
}

TEST(StoreTest, GetPointerSurvivesLaterInserts) {
  // Record pointers are stable too: bulk loaders may hold a
  // StoredRecord* across subsequent inserts.
  Store store;
  RecordId id = store.Insert("A", {{"F", Value::Int(7)}});
  const StoredRecord* rec = store.Get(id);
  for (int i = 0; i < 1000; ++i) store.Insert("A", {});
  EXPECT_EQ(store.Get(id), rec);
  EXPECT_EQ(rec->fields.at("F").as_int(), 7);
}

TEST(StoreTest, ColumnarRunsExposeAdoptedSegmentsByType) {
  Store store;
  store.Insert("A", {{"F", Value::Int(0)}});  // heap rows are not runs
  ExtentTable a("A", {"F"}, {FieldType::kInt});
  a.AppendRow(0, {Value::Int(1)});
  a.AppendRow(0, {Value::Int(2)});
  ExtentTable b("B", {"G"}, {FieldType::kInt});
  b.AppendRow(0, {Value::Int(3)});
  const ExtentTable& a_rows = store.AdoptExtents(std::move(a));
  store.AdoptExtents(std::move(b));
  std::vector<Store::ColumnarRun> runs = store.ColumnarRuns("A");
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].table, &a_rows);
  EXPECT_EQ(runs[0].first_id, a_rows.IdAt(0));
  EXPECT_EQ(runs[0].live, 2u);
  // Promotion vacates the row inside the run (live drops, vacated set):
  // bulk readers can tell the run is no longer a faithful full image.
  ASSERT_NE(store.Get(a_rows.IdAt(1)), nullptr);
  runs = store.ColumnarRuns("A");
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].live, 1u);
  EXPECT_TRUE((*runs[0].vacated)[1]);
  EXPECT_TRUE(store.ColumnarRuns("C").empty());
}

TEST(StoreTest, CloneIsDeep) {
  Store store;
  RecordId owner = store.Insert("O", {});
  RecordId m = store.Insert("M", {{"F", Value::Int(1)}});
  ASSERT_TRUE(store.LinkLast("S", owner, m).ok());
  Store copy = store.Clone();
  ASSERT_TRUE(copy.Unlink("S", m).ok());
  copy.GetMutable(m)->fields["F"] = Value::Int(2);
  // Original unaffected.
  EXPECT_EQ(store.OwnerOf("S", m), owner);
  EXPECT_EQ(store.Get(m)->fields.at("F").as_int(), 1);
}

ExtentTable IntRows(const std::string& type, int rows) {
  ExtentTable table(type, {"F"}, {FieldType::kInt});
  for (int i = 0; i < rows; ++i) table.AppendRow(0, {Value::Int(100 + i)});
  return table;
}

TEST(StoreTest, GetPointerSurvivesAdoptionAndPromotionOfOtherIds) {
  // The dense heap's stability rule: a Get pointer stays put while other
  // records are inserted, adopted as columnar rows or promoted into the
  // heap, including promotions that grow the heap past its end.
  Store store;
  RecordId heap_id = store.Insert("A", {{"F", Value::Int(7)}});
  const StoredRecord* heap_rec = store.Get(heap_id);
  const ExtentTable& rows = store.AdoptExtents(IntRows("C", 600));
  const StoredRecord* promoted = store.Get(rows.IdAt(0));
  ASSERT_NE(promoted, nullptr);
  ASSERT_NE(store.Get(rows.IdAt(599)), nullptr);  // last row: heap grows
  for (int i = 0; i < 1000; ++i) store.Insert("A", {});
  store.AdoptExtents(IntRows("C", 300));
  for (size_t r = 1; r < 599; r += 7) ASSERT_NE(store.Get(rows.IdAt(r)), nullptr);
  EXPECT_EQ(store.Get(heap_id), heap_rec);
  EXPECT_EQ(heap_rec->fields.at("F").as_int(), 7);
  EXPECT_EQ(store.Get(rows.IdAt(0)), promoted);
  EXPECT_EQ(promoted->id, rows.IdAt(0));
  EXPECT_EQ(promoted->type, "C");
  EXPECT_EQ(promoted->fields.at("F").as_int(), 100);
}

TEST(StoreTest, RemoveOfHeapAndColumnarRows) {
  Store store;
  RecordId a1 = store.Insert("A", {});
  RecordId a2 = store.Insert("A", {});
  const ExtentTable& rows = store.AdoptExtents(IntRows("C", 3));
  RecordId c1 = rows.IdAt(0);
  RecordId c2 = rows.IdAt(1);
  RecordId c3 = rows.IdAt(2);
  RecordId a3 = store.Insert("A", {});
  ASSERT_NE(store.Get(c2), nullptr);  // promoted: now a heap row
  EXPECT_EQ(store.LiveCount(), 6u);
  ASSERT_TRUE(store.Remove(a2).ok());  // heap row
  ASSERT_TRUE(store.Remove(c1).ok());  // columnar row
  ASSERT_TRUE(store.Remove(c2).ok());  // promoted row
  for (RecordId gone : {a2, c1, c2}) {
    EXPECT_FALSE(store.Exists(gone)) << gone;
    EXPECT_EQ(store.Get(gone), nullptr) << gone;
    EXPECT_EQ(store.Remove(gone).code(), StatusCode::kNotFound) << gone;
  }
  for (RecordId live : {a1, c3, a3}) {
    EXPECT_TRUE(store.Exists(live)) << live;
    ASSERT_NE(store.Get(live), nullptr) << live;
    EXPECT_EQ(store.Get(live)->id, live);
  }
  EXPECT_FALSE(store.Exists(0));
  EXPECT_FALSE(store.Exists(a3 + 1));
  EXPECT_FALSE(store.Exists(kSystemOwner));
  EXPECT_EQ(store.Get(kSystemOwner), nullptr);
  EXPECT_EQ(store.LiveCount(), 3u);
  EXPECT_EQ(store.AllRecords(), (std::vector<RecordId>{a1, c3, a3}));
  EXPECT_EQ(store.AllOfType("C"), (std::vector<RecordId>{c3}));
}

TEST(StoreTest, CloneIsIndependentOfItsOriginal) {
  Store store;
  RecordId a = store.Insert("A", {{"F", Value::Int(1)}});
  const ExtentTable& rows = store.AdoptExtents(IntRows("C", 2));
  RecordId c1 = rows.IdAt(0);
  RecordId c2 = rows.IdAt(1);
  Store copy = store.Clone();
  // Promote, remove and insert in the copy only.
  ASSERT_NE(copy.Get(c1), nullptr);
  ASSERT_TRUE(copy.Remove(c2).ok());
  ASSERT_TRUE(copy.Remove(a).ok());
  RecordId fresh = copy.Insert("A", {});
  EXPECT_EQ(copy.AllRecords(), (std::vector<RecordId>{c1, fresh}));
  EXPECT_EQ(store.AllRecords(), (std::vector<RecordId>{a, c1, c2}));
  EXPECT_EQ(store.LiveCount(), 3u);
  EXPECT_FALSE(store.Exists(fresh));
  EXPECT_EQ(store.ColumnarRuns("C")[0].live, 2u);
  // And the other way round: the original's records are its own.
  store.GetMutable(a)->fields["F"] = Value::Int(2);
  EXPECT_NE(store.Get(c1), copy.Get(c1));
  EXPECT_EQ(copy.Get(a), nullptr);
  EXPECT_EQ(copy.Get(c1)->fields.at("F").as_int(), 100);
  EXPECT_EQ(store.Get(a)->fields.at("F").as_int(), 2);
}

}  // namespace
}  // namespace dbpc
