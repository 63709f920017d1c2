#include "store/table.h"

#include <gtest/gtest.h>

namespace rfidcep::store {
namespace {

Schema LocationSchema() {
  return Schema({{"object_epc", ColumnType::kString},
                 {"loc_id", ColumnType::kString},
                 {"tstart", ColumnType::kTime},
                 {"tend", ColumnType::kTime}});
}

Row LocationRow(const std::string& object, const std::string& loc,
                TimePoint start) {
  return {Value::String(object), Value::String(loc), Value::Time(start),
          Value::Uc()};
}

TEST(SchemaTest, FindColumnIsCaseInsensitive) {
  Schema schema = LocationSchema();
  EXPECT_EQ(schema.FindColumn("object_epc"), 0);
  EXPECT_EQ(schema.FindColumn("OBJECT_EPC"), 0);
  EXPECT_EQ(schema.FindColumn("tend"), 3);
  EXPECT_EQ(schema.FindColumn("nope"), -1);
}

TEST(SchemaTest, CoercionRules) {
  Schema schema = LocationSchema();
  // String "UC" coerces to kUc in a TIME column.
  Value uc_string = Value::String("UC");
  ASSERT_TRUE(schema.CoerceValue(3, &uc_string).ok());
  EXPECT_TRUE(uc_string.is_uc());
  // Int coerces to time.
  Value t = Value::Int(5);
  ASSERT_TRUE(schema.CoerceValue(2, &t).ok());
  EXPECT_EQ(t.kind(), ValueKind::kTime);
  // String column rejects a time.
  Value bad = Value::Time(5);
  EXPECT_FALSE(schema.CoerceValue(0, &bad).ok());
  // NULL is accepted anywhere.
  Value null = Value::Null();
  EXPECT_TRUE(schema.CoerceValue(0, &null).ok());
}

TEST(TableTest, InsertAndScan) {
  Table table("OBJECTLOCATION", LocationSchema());
  ASSERT_TRUE(table.Insert(LocationRow("o1", "dock", 0)).ok());
  ASSERT_TRUE(table.Insert(LocationRow("o2", "dock", kSecond)).ok());
  EXPECT_EQ(table.size(), 2u);
  size_t seen = 0;
  table.Scan([&](const Row& row) {
    EXPECT_EQ(row.size(), 4u);
    ++seen;
  });
  EXPECT_EQ(seen, 2u);
}

TEST(TableTest, InsertRejectsWrongArity) {
  Table table("T", LocationSchema());
  EXPECT_FALSE(table.Insert({Value::Int(1)}).ok());
}

TEST(TableTest, UpdateWhereMutatesMatchingRows) {
  Table table("OBJECTLOCATION", LocationSchema());
  ASSERT_TRUE(table.Insert(LocationRow("o1", "dock", 0)).ok());
  ASSERT_TRUE(table.Insert(LocationRow("o2", "dock", 0)).ok());
  Result<size_t> updated = table.UpdateWhere(
      [](const Row& row) { return row[0].EqualsSql(Value::String("o1")); },
      [](Row* row) { (*row)[3] = Value::Time(9 * kSecond); });
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(*updated, 1u);
  std::vector<Row> open = table.SelectWhere(
      [](const Row& row) { return row[3].is_uc(); });
  ASSERT_EQ(open.size(), 1u);
  EXPECT_EQ(open[0][0].AsString(), "o2");
}

TEST(TableTest, DeleteWhereRemovesAndCounts) {
  Table table("T", LocationSchema());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        table.Insert(LocationRow("o" + std::to_string(i % 2), "x", i)).ok());
  }
  size_t deleted = table.DeleteWhere(
      [](const Row& row) { return row[0].EqualsSql(Value::String("o0")); });
  EXPECT_EQ(deleted, 5u);
  EXPECT_EQ(table.size(), 5u);
}

TEST(TableTest, IndexedLookupMatchesScan) {
  Table table("T", LocationSchema());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        table.Insert(LocationRow("o" + std::to_string(i % 7), "x", i)).ok());
  }
  ASSERT_TRUE(table.CreateIndex("object_epc").ok());
  EXPECT_TRUE(table.HasIndex(0));
  std::vector<Row> indexed = table.Lookup(0, Value::String("o3"));
  std::vector<Row> scanned = table.SelectWhere(
      [](const Row& row) { return row[0].EqualsSql(Value::String("o3")); });
  EXPECT_EQ(indexed.size(), scanned.size());
  EXPECT_FALSE(indexed.empty());
}

TEST(TableTest, IndexSurvivesUpdatesAndDeletes) {
  Table table("T", LocationSchema());
  ASSERT_TRUE(table.CreateIndex("object_epc").ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        table.Insert(LocationRow("o" + std::to_string(i), "x", i)).ok());
  }
  // Update renames o5 -> o99; index must follow.
  ASSERT_TRUE(table
                  .UpdateWhere(
                      [](const Row& row) {
                        return row[0].EqualsSql(Value::String("o5"));
                      },
                      [](Row* row) { (*row)[0] = Value::String("o99"); })
                  .ok());
  EXPECT_TRUE(table.Lookup(0, Value::String("o5")).empty());
  EXPECT_EQ(table.Lookup(0, Value::String("o99")).size(), 1u);
  table.DeleteWhere(
      [](const Row& row) { return row[0].EqualsSql(Value::String("o99")); });
  EXPECT_TRUE(table.Lookup(0, Value::String("o99")).empty());
}

TEST(TableTest, CompactionPreservesContentAndIndex) {
  Table table("T", LocationSchema());
  ASSERT_TRUE(table.CreateIndex("object_epc").ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        table.Insert(LocationRow("o" + std::to_string(i), "x", i)).ok());
  }
  // Delete 3/4 of rows to trigger compaction.
  table.DeleteWhere([](const Row& row) {
    return row[2].AsTime() % 4 != 0;
  });
  EXPECT_EQ(table.size(), 50u);
  EXPECT_EQ(table.Lookup(0, Value::String("o8")).size(), 1u);
  EXPECT_TRUE(table.Lookup(0, Value::String("o9")).empty());
  // Inserting after compaction still indexes correctly.
  ASSERT_TRUE(table.Insert(LocationRow("new", "x", 999)).ok());
  EXPECT_EQ(table.Lookup(0, Value::String("new")).size(), 1u);
}

TEST(TableTest, IndexKeysAreDistinctPerKind) {
  // Same payload, different kinds: each probe finds only its own row,
  // as SQL equality on the indexed column would not (Int 5 = Double 5).
  Table table("T", Schema({{"a", ColumnType::kAny}}));
  ASSERT_TRUE(table.CreateIndex("a").ok());
  const std::vector<Value> keys = {
      Value::Int(5),    Value::Time(5),   Value::Double(5.0),
      Value::String("5"), Value::Uc(),    Value::String("UC"),
      Value::Null()};
  for (const Value& key : keys) ASSERT_TRUE(table.Insert({key}).ok());
  for (const Value& key : keys) {
    SCOPED_TRACE(std::string(ValueKindName(key.kind())) + " " +
                 key.ToString());
    std::vector<Row> hits = table.Lookup(0, key);
    if (key.is_null()) {
      EXPECT_TRUE(hits.empty());  // NULL equals nothing.
      continue;
    }
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0][0], key);
  }
}

TEST(TableTest, ProbeForUnseenStringFindsNothing) {
  Table table("T", LocationSchema());
  ASSERT_TRUE(table.CreateIndex("object_epc").ok());
  ASSERT_TRUE(table.Insert(LocationRow("o1", "x", 1)).ok());
  EXPECT_TRUE(table.Lookup(0, Value::String("o2")).empty());
  EXPECT_TRUE(table.SelectWhereKeyed(0, Value::String("o2"), nullptr).empty());
  EXPECT_EQ(*table.UpdateWhereKeyed(0, Value::String("o2"), nullptr,
                                    [](Row* row) { (*row)[1] = Value(); }),
            0u);
  EXPECT_EQ(table.DeleteWhereKeyed(0, Value::String("o2"), nullptr), 0u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(TableTest, UpdateFailingCoercionLeavesRowAsItWas) {
  Table table("T", LocationSchema());
  ASSERT_TRUE(table.CreateIndex("object_epc").ok());
  ASSERT_TRUE(table.Insert(LocationRow("o1", "x", 1)).ok());
  Result<size_t> updated = table.UpdateWhereKeyed(
      0, Value::String("o1"), nullptr, [](Row* row) {
        (*row)[0] = Value::String("o2");
        (*row)[2] = Value::Double(0.5);  // Not a time.
      });
  EXPECT_FALSE(updated.ok());
  ASSERT_EQ(table.Lookup(0, Value::String("o1")).size(), 1u);
  EXPECT_EQ(table.Lookup(0, Value::String("o1"))[0],
            LocationRow("o1", "x", 1));
  EXPECT_TRUE(table.Lookup(0, Value::String("o2")).empty());
}

TEST(TableTest, KeyedVisitsFollowRowOrder) {
  Table table("T", LocationSchema());
  ASSERT_TRUE(table.CreateIndex("object_epc").ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        table.Insert(LocationRow(i % 2 == 0 ? "a" : "b", "x", i)).ok());
  }
  // Row 1 moves into bucket "a" between rows 0 and 2.
  ASSERT_TRUE(table
                  .UpdateWhere(
                      [](const Row& row) { return row[2].AsTime() == 1; },
                      [](Row* row) { (*row)[0] = Value::String("a"); })
                  .ok());
  std::vector<TimePoint> starts;
  for (const Row& row : table.Lookup(0, Value::String("a"))) {
    starts.push_back(row[2].AsTime());
  }
  EXPECT_EQ(starts, (std::vector<TimePoint>{0, 1, 2, 4}));
}

TEST(TableTest, BytesFollowRowsAndShrinkOnCompaction) {
  Table table("T", LocationSchema());
  ASSERT_TRUE(table.CreateIndex("object_epc").ok());
  const size_t empty = table.bytes();
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(table
                    .Insert(LocationRow("urn:epc:id:sgtin:0614141.107346." +
                                            std::to_string(i),
                                        "dock", i))
                    .ok());
  }
  const size_t full = table.bytes();
  // Four cells of 9 bytes, a row id and a long string per row at least.
  EXPECT_GT(full - empty, 5000u * (4 * 9 + 4 + 32));
  table.DeleteWhere([](const Row& row) { return row[2].AsTime() >= 100; });
  EXPECT_EQ(table.size(), 100u);
  EXPECT_LT(table.bytes(), full / 10);
}

TEST(TableTest, CreateIndexOnUnknownColumnFails) {
  Table table("T", LocationSchema());
  EXPECT_FALSE(table.CreateIndex("ghost").ok());
}

}  // namespace
}  // namespace rfidcep::store
