// Randomized operation sequences against the data store, checking the
// invariants that matter to rule actions: size accounting, index/scan
// agreement, compaction transparency, CSV round-trip fidelity, and the
// packed table against a plain vector-of-rows model.

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <optional>

#include <gtest/gtest.h>

#include "common/prng.h"
#include "store/csv.h"
#include "store/database.h"
#include "store/sql_executor.h"

namespace rfidcep::store {
namespace {

class StoreFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StoreFuzz, RandomOpsKeepIndexAndScanInAgreement) {
  Prng prng(GetParam());
  Database db;
  ASSERT_TRUE(db.InstallRfidSchema().ok());
  Table* table = db.GetTable("OBJECTLOCATION");

  auto random_object = [&] {
    return "obj" + std::to_string(prng.UniformInt(0, 19));
  };

  size_t model_size = 0;
  for (int op = 0; op < 400; ++op) {
    int dice = static_cast<int>(prng.UniformInt(0, 9));
    std::string object = random_object();
    if (dice < 6) {  // Insert.
      ASSERT_TRUE(table
                      ->Insert({Value::String(object), Value::String("loc"),
                                Value::Time(op), Value::Uc()})
                      .ok());
      ++model_size;
    } else if (dice < 8) {  // Update all rows of one object.
      Result<size_t> updated = table->UpdateWhereKeyed(
          0, Value::String(object), nullptr,
          [op](Row* row) { (*row)[3] = Value::Time(op); });
      ASSERT_TRUE(updated.ok());
    } else {  // Delete all rows of one object.
      size_t deleted =
          table->DeleteWhereKeyed(0, Value::String(object), nullptr);
      ASSERT_LE(deleted, model_size);
      model_size -= deleted;
    }
    ASSERT_EQ(table->size(), model_size) << "op " << op;

    // Periodically: index lookups must agree with full scans.
    if (op % 25 == 0) {
      for (int probe = 0; probe < 5; ++probe) {
        Value key = Value::String(random_object());
        std::vector<Row> indexed = table->Lookup(0, key);
        std::vector<Row> scanned = table->SelectWhere(
            [&key](const Row& row) { return row[0].EqualsSql(key); });
        ASSERT_EQ(indexed.size(), scanned.size()) << "op " << op;
      }
    }
  }

  // CSV round-trip preserves the final state exactly.
  std::string csv = TableToCsv(*table);
  Database db2;
  ASSERT_TRUE(db2.InstallRfidSchema().ok());
  Table* table2 = db2.GetTable("OBJECTLOCATION");
  ASSERT_TRUE(LoadTableFromCsv(csv, table2).ok());
  EXPECT_EQ(TableToCsv(*table2), csv);
  EXPECT_EQ(table2->size(), table->size());
}

TEST_P(StoreFuzz, SqlLayerMatchesDirectTableOps) {
  // Drive the same mutations through SQL with parameters and through the
  // table API; final states must agree.
  Prng prng(GetParam() * 31);
  Database via_sql;
  Database direct;
  ASSERT_TRUE(via_sql.InstallRfidSchema().ok());
  ASSERT_TRUE(direct.InstallRfidSchema().ok());
  Table* direct_table = direct.GetTable("OBJECTLOCATION");

  for (int op = 0; op < 200; ++op) {
    std::string object = "o" + std::to_string(prng.UniformInt(0, 9));
    int dice = static_cast<int>(prng.UniformInt(0, 9));
    if (dice < 6) {
      ParamMap params;
      params.emplace("o", ParamValue::Scalar(Value::String(object)));
      params.emplace("t", ParamValue::Scalar(Value::Time(op)));
      ASSERT_TRUE(
          ExecuteSql("INSERT INTO OBJECTLOCATION VALUES (o, 'x', t, \"UC\")",
                     &via_sql, params)
              .ok());
      ASSERT_TRUE(direct_table
                      ->Insert({Value::String(object), Value::String("x"),
                                Value::Time(op), Value::Uc()})
                      .ok());
    } else if (dice < 8) {
      ParamMap params;
      params.emplace("o", ParamValue::Scalar(Value::String(object)));
      params.emplace("t", ParamValue::Scalar(Value::Time(op)));
      ASSERT_TRUE(ExecuteSql("UPDATE OBJECTLOCATION SET tend = t WHERE "
                             "object_epc = o AND tend = \"UC\"",
                             &via_sql, params)
                      .ok());
      Result<size_t> updated = direct_table->UpdateWhereKeyed(
          0, Value::String(object),
          [](const Row& row) { return row[3].is_uc(); },
          [op](Row* row) { (*row)[3] = Value::Time(op); });
      ASSERT_TRUE(updated.ok());
    } else {
      ParamMap params;
      params.emplace("o", ParamValue::Scalar(Value::String(object)));
      ASSERT_TRUE(ExecuteSql(
                      "DELETE FROM OBJECTLOCATION WHERE object_epc = o",
                      &via_sql, params)
                      .ok());
      direct_table->DeleteWhereKeyed(0, Value::String(object), nullptr);
    }
  }
  EXPECT_EQ(TableToCsv(*via_sql.GetTable("OBJECTLOCATION")),
            TableToCsv(*direct_table));
}

// The model: the live rows in scan order, nothing else. A keyed call
// visits the rows whose indexed cell holds exactly the key — same kind
// and payload, so Int(1) misses Double(1.0) and the string "UC" misses
// the UC value — that also SQL-equal it; rows are visited in scan order.
class TableModel {
 public:
  explicit TableModel(Schema schema) : schema_(std::move(schema)) {}

  const std::vector<Row>& rows() const { return rows_; }

  Status Insert(Row row) {
    RFIDCEP_RETURN_IF_ERROR(Coerce(&row));
    rows_.push_back(std::move(row));
    return Status::Ok();
  }

  static bool KeyedMatch(const Value& cell, const Value& key) {
    if (cell.kind() != key.kind() || !cell.EqualsSql(key)) return false;
    return cell.kind() != ValueKind::kDouble ||
           std::bit_cast<uint64_t>(cell.AsDouble()) ==
               std::bit_cast<uint64_t>(key.AsDouble());
  }

  std::vector<Row> Select(const std::function<bool(const Row&)>& match) const {
    std::vector<Row> out;
    for (const Row& row : rows_) {
      if (match(row)) out.push_back(row);
    }
    return out;
  }

  // Stops at the first row whose new values fail coercion, leaving it as
  // it was; the rows before it stay updated.
  Result<size_t> Update(const std::function<bool(const Row&)>& match,
                        const std::function<void(Row*)>& mutate) {
    size_t updated = 0;
    for (Row& row : rows_) {
      if (!match(row)) continue;
      Row changed = row;
      mutate(&changed);
      RFIDCEP_RETURN_IF_ERROR(Coerce(&changed));
      row = std::move(changed);
      ++updated;
    }
    return updated;
  }

  size_t Delete(const std::function<bool(const Row&)>& match) {
    const size_t before = rows_.size();
    std::erase_if(rows_, match);
    return before - rows_.size();
  }

 private:
  Status Coerce(Row* row) const {
    for (size_t c = 0; c < row->size(); ++c) {
      RFIDCEP_RETURN_IF_ERROR(schema_.CoerceValue(c, &(*row)[c]));
    }
    return Status::Ok();
  }

  Schema schema_;
  std::vector<Row> rows_;
};

// Rows printed kind by kind, doubles bit-exact.
std::string Render(const std::vector<Row>& rows) {
  std::string out;
  for (const Row& row : rows) {
    for (const Value& v : row) {
      out += std::string(ValueKindName(v.kind())) + ":";
      if (v.kind() == ValueKind::kDouble) {
        char bits[24];
        std::snprintf(bits, sizeof(bits), "%016llx",
                      static_cast<unsigned long long>(
                          std::bit_cast<uint64_t>(v.AsDouble())));
        out += bits;
      } else {
        out += v.ToString();
      }
      out += " ";
    }
    out += "\n";
  }
  return out;
}

std::string Render(const Table& table) {
  std::vector<Row> rows;
  table.Scan([&](const Row& row) { rows.push_back(row); });
  return Render(rows);
}

TEST_P(StoreFuzz, PackedTableMatchesVectorModel) {
  Prng prng(GetParam() * 977 + 3);
  // a: untyped and indexed; s: string, indexed; t: time; d: double.
  const Schema schema({{"a", ColumnType::kAny},
                       {"s", ColumnType::kString},
                       {"t", ColumnType::kTime},
                       {"d", ColumnType::kDouble}});
  Table table("fuzz", schema);
  ASSERT_TRUE(table.CreateIndex("a").ok());
  ASSERT_TRUE(table.CreateIndex("s").ok());
  TableModel model(schema);

  auto pick_string = [&]() -> std::string {
    switch (prng.UniformInt(0, 4)) {
      case 0:
        return "";
      case 1:
        return "UC";
      case 2:
        return "s" + std::to_string(prng.UniformInt(0, 5));
      default:  // Past any small-string buffer.
        return "urn:epc:id:sgtin:0614141.107346." +
               std::to_string(prng.UniformInt(0, 9));
    }
  };
  // Any value, of every kind, drawn from small pools so keys repeat.
  auto pick_any = [&]() -> Value {
    switch (prng.UniformInt(0, 9)) {
      case 0:
        return Value::Null();
      case 1:
      case 2:
        return Value::Int(prng.UniformInt(-1, 3));
      case 3: {
        const double pool[] = {0.0, -0.0, 1.0, 2.5,
                               std::numeric_limits<double>::quiet_NaN()};
        return Value::Double(pool[prng.UniformInt(0, 4)]);
      }
      case 4:
      case 5:
      case 6:
        return Value::String(pick_string());
      case 7:
      case 8:
        return Value::Time(prng.UniformInt(0, 3));
      default:
        return Value::Uc();
    }
  };
  // A value for column `c`: usually one its type holds (possibly after
  // coercion), sometimes any value at all, which may fail coercion.
  auto pick_for = [&](size_t c) -> Value {
    if (c == 0 || prng.Chance(0.05)) return pick_any();
    if (prng.Chance(0.1)) return Value::Null();
    switch (c) {
      case 1:
        return prng.Chance(0.1) ? Value::Uc() : Value::String(pick_string());
      case 2:
        switch (prng.UniformInt(0, 3)) {
          case 0:
            return Value::Uc();
          case 1:
            return Value::String("UC");
          case 2:
            return Value::Int(prng.UniformInt(0, 50));
          default:
            return Value::Time(prng.UniformInt(0, 50));
        }
      default:
        return prng.Chance(0.3) ? Value::Int(prng.UniformInt(0, 3))
                                : Value::Double(prng.UniformInt(0, 3) * 0.5);
    }
  };
  // Probe keys: stored values, strings never stored, and every kind
  // against either indexed column.
  auto pick_key = [&](size_t column) -> Value {
    if (prng.Chance(0.15)) {
      return Value::String("absent-" + std::to_string(prng.UniformInt(0, 3)));
    }
    return prng.Chance(0.5) ? pick_any() : pick_for(column);
  };

  bool compacted_with_rows = false;
  for (int op = 0; op < 1500; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    const size_t column = static_cast<size_t>(prng.UniformInt(0, 1));
    const Value key = pick_key(column);
    auto keyed = [&](const Row& row) {
      return TableModel::KeyedMatch(row[column], key);
    };
    // A residual predicate on the time column, half the time.
    const bool residual = prng.Chance(0.5);
    auto pred = [residual](const Row& row) {
      return !residual || row[2].is_uc() || row[2].is_null();
    };
    const size_t set_column = static_cast<size_t>(prng.UniformInt(0, 3));
    const Value set_value = pick_for(set_column);
    auto mutate = [&](Row* row) { (*row)[set_column] = set_value; };
    // Deletes outweigh inserts in bursts, so the table keeps compacting.
    const bool shrinking = (op / 150) % 3 == 2;
    const int dice = static_cast<int>(prng.UniformInt(0, 19));
    if (dice < (shrinking ? 3 : 9)) {
      Row row;
      for (size_t c = 0; c < 4; ++c) row.push_back(pick_for(c));
      const Status want = model.Insert(row);
      EXPECT_EQ(table.Insert(row).ok(), want.ok()) << want.ToString();
    } else if (dice < 12) {
      Result<size_t> want = model.Update(
          [&](const Row& row) { return keyed(row) && pred(row); }, mutate);
      Result<size_t> got = table.UpdateWhereKeyed(
          column, key, residual ? std::function<bool(const Row&)>(pred)
                                : nullptr,
          mutate);
      ASSERT_EQ(got.ok(), want.ok());
      if (want.ok()) {
        EXPECT_EQ(*got, *want);
      }
    } else if (dice < 13) {
      Result<size_t> want = model.Update(pred, mutate);
      Result<size_t> got = table.UpdateWhere(pred, mutate);
      ASSERT_EQ(got.ok(), want.ok());
      if (want.ok()) {
        EXPECT_EQ(*got, *want);
      }
    } else if (dice < 16) {
      const size_t want = model.Delete(
          [&](const Row& row) { return keyed(row) && pred(row); });
      const size_t before = table.size();
      EXPECT_EQ(table.DeleteWhereKeyed(
                    column, key,
                    residual ? std::function<bool(const Row&)>(pred)
                             : nullptr),
                want);
      compacted_with_rows |= want > 0 && before > 64;
    } else if (dice < 17) {
      auto match = [&](const Row& row) { return row[3].EqualsSql(key); };
      EXPECT_EQ(table.DeleteWhere(match), model.Delete(match));
    } else if (dice < 19) {
      EXPECT_EQ(Render(table.SelectWhereKeyed(
                    column, key,
                    residual ? std::function<bool(const Row&)>(pred)
                             : nullptr)),
                Render(model.Select(
                    [&](const Row& row) { return keyed(row) && pred(row); })));
    } else {
      // Lookup on an indexed column is keyed; on the others, a scan by
      // SQL equality.
      const size_t any_column = static_cast<size_t>(prng.UniformInt(0, 3));
      const Value any_key = prng.Chance(0.5) ? key : pick_for(any_column);
      EXPECT_EQ(
          Render(table.Lookup(any_column, any_key)),
          Render(model.Select([&](const Row& row) {
            return any_column < 2
                       ? TableModel::KeyedMatch(row[any_column], any_key)
                       : row[any_column].EqualsSql(any_key);
          })));
    }
    ASSERT_EQ(table.size(), model.rows().size());
    ASSERT_EQ(Render(table), Render(model.rows()));
  }
  EXPECT_TRUE(compacted_with_rows);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreFuzz,
                         ::testing::Values(1u, 7u, 42u, 99u, 1234u, 5309u));

}  // namespace
}  // namespace rfidcep::store
