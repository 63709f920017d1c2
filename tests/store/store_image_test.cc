// Store images (store/store_image.h): the image round-trips every value
// kind, schema and index; image + WAL tail rebuilds the same store as a
// full replay; every kind of damaged or stale image falls back to that
// full replay; and the committed fixture tests/store/testdata/
// store_v1.img keeps loading and re-encodes to the same bytes.
//
// The fixture is an artifact of the format, not of any table layout:
// regenerate it only after an INTENTIONAL image format bump, via
//   RFIDCEP_REGEN_GOLDEN=1 ./tests/store_image_test

#include "store/store_image.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "store/sql_executor.h"
#include "store/wal.h"

namespace rfidcep::store {
namespace {

namespace fs = std::filesystem;

// Every table, its schema and indexes, and its rows in scan order, with
// values printed by kind (doubles bit-exact).
std::string Dump(const Database& db) {
  std::vector<std::string> names = db.TableNames();
  std::sort(names.begin(), names.end());
  std::string out;
  for (const std::string& name : names) {
    const Table& table = *db.GetTable(name);
    out += "table " + table.name() + " (";
    for (size_t c = 0; c < table.schema().num_columns(); ++c) {
      const Column& column = table.schema().columns()[c];
      out += column.name + " " + std::string(ColumnTypeName(column.type)) +
             (table.HasIndex(c) ? " indexed" : "") + ", ";
    }
    out += ")\n";
    table.Scan([&](const Row& row) {
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
        out += " | ";
      }
      out += "\n";
    });
  }
  return out;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// The deterministic store behind tests/store/testdata/store_v1.img:
// every value kind (strings empty, short and longer than any SSO
// buffer), indexed and unindexed columns, updated rows, and enough
// deleted rows that OBJECTLOCATION compacts.
void BuildGoldenStore(Database* db) {
  ASSERT_TRUE(db->InstallRfidSchema().ok());
  ASSERT_TRUE(ExecuteSql("CREATE TABLE kinds (a, n INT, d DOUBLE, s STRING, "
                         "t TIME)",
                         db)
                  .ok());
  ASSERT_TRUE(ExecuteSql("CREATE INDEX ON kinds (a)", db).ok());
  ASSERT_TRUE(ExecuteSql("CREATE INDEX ON kinds (s)", db).ok());
  Table* kinds = db->GetTable("kinds");
  const std::vector<Value> any = {
      Value::Null(),
      Value::Int(1),
      Value::Int(-42),
      Value::Double(1.0),
      Value::Double(-0.0),
      Value::Double(0.1),
      Value::String(""),
      Value::String("UC"),
      Value::Time(123456789),
      Value::Uc(),
      Value::String("urn:epc:id:sgtin:0614141.1073"),
      Value::String("dock7")};
  for (size_t i = 0; i < any.size(); ++i) {
    const int64_t n = static_cast<int64_t>(i);
    ASSERT_TRUE(kinds
                    ->Insert({any[i], Value::Int(n % 3),
                              Value::Double(0.5 * static_cast<double>(n)),
                              any[(i * 5) % any.size()].kind() ==
                                      ValueKind::kString
                                  ? any[(i * 5) % any.size()]
                                  : Value::String("s" + std::to_string(n)),
                              i % 4 == 0 ? Value::Uc() : Value::Time(n)})
                    .ok());
  }
  ASSERT_TRUE(ExecuteSql("UPDATE kinds SET s = 'a longer string than sso', "
                         "t = 99 WHERE n = 1",
                         db)
                  .ok());
  // Leaves "dock7" in no live row.
  ASSERT_TRUE(ExecuteSql("DELETE FROM kinds WHERE n = 2 AND d > 5", db).ok());

  // Location history in the paper's style; the early, closed periods of
  // most objects are retired, which leaves more than half the table dead.
  for (int i = 0; i < 120; ++i) {
    ParamMap params;
    params["o"] = ParamValue::Scalar(Value::String(
        "urn:epc:id:sgtin:0614141.107346." + std::to_string(i % 11)));
    params["r"] = ParamValue::Scalar(Value::String(
        i % 5 == 0 ? "" : "dock" + std::to_string(i % 3)));
    params["t"] = ParamValue::Scalar(Value::Time(i * 1000));
    ASSERT_TRUE(ExecuteSql("UPDATE OBJECTLOCATION SET tend = t WHERE "
                           "object_epc = o AND tend = \"UC\"",
                           db, params)
                    .ok());
    ASSERT_TRUE(ExecuteSql("INSERT INTO OBJECTLOCATION VALUES (o, r, t, "
                           "\"UC\")",
                           db, params)
                    .ok());
  }
  ASSERT_TRUE(
      ExecuteSql("DELETE FROM OBJECTLOCATION WHERE tend < 100000", db).ok());
  ASSERT_TRUE(ExecuteSql("INSERT INTO OBSERVATION VALUES ('r1', "
                         "'urn:epc:id:sgtin:0614141.107346.3', 7)",
                         db)
                  .ok());
}

std::string GoldenImagePath() {
  return std::string(RFIDCEP_STORE_TESTDATA_DIR) + "/store_v1.img";
}

TEST(StoreImageGoldenTest, CommittedImageLoadsAndRewritesIdentically) {
  Database built;
  BuildGoldenStore(&built);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  // The image was written after compaction: fewer rows than were stored.
  ASSERT_EQ(built.GetTable("OBJECTLOCATION")->size(), 31u);
  if (std::getenv("RFIDCEP_REGEN_GOLDEN") != nullptr) {
    ASSERT_TRUE(WriteStoreImage(built, 4242, GoldenImagePath()).ok());
    GTEST_SKIP() << "regenerated " << GoldenImagePath();
  }

  Database loaded;
  Result<uint64_t> lsn = ReadStoreImage(GoldenImagePath(), &loaded);
  ASSERT_TRUE(lsn.ok()) << lsn.status().message();
  EXPECT_EQ(*lsn, 4242u);
  // Rows in scan order, schemas and index sets, as the store that wrote
  // the image held them.
  EXPECT_EQ(Dump(loaded), Dump(built));
  const Table& kinds = *loaded.GetTable("kinds");
  std::vector<Row> rows = kinds.SelectWhere(nullptr);
  ASSERT_EQ(rows.size(), 11u);
  EXPECT_TRUE(rows[0][0].is_null());
  EXPECT_TRUE(rows[0][4].is_uc());
  EXPECT_EQ(rows[1][3], Value::String("a longer string than sso"));
  EXPECT_EQ(rows[1][4], Value::Time(99));
  EXPECT_EQ(rows[10][0], Value::String("urn:epc:id:sgtin:0614141.1073"));

  // Index lookups agree with a scan, kind for kind: Int(1) and
  // Double(1.0) are distinct keys, and the string "UC" is not the UC
  // value in an untyped column.
  auto expect_lookup = [&](size_t column, const Value& key, size_t want) {
    SCOPED_TRACE(key.ToString());
    ASSERT_TRUE(kinds.HasIndex(column));
    std::vector<Row> hits = kinds.Lookup(column, key);
    EXPECT_EQ(hits.size(), want);
    for (const Row& row : hits) EXPECT_TRUE(row[column].EqualsSql(key));
  };
  expect_lookup(0, Value::Int(1), 1);
  expect_lookup(0, Value::Double(1.0), 1);
  expect_lookup(0, Value::Double(0.0), 0);
  expect_lookup(0, Value::Double(-0.0), 1);
  expect_lookup(0, Value::String(""), 1);
  expect_lookup(0, Value::String("UC"), 1);
  expect_lookup(0, Value::Uc(), 1);
  expect_lookup(0, Value::Time(123456789), 1);
  expect_lookup(0, Value::String("never stored"), 0);
  expect_lookup(0, Value::String("dock7"), 0);
  expect_lookup(3, Value::String("a longer string than sso"), 4);
  const Table& locations = *loaded.GetTable("OBJECTLOCATION");
  ASSERT_TRUE(locations.HasIndex(0));
  EXPECT_FALSE(locations.HasIndex(1));
  size_t indexed = 0;
  for (int o = 0; o < 11; ++o) {
    const Value key = Value::String("urn:epc:id:sgtin:0614141.107346." +
                                    std::to_string(o));
    const std::vector<Row> hits = locations.Lookup(0, key);
    EXPECT_EQ(hits.size(), locations
                               .SelectWhere([&](const Row& row) {
                                 return row[0].EqualsSql(key);
                               })
                               .size());
    indexed += hits.size();
  }
  EXPECT_EQ(indexed, locations.size());
  EXPECT_EQ(locations.Lookup(1, Value::String("dock1")).size(),
            locations
                .SelectWhere([](const Row& row) {
                  return row[1].EqualsSql(Value::String("dock1"));
                })
                .size());

  // Re-encoding the loaded store gives the committed bytes back.
  const std::string rewritten =
      (fs::path(::testing::TempDir()) / "store_v1_rewritten.img").string();
  ASSERT_TRUE(WriteStoreImage(loaded, *lsn, rewritten).ok());
  EXPECT_TRUE(ReadFile(rewritten) == ReadFile(GoldenImagePath()));
  fs::remove(rewritten);
}

class StoreImageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("store_image_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    image_ = (dir_ / "store.img").string();
    wal_dir_ = (dir_ / "wal").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  // Runs one statement on `db` and logs it like the action dispatcher.
  static void Exec(Database* db, Wal* wal, const std::string& sql,
                   ParamMap params = {}) {
    Result<ExecResult> result = ExecuteSql(sql, db, params);
    ASSERT_TRUE(result.ok()) << sql << ": " << result.status().message();
    WalRecord record;
    record.action_seq = wal->last_lsn() + 1;
    record.rule_id = "r";
    record.affected = static_cast<uint32_t>(result->affected);
    record.sql = sql;
    record.params = std::move(params);
    ASSERT_TRUE(wal->Append(std::move(record)).ok());
  }

  // A stream of location updates in the paper's style: each move closes
  // the object's open period (UPDATE) and opens a new one (INSERT);
  // every third step retires the oldest closed periods (DELETE), enough
  // of them that the table compacts.
  static void Moves(Database* db, Wal* wal, int from, int to) {
    for (int i = from; i < to; ++i) {
      const std::string object = "obj" + std::to_string(i % 7);
      ParamMap params;
      params["o"] = ParamValue::Scalar(Value::String(object));
      params["r"] = ParamValue::Scalar(Value::String("dock" +
                                                     std::to_string(i % 3)));
      params["t"] = ParamValue::Scalar(Value::Time(i * 1000));
      Exec(db, wal,
           "UPDATE OBJECTLOCATION SET tend = t WHERE object_epc = o AND "
           "tend = \"UC\"",
           params);
      Exec(db, wal, "INSERT INTO OBJECTLOCATION VALUES (o, r, t, \"UC\")",
           params);
      if (i % 3 == 2) {
        ParamMap cutoff;
        cutoff["c"] = ParamValue::Scalar(Value::Time((i - 20) * 1000));
        Exec(db, wal, "DELETE FROM OBJECTLOCATION WHERE tend < c", cutoff);
      }
    }
  }

  // The reference: a fresh store with the whole WAL replayed into it.
  std::string FullReplayDump() {
    Database db;
    EXPECT_TRUE(db.InstallRfidSchema().ok());
    Result<std::unique_ptr<Wal>> wal = Wal::Open(wal_dir_);
    EXPECT_TRUE(wal.ok()) << wal.status().message();
    EXPECT_TRUE(ReplayWalIntoDatabase(**wal, &db).ok());
    return Dump(db);
  }

  // Logs a store with a user table, writes its image at the WAL's last
  // LSN, then logs `tail` more moves past it. Returns the live store.
  std::string BuildImageAndTail(int tail, uint64_t* image_lsn) {
    Database db;
    EXPECT_TRUE(db.InstallRfidSchema().ok());
    Result<std::unique_ptr<Wal>> wal = Wal::Open(wal_dir_);
    EXPECT_TRUE(wal.ok()) << wal.status().message();
    Exec(&db, wal->get(), "CREATE TABLE ALERTS (object STRING, level INT)");
    Exec(&db, wal->get(), "CREATE INDEX ON ALERTS (level)");
    Moves(&db, wal->get(), 0, 150);
    *image_lsn = (*wal)->last_lsn();
    EXPECT_TRUE(WriteStoreImage(db, *image_lsn, image_).ok());
    Moves(&db, wal->get(), 150, 150 + tail);
    ParamMap params;
    params["o"] = ParamValue::Scalar(Value::String("obj3"));
    Exec(&db, wal->get(), "INSERT INTO ALERTS VALUES (o, 2)", params);
    EXPECT_TRUE((*wal)->Sync().ok());
    return Dump(db);
  }

  fs::path dir_;
  std::string image_;
  std::string wal_dir_;
};

TEST_F(StoreImageTest, RoundTripsEveryValueKindSchemaAndIndex) {
  Database db;
  ASSERT_TRUE(db.InstallRfidSchema().ok());
  // Tables and indexes created by SQL actions travel like built-in ones.
  ASSERT_TRUE(ExecuteSql("CREATE TABLE mixed (a, n INT, d DOUBLE, s STRING, "
                         "t TIME)",
                         &db)
                  .ok());
  ASSERT_TRUE(ExecuteSql("CREATE INDEX ON mixed (s)", &db).ok());
  ASSERT_TRUE(ExecuteSql("CREATE INDEX ON mixed (n)", &db).ok());
  Table* mixed = db.GetTable("mixed");
  const std::vector<Value> any = {
      Value::Null(),        Value::Int(-42),
      Value::Double(0.1),   Value::Double(-0.0),
      Value::String(""),    Value::String("a \"quoted\"\n string"),
      Value::Time(123456789), Value::Uc()};
  for (const Value& v : any) {
    ASSERT_TRUE(mixed
                    ->Insert({v, Value::Int(7), Value::Double(2.5e-300),
                              Value::String("s"), Value::Uc()})
                    .ok());
  }
  ASSERT_TRUE(mixed
                  ->Insert({Value::Int(1), Value::Null(), Value::Null(),
                            Value::Null(), Value::Time(-5)})
                  .ok());
  ASSERT_TRUE(ExecuteSql("INSERT INTO OBJECTLOCATION VALUES ('e1', 'r1', 5, "
                         "\"UC\")",
                         &db)
                  .ok());

  Result<uint64_t> bytes = WriteStoreImage(db, 77, image_);
  ASSERT_TRUE(bytes.ok()) << bytes.status().message();
  EXPECT_EQ(*bytes, fs::file_size(image_));
  EXPECT_FALSE(fs::exists(image_ + ".tmp"));

  Database loaded;
  Result<uint64_t> lsn = ReadStoreImage(image_, &loaded);
  ASSERT_TRUE(lsn.ok()) << lsn.status().message();
  EXPECT_EQ(*lsn, 77u);
  EXPECT_EQ(Dump(loaded), Dump(db));
  // The loaded indexes answer keyed lookups.
  ASSERT_TRUE(loaded.GetTable("mixed")->HasIndex(3));
  EXPECT_EQ(loaded.GetTable("mixed")->Lookup(3, Value::String("s")).size(),
            any.size());
  // Every kind made it through, negative zero bit-exact.
  const std::string dump = Dump(loaded);
  for (const char* kind : {"null:", "int:", "string:", "time:", "uc:"}) {
    EXPECT_NE(dump.find(kind), std::string::npos) << kind;
  }
  EXPECT_NE(dump.find("double:8000000000000000"), std::string::npos);
}

TEST_F(StoreImageTest, ImageOfEmptyStoreLoads) {
  Database db;
  ASSERT_TRUE(WriteStoreImage(db, 0, image_).ok());
  Database loaded;
  Result<uint64_t> lsn = ReadStoreImage(image_, &loaded);
  ASSERT_TRUE(lsn.ok()) << lsn.status().message();
  EXPECT_EQ(*lsn, 0u);
  EXPECT_TRUE(loaded.TableNames().empty());
}

TEST_F(StoreImageTest, MissingImageIsNotFound) {
  Database db;
  EXPECT_EQ(ReadStoreImage(image_, &db).status().code(),
            StatusCode::kNotFound);
}

TEST_F(StoreImageTest, ImagePlusTailEqualsFullReplay) {
  uint64_t image_lsn = 0;
  const std::string live = BuildImageAndTail(/*tail=*/90, &image_lsn);
  const std::string full = FullReplayDump();
  ASSERT_EQ(full, live);

  Result<RecoveredStore> recovered =
      RecoverStore(image_, wal_dir_, /*snapshot_lsn=*/image_lsn);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_FALSE(recovered->image_fallback);
  EXPECT_EQ(recovered->image_lsn, image_lsn);
  EXPECT_EQ(recovered->replayed_records,
            recovered->wal->last_lsn() - image_lsn);
  EXPECT_GT(recovered->replayed_records, 0u);
  EXPECT_EQ(Dump(*recovered->db), full);
  // Dedup keys start at the lower of the image and snapshot LSNs.
  EXPECT_EQ(recovered->wal->recovered_actions().size(),
            recovered->replayed_records);
}

TEST_F(StoreImageTest, ImageAtWalEndReplaysNothing) {
  uint64_t image_lsn = 0;
  BuildImageAndTail(/*tail=*/0, &image_lsn);
  // The trailing ALERTS insert is past the image; rewrite the image at
  // the WAL's end, as a checkpoint does.
  uint64_t end = 0;
  {
    Result<RecoveredStore> first = RecoverStore(image_, wal_dir_, image_lsn);
    ASSERT_TRUE(first.ok());
    end = first->wal->last_lsn();
    ASSERT_TRUE(WriteStoreImage(*first->db, end, image_).ok());
  }

  Result<RecoveredStore> recovered = RecoverStore(image_, wal_dir_, end);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ(recovered->replayed_records, 0u);
  EXPECT_FALSE(recovered->image_fallback);
  EXPECT_TRUE(recovered->wal->recovered_actions().empty());
  EXPECT_EQ(Dump(*recovered->db), FullReplayDump());
}

TEST_F(StoreImageTest, SnapshotBelowImageKeepsItsDedupKeys) {
  uint64_t image_lsn = 0;
  BuildImageAndTail(/*tail=*/10, &image_lsn);
  // An image newer than the snapshot (a crash between the two renames):
  // keys above the snapshot's LSN must all be there.
  const uint64_t snapshot_lsn = image_lsn - 25;
  Result<RecoveredStore> recovered =
      RecoverStore(image_, wal_dir_, snapshot_lsn);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ(recovered->image_lsn, image_lsn);
  EXPECT_EQ(recovered->wal->recovered_actions().size(),
            recovered->wal->last_lsn() - snapshot_lsn);
  EXPECT_EQ(Dump(*recovered->db), FullReplayDump());
}

// Each kind of damage gives the full-replay store and is counted.
TEST_F(StoreImageTest, DamagedOrStaleImageFallsBackToFullReplay) {
  uint64_t image_lsn = 0;
  const std::string live = BuildImageAndTail(/*tail=*/30, &image_lsn);
  const std::string good = image_ + ".good";
  fs::copy_file(image_, good);
  const uint64_t size = fs::file_size(good);

  struct Damage {
    const char* name;
    std::function<void()> apply;
  };
  const std::vector<Damage> damages = {
      {"flipped byte",
       [&] {
         std::fstream f(image_, std::ios::in | std::ios::out |
                                    std::ios::binary);
         f.seekg(static_cast<std::streamoff>(size / 2));
         char c = 0;
         f.get(c);
         f.seekp(static_cast<std::streamoff>(size / 2));
         f.put(static_cast<char>(c ^ 0x40));
       }},
      {"truncated", [&] { fs::resize_file(image_, size - 3); }},
      {"empty, as after a power loss", [&] { fs::resize_file(image_, 0); }},
      // The header frame alone: 8 header bytes + tag, magic, version,
      // LSN and table count.
      {"cut at a frame boundary",
       [&] { fs::resize_file(image_, 8 + 1 + 4 + 12 + 4 + 8 + 4); }},
      {"past the WAL end",
       [&] {
         Database db;
         ASSERT_TRUE(ReadStoreImage(good, &db).ok());
         ASSERT_TRUE(WriteStoreImage(db, image_lsn + 1000, image_).ok());
       }},
  };
  for (const Damage& damage : damages) {
    SCOPED_TRACE(damage.name);
    fs::copy_file(good, image_, fs::copy_options::overwrite_existing);
    damage.apply();
    Result<RecoveredStore> recovered =
        RecoverStore(image_, wal_dir_, image_lsn);
    ASSERT_TRUE(recovered.ok()) << recovered.status().message();
    EXPECT_TRUE(recovered->image_fallback);
    EXPECT_EQ(recovered->image_lsn, 0u);
    EXPECT_EQ(recovered->replayed_records, recovered->wal->last_lsn());
    EXPECT_EQ(Dump(*recovered->db), live);
  }
}

TEST_F(StoreImageTest, NoImageOverEmptyWalIsAFreshStart) {
  Result<RecoveredStore> recovered = RecoverStore(image_, wal_dir_, 0);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_FALSE(recovered->image_fallback);
  EXPECT_EQ(recovered->replayed_records, 0u);
  Database fresh;
  ASSERT_TRUE(fresh.InstallRfidSchema().ok());
  EXPECT_EQ(Dump(*recovered->db), Dump(fresh));
}

TEST_F(StoreImageTest, NoImageOverLoggedWalIsCounted) {
  uint64_t image_lsn = 0;
  const std::string live = BuildImageAndTail(/*tail=*/5, &image_lsn);
  fs::remove(image_);
  Result<RecoveredStore> recovered = RecoverStore(image_, wal_dir_, image_lsn);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_TRUE(recovered->image_fallback);
  EXPECT_EQ(Dump(*recovered->db), live);
}

}  // namespace
}  // namespace rfidcep::store
