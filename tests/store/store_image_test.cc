// Store images (store/store_image.h): the image round-trips every value
// kind, schema and index; image + WAL tail rebuilds the same store as a
// full replay; and every kind of damaged or stale image falls back to
// that full replay.

#include "store/store_image.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
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
