#include "store/wal.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "store/database.h"
#include "store/sql_executor.h"

namespace rfidcep::store {
namespace {

namespace fs = std::filesystem;

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("wal_test_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::unique_ptr<Wal> OpenOrDie(WalOptions options = {}) {
    Result<std::unique_ptr<Wal>> wal = Wal::Open(dir_.string(), options);
    EXPECT_TRUE(wal.ok()) << wal.status().message();
    return std::move(*wal);
  }

  static WalRecord MakeRecord(uint64_t seq, uint32_t index,
                              std::string sql = "INSERT INTO t VALUES (1)") {
    WalRecord record;
    record.action_seq = seq;
    record.action_index = index;
    record.affected = 1;
    record.rule_id = "r" + std::to_string(seq);
    record.sql = std::move(sql);
    return record;
  }

  static std::vector<WalRecord> ReplayAll(const Wal& wal,
                                          uint64_t after_lsn = 0) {
    std::vector<WalRecord> records;
    Status status = wal.Replay(after_lsn, [&](const WalRecord& record) {
      records.push_back(record);
      return Status::Ok();
    });
    EXPECT_TRUE(status.ok()) << status.message();
    return records;
  }

  std::vector<fs::path> SegmentFiles() const {
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    return files;
  }

  fs::path dir_;
};

TEST_F(WalTest, RoundTripsEveryParamValueKind) {
  {
    std::unique_ptr<Wal> wal = OpenOrDie();
    WalRecord record = MakeRecord(7, 2, "INSERT INTO t VALUES (:a)");
    record.affected = 3;
    record.rule_id = "dock rule";
    record.params["n"] = ParamValue::Scalar(Value::Null());
    record.params["i"] = ParamValue::Scalar(Value::Int(-42));
    record.params["d"] = ParamValue::Scalar(Value::Double(2.5));
    record.params["s"] = ParamValue::Scalar(Value::String("a \"quoted\" str"));
    record.params["t"] = ParamValue::Scalar(Value::Time(123456789));
    record.params["u"] = ParamValue::Scalar(Value::Uc());
    record.params["m"] = ParamValue::Multi(
        {Value::String("x"), Value::Int(9), Value::Uc()});
    Result<uint64_t> lsn = wal->Append(std::move(record));
    ASSERT_TRUE(lsn.ok()) << lsn.status().message();
    EXPECT_EQ(*lsn, 1u);
    ASSERT_TRUE(wal->Sync().ok());
  }

  std::unique_ptr<Wal> wal = OpenOrDie();
  EXPECT_EQ(wal->recovered_lsn(), 1u);
  const std::string key = WalActionKey("dock rule", 7, 2);
  ASSERT_EQ(wal->recovered_actions().count(key), 1u);
  EXPECT_EQ(wal->recovered_actions().at(key), 3u);

  std::vector<WalRecord> records = ReplayAll(*wal);
  ASSERT_EQ(records.size(), 1u);
  const WalRecord& r = records[0];
  EXPECT_EQ(r.lsn, 1u);
  EXPECT_EQ(r.action_seq, 7u);
  EXPECT_EQ(r.action_index, 2u);
  EXPECT_EQ(r.affected, 3u);
  EXPECT_EQ(r.rule_id, "dock rule");
  EXPECT_EQ(r.sql, "INSERT INTO t VALUES (:a)");
  ASSERT_EQ(r.params.size(), 7u);
  EXPECT_TRUE(r.params.at("n").scalar.is_null());
  EXPECT_EQ(r.params.at("i").scalar.AsInt(), -42);
  EXPECT_EQ(r.params.at("d").scalar.AsDouble(), 2.5);
  EXPECT_EQ(r.params.at("s").scalar.AsString(), "a \"quoted\" str");
  EXPECT_EQ(r.params.at("t").scalar.AsTime(), 123456789);
  EXPECT_TRUE(r.params.at("u").scalar.is_uc());
  ASSERT_TRUE(r.params.at("m").is_multi);
  ASSERT_EQ(r.params.at("m").values.size(), 3u);
  EXPECT_EQ(r.params.at("m").values[1].AsInt(), 9);
  EXPECT_TRUE(r.params.at("m").values[2].is_uc());
}

TEST_F(WalTest, ReplayIntoDatabaseIsIdempotentViaCursor) {
  std::unique_ptr<Wal> wal = OpenOrDie();
  for (int i = 0; i < 3; ++i) {
    WalRecord record = MakeRecord(static_cast<uint64_t>(i + 1), 0,
                                  "INSERT INTO OBSERVATION VALUES ('r1', 'o" +
                                      std::to_string(i) + "', " +
                                      std::to_string(i * 10) + ")");
    ASSERT_TRUE(wal->Append(std::move(record)).ok());
  }

  Database db;
  ASSERT_TRUE(db.InstallRfidSchema().ok());
  Result<uint64_t> cursor = ReplayWalIntoDatabase(*wal, &db);
  ASSERT_TRUE(cursor.ok()) << cursor.status().message();
  EXPECT_EQ(*cursor, 3u);
  EXPECT_EQ(db.GetTable("OBSERVATION")->size(), 3u);

  // Double replay from the returned cursor is a no-op.
  Result<uint64_t> again = ReplayWalIntoDatabase(*wal, &db, *cursor);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *cursor);
  EXPECT_EQ(db.GetTable("OBSERVATION")->size(), 3u);
}

TEST_F(WalTest, ProcedureAndAlarmRecordsDedupButDoNotReplay) {
  {
    std::unique_ptr<Wal> wal = OpenOrDie();
    ASSERT_TRUE(
        wal->Append(MakeRecord(1, 0,
                               "INSERT INTO OBSERVATION VALUES ('r', 'o', 5)"))
            .ok());
    WalRecord proc;
    proc.kind = WalRecordKind::kProcedure;
    proc.action_seq = 1;
    proc.action_index = 1;
    proc.rule_id = "dock rule";
    proc.sql = "start shipment";
    ASSERT_TRUE(wal->Append(std::move(proc)).ok());
    WalRecord alarm;
    alarm.kind = WalRecordKind::kAlarm;
    alarm.action_seq = 2;
    alarm.action_index = 0;
    alarm.rule_id = "dock rule";
    alarm.sql = "send alarm";
    alarm.params["tag"] = ParamValue::Scalar(Value::String("tag9"));
    ASSERT_TRUE(wal->Append(std::move(alarm)).ok());
    ASSERT_TRUE(wal->Sync().ok());
  }

  std::unique_ptr<Wal> wal = OpenOrDie();
  EXPECT_EQ(wal->recovered_lsn(), 3u);
  // Every kind lands in the dedup map, so recovery skips re-invocation.
  EXPECT_EQ(wal->recovered_actions().count(WalActionKey("dock rule", 1, 1)),
            1u);
  EXPECT_EQ(wal->recovered_actions().count(WalActionKey("dock rule", 2, 0)),
            1u);
  std::vector<WalRecord> records = ReplayAll(*wal);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].kind, WalRecordKind::kSql);
  EXPECT_EQ(records[1].kind, WalRecordKind::kProcedure);
  EXPECT_EQ(records[1].sql, "start shipment");
  EXPECT_EQ(records[2].kind, WalRecordKind::kAlarm);
  EXPECT_EQ(records[2].params.at("tag").scalar.AsString(), "tag9");

  // Store replay applies only the SQL frame but moves the cursor past
  // the procedure frames, so a second replay stays a no-op.
  Database db;
  ASSERT_TRUE(db.InstallRfidSchema().ok());
  Result<uint64_t> cursor = ReplayWalIntoDatabase(*wal, &db);
  ASSERT_TRUE(cursor.ok()) << cursor.status().message();
  EXPECT_EQ(*cursor, 3u);
  EXPECT_EQ(db.GetTable("OBSERVATION")->size(), 1u);
  Result<uint64_t> again = ReplayWalIntoDatabase(*wal, &db, *cursor);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *cursor);
  EXPECT_EQ(db.GetTable("OBSERVATION")->size(), 1u);
}

TEST_F(WalTest, UnknownRecordKindIsDroppedAsDamagedTail) {
  // A CRC-valid frame whose kind byte names no known record kind is
  // undecodable: Open() treats it like any other invalid tail record.
  fs::create_directories(dir_);
  std::string payload("\x09", 1);
  payload.append(40, '\0');
  std::string frame;
  for (uint32_t v : {static_cast<uint32_t>(payload.size()),
                     common::Crc32(payload.data(), payload.size())}) {
    for (int i = 0; i < 4; ++i) frame.push_back(static_cast<char>(v >> (8 * i)));
  }
  frame += payload;
  std::ofstream(dir_ / "wal-00000000000000000001.seg", std::ios::binary)
      << frame;

  std::unique_ptr<Wal> wal = OpenOrDie();
  EXPECT_EQ(wal->recovered_lsn(), 0u);
  EXPECT_TRUE(wal->recovered_actions().empty());
}

TEST_F(WalTest, TornFinalRecordIsTruncatedAndAppendContinues) {
  {
    std::unique_ptr<Wal> wal = OpenOrDie();
    for (uint64_t seq = 1; seq <= 3; ++seq) {
      ASSERT_TRUE(wal->Append(MakeRecord(seq, 0)).ok());
    }
    ASSERT_TRUE(wal->Sync().ok());
  }
  std::vector<fs::path> files = SegmentFiles();
  ASSERT_EQ(files.size(), 1u);
  // Tear the final record mid-frame, as an interrupted write() would.
  uint64_t size = fs::file_size(files[0]);
  fs::resize_file(files[0], size - 5);

  std::unique_ptr<Wal> wal = OpenOrDie();
  EXPECT_EQ(wal->recovered_lsn(), 2u);
  EXPECT_EQ(wal->recovered_actions().count(WalActionKey("r3", 3, 0)), 0u);

  // The torn bytes are gone; the next append takes the freed LSN.
  Result<uint64_t> lsn = wal->Append(MakeRecord(4, 0));
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 3u);
  std::vector<WalRecord> records = ReplayAll(*wal);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[2].action_seq, 4u);
}

TEST_F(WalTest, CorruptTailOfFinalSegmentIsTruncated) {
  {
    std::unique_ptr<Wal> wal = OpenOrDie();
    for (uint64_t seq = 1; seq <= 4; ++seq) {
      ASSERT_TRUE(wal->Append(MakeRecord(seq, 0)).ok());
    }
    ASSERT_TRUE(wal->Sync().ok());
  }
  std::vector<fs::path> files = SegmentFiles();
  ASSERT_EQ(files.size(), 1u);
  uint64_t frame = fs::file_size(files[0]) / 4;
  {
    // Flip one payload byte inside the third record: it and everything
    // after it are dropped as a damaged tail.
    std::fstream f(files[0], std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(2 * frame + 12));
    f.put('\xff');
  }
  std::unique_ptr<Wal> wal = OpenOrDie();
  EXPECT_EQ(wal->recovered_lsn(), 2u);
  EXPECT_EQ(ReplayAll(*wal).size(), 2u);
}

TEST_F(WalTest, CorruptionInEarlierSegmentFailsOpen) {
  WalOptions small;
  small.segment_bytes = 64;  // Every record rotates into its own segment.
  {
    std::unique_ptr<Wal> wal = OpenOrDie(small);
    for (uint64_t seq = 1; seq <= 3; ++seq) {
      ASSERT_TRUE(wal->Append(MakeRecord(seq, 0)).ok());
    }
    ASSERT_TRUE(wal->Sync().ok());
  }
  std::vector<fs::path> files = SegmentFiles();
  ASSERT_GE(files.size(), 2u);
  {
    std::fstream f(files[0], std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(10);
    f.put('\xff');
  }
  Result<std::unique_ptr<Wal>> wal = Wal::Open(dir_.string(), small);
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), StatusCode::kInvalidArgument)
      << wal.status().message();
}

// Recovery from an image opens the log from the image's LSN: sealed
// segments wholly at or below it are not read, so damage there does not
// stop the open (Open from 0, above, still refuses the directory), and
// the dedup map holds only the keys above it.
TEST_F(WalTest, OpenFromLsnSkipsSealedSegmentsBelowIt) {
  WalOptions small;
  small.segment_bytes = 64;  // Every record rotates into its own segment.
  {
    std::unique_ptr<Wal> wal = OpenOrDie(small);
    for (uint64_t seq = 1; seq <= 6; ++seq) {
      ASSERT_TRUE(wal->Append(MakeRecord(seq, 0)).ok());
    }
    ASSERT_TRUE(wal->Sync().ok());
  }
  std::vector<fs::path> files = SegmentFiles();
  ASSERT_EQ(files.size(), 6u);
  uint64_t total = 0;
  for (const fs::path& file : files) total += fs::file_size(file);
  {
    std::fstream f(files[0], std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(10);
    f.put('\xff');
  }
  ASSERT_FALSE(Wal::Open(dir_.string(), small).ok());

  Result<std::unique_ptr<Wal>> opened = Wal::Open(dir_.string(), small, 2);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  Wal& wal = **opened;
  EXPECT_EQ(wal.recovered_lsn(), 6u);
  EXPECT_EQ(wal.total_bytes(), total);
  EXPECT_EQ(wal.recovered_actions().size(), 4u);
  EXPECT_EQ(wal.recovered_actions().count(WalActionKey("r2", 2, 0)), 0u);
  EXPECT_EQ(wal.recovered_actions().count(WalActionKey("r3", 3, 0)), 1u);

  // A replay from the cursor starts at the segment holding LSN 3 and
  // never reads the damaged one; a replay from 0 reaches it and fails.
  std::vector<WalRecord> tail = ReplayAll(wal, 2);
  ASSERT_EQ(tail.size(), 4u);
  EXPECT_EQ(tail.front().lsn, 3u);
  EXPECT_FALSE(
      wal.Replay(0, [](const WalRecord&) { return Status::Ok(); }).ok());

  Result<uint64_t> lsn = wal.Append(MakeRecord(7, 0));
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 7u);
}

TEST_F(WalTest, ReplayFromCursorMatchesFullReplaySuffix) {
  WalOptions small;
  small.segment_bytes = 150;  // A few records per segment.
  std::unique_ptr<Wal> wal = OpenOrDie(small);
  for (uint64_t seq = 1; seq <= 25; ++seq) {
    ASSERT_TRUE(wal->Append(MakeRecord(seq, 0)).ok());
  }
  ASSERT_GT(SegmentFiles().size(), 3u);
  const std::vector<WalRecord> all = ReplayAll(*wal);
  ASSERT_EQ(all.size(), 25u);
  for (uint64_t after = 0; after <= 26; ++after) {
    std::vector<WalRecord> tail = ReplayAll(*wal, after);
    ASSERT_EQ(tail.size(), after >= 25 ? 0u : 25 - after) << after;
    for (size_t i = 0; i < tail.size(); ++i) {
      EXPECT_EQ(tail[i].lsn, after + 1 + i);
      EXPECT_EQ(tail[i].rule_id, all[after + i].rule_id);
    }
  }
}

TEST_F(WalTest, EmptySegmentFileIsValid) {
  fs::create_directories(dir_);
  std::ofstream(dir_ / "wal-00000000000000000001.seg").flush();
  std::unique_ptr<Wal> wal = OpenOrDie();
  EXPECT_EQ(wal->recovered_lsn(), 0u);
  Result<uint64_t> lsn = wal->Append(MakeRecord(1, 0));
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 1u);
}

TEST_F(WalTest, RotationPreservesLsnOrderAcrossSegments) {
  WalOptions small;
  small.segment_bytes = 100;
  const uint64_t kRecords = 20;
  {
    std::unique_ptr<Wal> wal = OpenOrDie(small);
    for (uint64_t seq = 1; seq <= kRecords; ++seq) {
      Result<uint64_t> lsn = wal->Append(MakeRecord(seq, 0));
      ASSERT_TRUE(lsn.ok());
      EXPECT_EQ(*lsn, seq);
    }
    ASSERT_TRUE(wal->Sync().ok());
    EXPECT_EQ(wal->last_lsn(), kRecords);
  }
  ASSERT_GT(SegmentFiles().size(), 1u);

  std::unique_ptr<Wal> wal = OpenOrDie(small);
  EXPECT_EQ(wal->recovered_lsn(), kRecords);
  std::vector<WalRecord> records = ReplayAll(*wal);
  ASSERT_EQ(records.size(), kRecords);
  for (uint64_t i = 0; i < kRecords; ++i) {
    EXPECT_EQ(records[i].lsn, i + 1);
    EXPECT_EQ(records[i].action_seq, i + 1);
  }
  // A replay cursor skips exactly the prefix.
  EXPECT_EQ(ReplayAll(*wal, kRecords / 2).size(), kRecords - kRecords / 2);

  // Appending after recovery lands in the final segment, LSNs sequential.
  Result<uint64_t> lsn = wal->Append(MakeRecord(kRecords + 1, 0));
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, kRecords + 1);
}

TEST_F(WalTest, EveryAppendPolicySurvivesUnflushedDrop) {
  WalOptions durable;
  durable.fsync = FsyncPolicy::kEveryAppend;
  {
    std::unique_ptr<Wal> wal = OpenOrDie(durable);
    ASSERT_TRUE(wal->Append(MakeRecord(1, 0)).ok());
    // No Sync(), no Flush(): the policy already pushed it to disk.
  }
  std::unique_ptr<Wal> wal = OpenOrDie(durable);
  EXPECT_EQ(wal->recovered_lsn(), 1u);
}

}  // namespace
}  // namespace rfidcep::store
