#include "store/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>

#include "store/codec.h"
#include "store/database.h"
#include "store/sql_parser.h"

namespace rfidcep::store {
namespace {

namespace fs = std::filesystem;

constexpr char kSegmentPrefix[] = "wal-";
constexpr char kSegmentSuffix[] = ".seg";

using codec::Dec;
using codec::Enc;
using codec::GetValue;
using codec::kFrameHeader;
using codec::PutValue;

std::string SegmentName(uint64_t first_lsn) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%s%020" PRIu64 "%s", kSegmentPrefix,
                first_lsn, kSegmentSuffix);
  return buf;
}

// The first LSN a segment was created for, from its zero-padded name;
// 0 when the name does not parse.
uint64_t SegmentFirstLsn(const std::string& name) {
  const size_t prefix = sizeof(kSegmentPrefix) - 1;
  const size_t suffix = sizeof(kSegmentSuffix) - 1;
  if (name.size() <= prefix + suffix) return 0;
  uint64_t lsn = 0;
  for (size_t i = prefix; i < name.size() - suffix; ++i) {
    if (name[i] < '0' || name[i] > '9') return 0;
    lsn = lsn * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  return lsn;
}

std::string EncodeRecord(const WalRecord& record) {
  Enc enc;
  enc.U8(static_cast<uint8_t>(record.kind));
  enc.U64(record.lsn);
  enc.U64(record.action_seq);
  enc.U32(record.action_index);
  enc.U32(record.affected);
  enc.Str(record.rule_id);
  enc.Str(record.sql);
  enc.U32(static_cast<uint32_t>(record.params.size()));
  for (const auto& [name, param] : record.params) {
    enc.Str(name);
    enc.U8(param.is_multi ? 1 : 0);
    if (param.is_multi) {
      enc.U32(static_cast<uint32_t>(param.values.size()));
      for (const Value& v : param.values) PutValue(enc, v);
    } else {
      PutValue(enc, param.scalar);
    }
  }
  return enc.Take();
}

bool DecodeRecord(std::string_view payload, WalRecord* out) {
  Dec dec(payload);
  uint8_t kind = dec.U8();
  if (kind > static_cast<uint8_t>(WalRecordKind::kAlarm)) return false;
  out->kind = static_cast<WalRecordKind>(kind);
  out->lsn = dec.U64();
  out->action_seq = dec.U64();
  out->action_index = dec.U32();
  out->affected = dec.U32();
  out->rule_id = dec.Str();
  out->sql = dec.Str();
  uint32_t nparams = dec.U32();
  out->params.clear();
  for (uint32_t i = 0; dec.ok() && i < nparams; ++i) {
    std::string name = dec.Str();
    if (dec.U8()) {
      uint32_t count = dec.U32();
      std::vector<Value> values;
      for (uint32_t j = 0; dec.ok() && j < count; ++j) {
        values.push_back(GetValue(dec));
      }
      out->params.emplace(std::move(name), ParamValue::Multi(std::move(values)));
    } else {
      out->params.emplace(std::move(name), ParamValue::Scalar(GetValue(dec)));
    }
  }
  return dec.AtEnd();
}

Status ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::NotFound("cannot open wal segment " + path);
  out->resize(static_cast<size_t>(in.tellg()));
  in.seekg(0);
  if (!in.read(out->data(), static_cast<std::streamsize>(out->size()))) {
    return Status::Internal("cannot read wal segment " + path);
  }
  return Status::Ok();
}

// Walks one segment's records. Returns the byte offset of the first
// invalid record (== data.size() when the whole segment is valid).
// `expected_lsn` advances past each valid record. Records at or below
// `skip_through` are checked (CRC, kind, LSN sequence) but neither
// decoded nor passed to `on_record`.
size_t WalkSegment(const std::string& data, uint64_t* expected_lsn,
                   uint64_t skip_through,
                   const std::function<void(const WalRecord&)>& on_record) {
  size_t offset = 0;
  while (offset < data.size()) {
    if (data.size() - offset < kFrameHeader) return offset;
    uint32_t len = 0;
    uint32_t crc = 0;
    if (!codec::ParseFrameHeader(std::string_view(data).substr(offset), &len,
                                 &crc) ||
        data.size() - offset - kFrameHeader < len) {
      return offset;
    }
    std::string_view payload(data.data() + offset + kFrameHeader, len);
    if (!codec::PayloadMatches(payload, crc)) return offset;
    if (*expected_lsn <= skip_through) {
      Dec head(payload);
      const uint8_t kind = head.U8();
      const uint64_t lsn = head.U64();
      if (!head.ok() || kind > static_cast<uint8_t>(WalRecordKind::kAlarm) ||
          lsn != *expected_lsn) {
        return offset;
      }
    } else {
      WalRecord record;
      if (!DecodeRecord(payload, &record)) return offset;
      if (record.lsn != *expected_lsn) return offset;
      if (on_record) on_record(record);
    }
    ++*expected_lsn;
    offset += kFrameHeader + len;
  }
  return offset;
}

std::vector<std::string> ListSegments(const std::string& dir) {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    std::string name = entry.path().filename().string();
    if (name.rfind(kSegmentPrefix, 0) == 0 && name.size() > 4 &&
        name.compare(name.size() - 4, 4, kSegmentSuffix) == 0) {
      names.push_back(std::move(name));
    }
  }
  std::sort(names.begin(), names.end());  // Zero-padded LSN => LSN order.
  return names;
}

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

}  // namespace

Wal::Wal(std::string dir, WalOptions options)
    : dir_(std::move(dir)), options_(options) {}

Wal::~Wal() {
  std::lock_guard<std::mutex> lock(mu_);
  FlushLocked();
  if (fd_ >= 0) {
    if (options_.fsync != FsyncPolicy::kNone) ::fsync(fd_);
    ::close(fd_);
    fd_ = -1;
  }
}

Result<std::unique_ptr<Wal>> Wal::Open(std::string dir, WalOptions options,
                                       uint64_t from_lsn) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create wal directory " + dir + ": " +
                            ec.message());
  }
  std::unique_ptr<Wal> wal(new Wal(std::move(dir), options));
  RFIDCEP_RETURN_IF_ERROR(wal->ScanExisting(from_lsn));
  return wal;
}

Status Wal::ScanExisting(uint64_t from_lsn) {
  std::vector<std::string> names = ListSegments(dir_);
  uint64_t expected_lsn = 1;
  for (size_t i = 0; i < names.size(); ++i) {
    const std::string path = dir_ + "/" + names[i];
    const bool final_segment = i + 1 == names.size();
    if (!final_segment) {
      // A sealed segment ends just below the next one's first LSN. When
      // that whole range is at or below `from_lsn`, recovery needs
      // neither its records nor its dedup keys: take its size from the
      // file system and do not read it.
      const uint64_t next_first = SegmentFirstLsn(names[i + 1]);
      if (next_first > 0 && next_first - 1 <= from_lsn) {
        std::error_code ec;
        const uint64_t size = fs::file_size(path, ec);
        if (ec) {
          return Status::Internal("cannot stat wal segment " + path + ": " +
                                  ec.message());
        }
        sealed_bytes_ += size;
        expected_lsn = next_first;
        continue;
      }
    }
    std::string data;
    RFIDCEP_RETURN_IF_ERROR(ReadFile(path, &data));
    size_t valid = WalkSegment(data, &expected_lsn, from_lsn,
                               [&](const WalRecord& r) {
                                 recovered_actions_[WalActionKey(
                                     r.rule_id, r.action_seq,
                                     r.action_index)] = r.affected;
                               });
    if (valid < data.size()) {
      if (!final_segment) {
        return Status::InvalidArgument(
            "wal segment " + path + " is corrupt at offset " +
            std::to_string(valid) + " before the final segment");
      }
      // Torn tail: trim the final segment back to its last valid record.
      std::error_code ec;
      fs::resize_file(path, valid, ec);
      if (ec) {
        return Status::Internal("cannot truncate torn wal tail in " + path +
                                ": " + ec.message());
      }
      data.resize(valid);
    }
    if (final_segment) {
      // Reopen the last segment for appending.
      fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
      if (fd_ < 0) return Errno("cannot reopen wal segment " + path);
      segment_path_ = path;
      segment_bytes_ = data.size();
    } else {
      sealed_bytes_ += data.size();
    }
  }
  recovered_lsn_ = expected_lsn - 1;
  next_lsn_ = expected_lsn;
  if (fd_ < 0) RFIDCEP_RETURN_IF_ERROR(OpenSegment(next_lsn_));
  return Status::Ok();
}

Status Wal::OpenSegment(uint64_t first_lsn) const {
  std::string path = dir_ + "/" + SegmentName(first_lsn);
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd < 0) return Errno("cannot create wal segment " + path);
  fd_ = fd;
  segment_path_ = std::move(path);
  segment_bytes_ = 0;
  return Status::Ok();
}

Status Wal::FlushLocked() const {
  if (!io_error_.ok()) return io_error_;
  size_t written = 0;
  while (written < buffer_.size()) {
    ssize_t n =
        ::write(fd_, buffer_.data() + written, buffer_.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      io_error_ = Errno("write " + segment_path_);
      return io_error_;
    }
    written += static_cast<size_t>(n);
  }
  buffer_.clear();
  return Status::Ok();
}

Status Wal::RotateLocked() const {
  RFIDCEP_RETURN_IF_ERROR(FlushLocked());
  if (options_.fsync != FsyncPolicy::kNone && ::fsync(fd_) != 0) {
    return Errno("fsync " + segment_path_);
  }
  ::close(fd_);
  fd_ = -1;
  sealed_bytes_ += segment_bytes_;
  return OpenSegment(next_lsn_);
}

Result<uint64_t> Wal::Append(WalRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!io_error_.ok()) return io_error_;
  if (segment_bytes_ >= options_.segment_bytes) {
    Status rotated = RotateLocked();
    if (!rotated.ok()) {
      io_error_ = rotated;
      return rotated;
    }
  }
  record.lsn = next_lsn_;
  std::string payload = EncodeRecord(record);
  codec::AppendFrame(payload, &buffer_);
  segment_bytes_ += kFrameHeader + payload.size();
  ++next_lsn_;
  // Batch boundaries come from callers via Flush()/Sync(); the size cap
  // just bounds memory if a caller never marks one.
  constexpr size_t kMaxBufferBytes = 256u << 10;
  if (options_.fsync == FsyncPolicy::kEveryAppend) {
    RFIDCEP_RETURN_IF_ERROR(SyncLocked());
  } else if (buffer_.size() >= kMaxBufferBytes) {
    RFIDCEP_RETURN_IF_ERROR(FlushLocked());
  }
  return record.lsn;
}

Status Wal::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  return FlushLocked();
}

Status Wal::SyncLocked() const {
  RFIDCEP_RETURN_IF_ERROR(FlushLocked());
  if (fd_ >= 0 && ::fsync(fd_) != 0) {
    io_error_ = Errno("fsync " + segment_path_);
    return io_error_;
  }
  return Status::Ok();
}

Status Wal::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  return SyncLocked();
}

Status Wal::Replay(uint64_t after_lsn,
                   const std::function<Status(const WalRecord&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  RFIDCEP_RETURN_IF_ERROR(FlushLocked());  // Replay reads the files.
  std::vector<std::string> names = ListSegments(dir_);
  // Start at the segment holding after_lsn + 1: the last one created at
  // or below that LSN. Earlier segments are not read.
  size_t start = 0;
  uint64_t expected_lsn = 1;
  for (size_t i = 1; i < names.size(); ++i) {
    const uint64_t first = SegmentFirstLsn(names[i]);
    if (first == 0 || first > after_lsn + 1) break;
    start = i;
    expected_lsn = first;
  }
  for (size_t i = start; i < names.size(); ++i) {
    const std::string path = dir_ + "/" + names[i];
    std::string data;
    RFIDCEP_RETURN_IF_ERROR(ReadFile(path, &data));
    Status status;
    size_t valid = WalkSegment(data, &expected_lsn, after_lsn,
                               [&](const WalRecord& r) {
                                 if (status.ok()) status = fn(r);
                               });
    RFIDCEP_RETURN_IF_ERROR(status);
    if (valid < data.size()) {
      // Open() already trimmed torn tails, so mid-replay damage means the
      // files changed underneath us.
      return Status::Internal("wal segment " + path +
                              " became invalid at offset " +
                              std::to_string(valid) + " during replay");
    }
  }
  return Status::Ok();
}

uint64_t Wal::last_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_lsn_ - 1;
}

uint64_t Wal::total_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sealed_bytes_ + segment_bytes_;
}

Result<uint64_t> ReplayWalIntoDatabase(const Wal& wal, Database* db,
                                       uint64_t after_lsn) {
  uint64_t last = after_lsn;
  // A log holds one statement text per rule action, repeated on every
  // firing: parse each distinct text once.
  std::unordered_map<std::string, SqlStatement> parsed;
  Status replayed = wal.Replay(after_lsn, [&](const WalRecord& record) {
    if (record.kind != WalRecordKind::kSql) {
      // Procedure/alarm frames have no store effect; their keys matter
      // only for dedup, which AttachWal reads from recovered_actions().
      last = record.lsn;
      return Status::Ok();
    }
    auto failed = [&](const Status& status) {
      return Status(status.code(), "replaying wal lsn " +
                                       std::to_string(record.lsn) + " (" +
                                       record.sql + "): " + status.message());
    };
    auto stmt = parsed.find(record.sql);
    if (stmt == parsed.end()) {
      Result<SqlStatement> parsed_stmt = ParseSql(record.sql);
      if (!parsed_stmt.ok()) return failed(parsed_stmt.status());
      stmt = parsed.emplace(record.sql, std::move(*parsed_stmt)).first;
    }
    Result<ExecResult> result = ExecuteSql(stmt->second, db, record.params);
    if (!result.ok()) return failed(result.status());
    last = record.lsn;
    return Status::Ok();
  });
  RFIDCEP_RETURN_IF_ERROR(replayed);
  return last;
}

}  // namespace rfidcep::store
