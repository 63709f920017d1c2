#include "store/store_image.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>
#include <vector>

#include "store/codec.h"

namespace rfidcep::store {
namespace {

namespace fs = std::filesystem;

using codec::Dec;
using codec::Enc;

constexpr std::string_view kMagic = "RCEDSTOREIMG";
constexpr uint32_t kVersion = 1;

constexpr uint8_t kHeaderTag = 'H';
constexpr uint8_t kTableTag = 'T';
constexpr uint8_t kRowsTag = 'R';

// A run of rows is cut into a new frame once its payload passes this;
// the writer hands the OS its buffer once that passes kFlushBytes.
constexpr size_t kRowsFrameBytes = 64u << 10;
constexpr size_t kFlushBytes = 256u << 10;

Status Corrupt(const std::string& path, const std::string& what) {
  return Status::InvalidArgument("store image " + path + ": " + what);
}

// Frames encoded payloads into a fixed-size buffer that is written out
// whenever it fills.
class FrameWriter {
 public:
  explicit FrameWriter(const std::string& path)
      : out_(path, std::ios::binary | std::ios::trunc) {
    buffer_.reserve(kFlushBytes + kRowsFrameBytes + 4096);
  }

  bool ok() const { return static_cast<bool>(out_); }
  uint64_t bytes() const { return written_ + buffer_.size(); }

  void Frame(std::string_view payload) {
    codec::AppendFrame(payload, &buffer_);
    if (buffer_.size() >= kFlushBytes) Flush();
  }

  bool Close() {
    Flush();
    out_.flush();
    out_.close();
    return !out_.fail();
  }

 private:
  void Flush() {
    out_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    written_ += buffer_.size();
    buffer_.clear();
  }

  std::ofstream out_;
  std::string buffer_;
  uint64_t written_ = 0;
};

// Reads one frame's payload at a time, checking its CRC.
class FrameReader {
 public:
  explicit FrameReader(const std::string& path)
      : path_(path), in_(path, std::ios::binary) {}

  bool is_open() const { return in_.is_open(); }

  Status Next(std::string_view* payload) {
    char header[codec::kFrameHeader];
    if (!in_.read(header, sizeof(header))) {
      return Corrupt(path_, "truncated before frame " + std::to_string(frame_));
    }
    uint32_t len = 0;
    uint32_t crc = 0;
    if (!codec::ParseFrameHeader(std::string_view(header, sizeof(header)),
                                 &len, &crc)) {
      return Corrupt(path_, "bad length in frame " + std::to_string(frame_));
    }
    payload_.resize(len);
    if (!in_.read(payload_.data(), len)) {
      return Corrupt(path_, "truncated in frame " + std::to_string(frame_));
    }
    if (!codec::PayloadMatches(payload_, crc)) {
      return Corrupt(path_, "CRC mismatch in frame " + std::to_string(frame_));
    }
    ++frame_;
    *payload = payload_;
    return Status::Ok();
  }

  bool AtEof() { return in_.peek() == std::char_traits<char>::eof(); }

 private:
  const std::string path_;
  std::ifstream in_;
  std::string payload_;
  uint64_t frame_ = 0;
};

void WriteTable(const Table& table, FrameWriter* out) {
  const Schema& schema = table.schema();
  Enc enc;
  enc.U8(kTableTag);
  enc.Str(table.name());
  enc.U32(static_cast<uint32_t>(schema.num_columns()));
  std::vector<uint32_t> indexed;
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    enc.Str(schema.columns()[c].name);
    enc.U8(static_cast<uint8_t>(schema.columns()[c].type));
    if (table.HasIndex(c)) indexed.push_back(static_cast<uint32_t>(c));
  }
  enc.U32(static_cast<uint32_t>(indexed.size()));
  for (uint32_t c : indexed) enc.U32(c);
  enc.U64(table.size());
  out->Frame(enc.View());

  // Rows go out in runs: a tag byte, then whole rows until the frame
  // passes kRowsFrameBytes. The reader knows the column count, so a run
  // needs no row count of its own.
  enc.Clear();
  table.Scan([&](const Row& row) {
    if (enc.size() == 0) enc.U8(kRowsTag);
    for (const Value& v : row) codec::PutValue(enc, v);
    if (enc.size() >= kRowsFrameBytes) {
      out->Frame(enc.View());
      enc.Clear();
    }
  });
  if (enc.size() > 0) out->Frame(enc.View());
}

Status ReadTable(const std::string& path, FrameReader* in, Database* db) {
  std::string_view payload;
  RFIDCEP_RETURN_IF_ERROR(in->Next(&payload));
  Dec dec(payload);
  if (dec.U8() != kTableTag) return Corrupt(path, "expected a table frame");
  std::string name = dec.Str();
  const uint32_t ncols = dec.U32();
  std::vector<Column> columns;
  for (uint32_t c = 0; dec.ok() && c < ncols; ++c) {
    Column column;
    column.name = dec.Str();
    const uint8_t type = dec.U8();
    if (type > static_cast<uint8_t>(ColumnType::kTime)) {
      return Corrupt(path, "bad column type in table " + name);
    }
    column.type = static_cast<ColumnType>(type);
    columns.push_back(std::move(column));
  }
  const uint32_t nindexed = dec.U32();
  std::vector<uint32_t> indexed;
  for (uint32_t i = 0; dec.ok() && i < nindexed; ++i) {
    indexed.push_back(dec.U32());
  }
  const uint64_t rows = dec.U64();
  if (!dec.AtEnd()) return Corrupt(path, "bad table frame for " + name);

  RFIDCEP_RETURN_IF_ERROR(db->CreateTable(name, Schema(std::move(columns))));
  Table* table = db->GetTable(name);
  for (uint32_t c : indexed) {
    if (c >= ncols) return Corrupt(path, "bad index column in table " + name);
    RFIDCEP_RETURN_IF_ERROR(
        table->CreateIndex(table->schema().columns()[c].name));
  }
  // Rows go straight from the frame into the table's cells: strings as
  // views of the payload, coerced and checked as Insert would.
  std::vector<ValueView> row(ncols);
  uint64_t loaded = 0;
  while (loaded < rows) {
    RFIDCEP_RETURN_IF_ERROR(in->Next(&payload));
    Dec run(payload);
    if (run.U8() != kRowsTag) return Corrupt(path, "expected a rows frame");
    do {
      if (loaded == rows) return Corrupt(path, "extra rows in table " + name);
      for (ValueView& value : row) value = codec::GetValueView(run);
      if (!run.ok()) return Corrupt(path, "bad row in table " + name);
      RFIDCEP_RETURN_IF_ERROR(table->Append(row));
      ++loaded;
    } while (!run.AtEnd());
  }
  return Status::Ok();
}

}  // namespace

Result<uint64_t> WriteStoreImage(const Database& db, uint64_t lsn,
                                 const std::string& path) {
  const std::string tmp = path + ".tmp";
  std::vector<std::string> names = db.TableNames();
  std::sort(names.begin(), names.end());
  uint64_t bytes = 0;
  {
    FrameWriter out(tmp);
    if (!out.ok()) return Status::Internal("cannot create store image " + tmp);
    Enc header;
    header.U8(kHeaderTag);
    header.Str(kMagic);
    header.U32(kVersion);
    header.U64(lsn);
    header.U32(static_cast<uint32_t>(names.size()));
    out.Frame(header.View());
    for (const std::string& name : names) {
      WriteTable(*db.GetTable(name), &out);
    }
    bytes = out.bytes();
    if (!out.Close()) return Status::Internal("cannot write store image " + tmp);
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    return Status::Internal("cannot replace store image " + path + ": " +
                            ec.message());
  }
  return bytes;
}

Result<uint64_t> ReadStoreImage(const std::string& path, Database* db) {
  FrameReader in(path);
  if (!in.is_open()) return Status::NotFound("no store image " + path);
  std::string_view payload;
  RFIDCEP_RETURN_IF_ERROR(in.Next(&payload));
  Dec dec(payload);
  const uint8_t tag = dec.U8();
  const std::string magic = dec.Str();
  const uint32_t version = dec.U32();
  const uint64_t lsn = dec.U64();
  const uint32_t tables = dec.U32();
  if (tag != kHeaderTag || magic != kMagic || !dec.AtEnd()) {
    return Corrupt(path, "bad header");
  }
  if (version != kVersion) {
    return Corrupt(path, "unsupported version " + std::to_string(version));
  }
  for (uint32_t t = 0; t < tables; ++t) {
    RFIDCEP_RETURN_IF_ERROR(ReadTable(path, &in, db));
  }
  if (!in.AtEof()) return Corrupt(path, "trailing bytes");
  return lsn;
}

Result<RecoveredStore> RecoverStore(const std::string& image_path,
                                    const std::string& wal_dir,
                                    uint64_t snapshot_lsn,
                                    WalOptions wal_options) {
  RecoveredStore out;
  out.db = std::make_unique<Database>();
  const Result<uint64_t> lsn = ReadStoreImage(image_path, out.db.get());
  const bool image_found = lsn.status().code() != StatusCode::kNotFound;
  if (lsn.ok()) out.image_lsn = *lsn;
  RFIDCEP_ASSIGN_OR_RETURN(
      out.wal, Wal::Open(wal_dir, wal_options,
                         std::min(out.image_lsn, snapshot_lsn)));
  // An image past the WAL's end describes effects the log no longer
  // holds; trusting it would diverge from the log, the source of truth.
  // RestoreState refuses a snapshot in the same position.
  const bool image_ok = lsn.ok() && out.image_lsn <= out.wal->last_lsn();
  if (!image_ok) {
    out.image_fallback = image_found || out.wal->last_lsn() > 0;
    out.image_lsn = 0;
    out.db = std::make_unique<Database>();
    RFIDCEP_RETURN_IF_ERROR(out.db->InstallRfidSchema());
  }
  RFIDCEP_ASSIGN_OR_RETURN(
      uint64_t last,
      ReplayWalIntoDatabase(*out.wal, out.db.get(), out.image_lsn));
  out.replayed_records = last - out.image_lsn;
  return out;
}

}  // namespace rfidcep::store
