// Little-endian binary codec and CRC framing shared by the store's two
// on-disk formats: WAL segments (store/wal.h) and the store image
// (store/store_image.h). Both are sequences of frames
//
//   u32 payload length | u32 CRC-32 of the payload | payload
//
// whose payloads are built with Enc and read back with Dec; store values
// travel as a kind byte followed by the kind's fixed-width or
// length-prefixed body (PutValue / GetValue).

#ifndef RFIDCEP_STORE_CODEC_H_
#define RFIDCEP_STORE_CODEC_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/crc32.h"
#include "store/value.h"

namespace rfidcep::store::codec {

// Frame header: u32 payload length + u32 CRC32 of the payload.
inline constexpr size_t kFrameHeader = 8;
// Generous per-frame cap; anything larger is treated as corruption.
inline constexpr uint32_t kMaxPayloadBytes = 64u << 20;

class Enc {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { Fixed(v, 4); }
  void U64(uint64_t v) { Fixed(v, 8); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    out_.append(s);
  }
  size_t size() const { return out_.size(); }
  void Clear() { out_.clear(); }
  std::string_view View() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  void Fixed(uint64_t v, int width) {
    char bytes[8];
    for (int i = 0; i < width; ++i) bytes[i] = static_cast<char>(v >> (8 * i));
    out_.append(bytes, static_cast<size_t>(width));
  }

  std::string out_;
};

// Reads what Enc wrote. A read past the end yields zero values and
// clears ok(); callers check ok() / AtEnd() once after a whole payload.
class Dec {
 public:
  explicit Dec(std::string_view data) : data_(data) {}

  uint8_t U8() {
    if (!Need(1)) return 0;
    return static_cast<uint8_t>(data_[pos_++]);
  }
  uint32_t U32() { return static_cast<uint32_t>(Fixed(4)); }
  uint64_t U64() { return Fixed(8); }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  std::string Str() { return std::string(StrView()); }
  // A view into the decoded buffer, valid as long as it is.
  std::string_view StrView() {
    uint32_t n = U32();
    if (!Need(n)) return {};
    std::string_view s = data_.substr(pos_, n);
    pos_ += n;
    return s;
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return ok_ && pos_ == data_.size(); }

 private:
  bool Need(size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }
  uint64_t Fixed(int width) {
    if (!Need(static_cast<size_t>(width))) return 0;
    uint64_t v = 0;
    for (int i = 0; i < width; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += static_cast<size_t>(width);
    return v;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

inline void PutValue(Enc& enc, const Value& v) {
  enc.U8(static_cast<uint8_t>(v.kind()));
  switch (v.kind()) {
    case ValueKind::kNull:
    case ValueKind::kUc:
      break;
    case ValueKind::kInt:
      enc.I64(v.AsInt());
      break;
    case ValueKind::kDouble:
      enc.U64(std::bit_cast<uint64_t>(v.AsDouble()));
      break;
    case ValueKind::kString:
      enc.Str(v.AsString());
      break;
    case ValueKind::kTime:
      enc.I64(v.AsTime());
      break;
  }
}

// Decodes one value, a string as a view into `dec`'s buffer. An
// unknown kind byte yields NULL; the caller's payload check then fails
// (the kind's body is missing or misread), so corruption is never
// silently accepted.
inline ValueView GetValueView(Dec& dec) {
  ValueView v;
  v.kind = static_cast<ValueKind>(dec.U8());
  switch (v.kind) {
    case ValueKind::kNull:
    case ValueKind::kUc:
      break;
    case ValueKind::kInt:
    case ValueKind::kDouble:
    case ValueKind::kTime:
      v.bits = dec.U64();
      break;
    case ValueKind::kString:
      v.text = dec.StrView();
      break;
    default:
      v.kind = ValueKind::kNull;
      break;
  }
  return v;
}

inline Value GetValue(Dec& dec) { return ToValue(GetValueView(dec)); }

// Appends one frame (header + `payload`) to `out`.
inline void AppendFrame(std::string_view payload, std::string* out) {
  Enc header;
  header.U32(static_cast<uint32_t>(payload.size()));
  header.U32(common::Crc32(payload.data(), payload.size()));
  out->append(header.View());
  out->append(payload);
}

// Parses the frame header at the start of `header` (kFrameHeader bytes)
// into its payload length and CRC. False when the length exceeds the cap.
inline bool ParseFrameHeader(std::string_view header, uint32_t* len,
                             uint32_t* crc) {
  Dec dec(header.substr(0, kFrameHeader));
  *len = dec.U32();
  *crc = dec.U32();
  return dec.ok() && *len <= kMaxPayloadBytes;
}

inline bool PayloadMatches(std::string_view payload, uint32_t crc) {
  return common::Crc32(payload.data(), payload.size()) == crc;
}

}  // namespace rfidcep::store::codec

#endif  // RFIDCEP_STORE_CODEC_H_
