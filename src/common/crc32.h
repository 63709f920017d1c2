// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over a byte
// range — the same checksum zlib's crc32() computes, so non-C++ clients
// can frame-check WAL segments and rfidcepd protocol frames with their
// standard library. Shared by the store WAL and the server framing
// codec so both layers stay bit-compatible.

#ifndef RFIDCEP_COMMON_CRC32_H_
#define RFIDCEP_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace rfidcep::common {

namespace crc32_internal {

// Slicing-by-8 tables: row 0 is the classic byte-at-a-time table; row k
// advances a byte's contribution through k more zero bytes, so eight
// input bytes fold into the CRC with eight independent lookups.
struct Tables {
  uint32_t t[8][256];
};

inline const Tables& GetTables() {
  static const Tables tables = [] {
    Tables s{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      s.t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        s.t[k][i] = (s.t[k - 1][i] >> 8) ^ s.t[0][s.t[k - 1][i] & 0xFFu];
      }
    }
    return s;
  }();
  return tables;
}

inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace crc32_internal

inline uint32_t Crc32(const char* data, size_t n) {
  const auto& t = crc32_internal::GetTables().t;
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = crc ^ crc32_internal::LoadLe32(p);
    const uint32_t hi = crc32_internal::LoadLe32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace rfidcep::common

#endif  // RFIDCEP_COMMON_CRC32_H_
