// Store images: a checkpointed copy of the whole RFID store, so that a
// restart loads the store in time proportional to its size rather than
// re-executing the write-ahead log from LSN 1.
//
// An image holds every table's schema, its indexed columns and its live
// rows in scan order, plus the WAL LSN whose effects it reflects
// exactly. It is only a cache of a WAL prefix: the WAL stays the source
// of truth and no segment is ever deleted because an image covers it.
// Recovery (RecoverStore) loads the image and replays only the records
// above its LSN; an image that is missing, fails its CRC or decode, or
// claims an LSN past the WAL's end is dropped for a full replay from
// LSN 0, which rebuilds the same store more slowly.
//
// Format (docs/recovery.md "Store image"): a sequence of the WAL's
// frames (u32 length + u32 CRC-32 + payload, store/codec.h). Each
// payload starts with a tag byte:
//   'H'  magic, format version, LSN, table count
//   'T'  table name, columns (name, type), indexed column numbers,
//        live row count
//   'R'  a run of that table's rows, values in the WAL's value codec
// The 'R' frames of a table follow its 'T' frame until its row count is
// reached; the file ends after the last table's rows.

#ifndef RFIDCEP_STORE_STORE_IMAGE_H_
#define RFIDCEP_STORE_STORE_IMAGE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "store/database.h"
#include "store/wal.h"

namespace rfidcep::store {

// Writes `db` as an image reflecting WAL LSN `lsn`: to `path + ".tmp"`
// first, through a fixed-size buffer (peak memory does not grow with
// the store), then renamed over `path`. The file is not fsynced — a
// power loss may leave an empty or torn image, which recovery detects
// and replaces with a full replay. Returns the image size in bytes.
Result<uint64_t> WriteStoreImage(const Database& db, uint64_t lsn,
                                 const std::string& path);

// Loads the image at `path` into `db`, which must hold no tables, and
// returns its LSN. Rows go through Table::Append, straight from the
// frames into the table's cells, with the schema coercion and index
// upkeep of a live Insert. kNotFound when the
// file is missing; kInvalidArgument when it is torn, fails a CRC or does
// not decode. After a failure `db` may hold part of the image.
Result<uint64_t> ReadStoreImage(const std::string& path, Database* db);

// A store rebuilt from its image and WAL.
struct RecoveredStore {
  std::unique_ptr<Database> db;
  std::unique_ptr<Wal> wal;
  uint64_t image_lsn = 0;         // LSN of the image used; 0 = none.
  uint64_t replayed_records = 0;  // WAL records applied above it.
  // True when the WAL was replayed from LSN 0 although it holds records:
  // the image was missing, unreadable, or past the WAL's end.
  bool image_fallback = false;
};

// Recovery in docs/recovery.md order: read and check the image at
// `image_path` (LSN Li), open the WAL in `wal_dir` from
// min(Li, `snapshot_lsn`) — the snapshot's durable LSN bounds the dedup
// keys a restored engine can need — and replay the records above Li.
// Without a usable image the store starts empty with the RFID schema
// (Database::InstallRfidSchema) and the whole WAL is replayed.
Result<RecoveredStore> RecoverStore(const std::string& image_path,
                                    const std::string& wal_dir,
                                    uint64_t snapshot_lsn,
                                    WalOptions wal_options = {});

}  // namespace rfidcep::store

#endif  // RFIDCEP_STORE_STORE_IMAGE_H_
