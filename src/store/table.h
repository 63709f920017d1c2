// In-memory table with tombstoned rows and optional single-column hash
// indexes.
//
// Rows are packed: each row is num_columns fixed-width cells, a kind tag
// plus an 8-byte payload (an int, a time, the bits of a double, or the
// id of a string in the table's dictionary). Cells live in chunks of
// kChunkRows rows; only the first grows by reallocation, so a large
// table never copies the rows it holds. DELETE clears a row's live
// bit; compaction runs once more than half the rows are dead, keeps
// row order, and rebuilds the dictionary from the live rows.
//
// A hash index maps a cell — kind and payload, so Int(1), Double(1.0)
// and Time(1) are distinct keys — to the ids of the live rows holding
// it, in row order. Index inserts and probes hash the cell, never a
// string; a probe for a string the dictionary has never seen matches
// nothing.
//
// The API speaks Row: every visitor decodes into a Row owned by that
// one call and reused across the rows it visits, so const methods stay
// safe to run concurrently.

#ifndef RFIDCEP_STORE_TABLE_H_
#define RFIDCEP_STORE_TABLE_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "store/schema.h"

namespace rfidcep::store {

using Row = std::vector<Value>;

class Table {
 public:
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  // Live row count.
  size_t size() const { return live_count_; }

  // Heap bytes held by the rows, the dictionary and the indexes,
  // computed from their sizes (not by asking the allocator).
  size_t bytes() const;

  // Appends a row after schema coercion. The row must have exactly
  // schema().num_columns() values.
  Status Insert(Row row);

  // Insert for values borrowed from a decode buffer (a store image):
  // the same arity check and schema coercion, but strings go straight
  // from their views into the dictionary.
  Status Append(std::span<const ValueView> values);

  // Visits every live row. The visitor may not mutate the table.
  void Scan(const std::function<void(const Row&)>& visitor) const;

  // Visits live rows matching `pred`. Returns the number visited.
  size_t ScanWhere(const std::function<bool(const Row&)>& pred,
                   const std::function<void(const Row&)>& visitor) const;

  // Collects live rows satisfying `pred` (nullptr = all rows).
  std::vector<Row> SelectWhere(
      const std::function<bool(const Row&)>& pred) const;

  // Indexed lookup: rows whose `column_index` value SQL-equals `key`.
  // Falls back to a scan when the column has no index.
  std::vector<Row> Lookup(size_t column_index, const Value& key) const;

  // Keyed variants visiting only rows whose indexed `column_index` value
  // equals `key` (without an index they fall back to the unkeyed
  // variant with `pred` alone); the residual `pred` is applied on top.
  // These are what makes per-event rule actions like
  // `UPDATE ... WHERE object_epc = o` O(1) instead of O(table).
  std::vector<Row> SelectWhereKeyed(
      size_t column_index, const Value& key,
      const std::function<bool(const Row&)>& pred) const;
  Result<size_t> UpdateWhereKeyed(size_t column_index, const Value& key,
                                  const std::function<bool(const Row&)>& pred,
                                  const std::function<void(Row*)>& mutate);
  size_t DeleteWhereKeyed(size_t column_index, const Value& key,
                          const std::function<bool(const Row&)>& pred);

  // Updates rows matching `pred` via `mutate` (which edits the row in
  // place); re-coerces the row and re-indexes the cells that changed. A
  // row whose new values fail coercion is left as it was. Returns rows
  // updated.
  Result<size_t> UpdateWhere(const std::function<bool(const Row&)>& pred,
                             const std::function<void(Row*)>& mutate);

  // Deletes rows matching `pred`; returns rows deleted.
  size_t DeleteWhere(const std::function<bool(const Row&)>& pred);

  // Builds a hash index on `column_name`. Idempotent.
  Status CreateIndex(std::string_view column_name);
  bool HasIndex(size_t column_index) const {
    return FindIndex(column_index) != nullptr;
  }

 private:
  static constexpr uint32_t kChunkRows = 1024;

  // The strings of one table, each stored once under a dense uint32 id.
  class StringDictionary {
   public:
    StringDictionary() = default;
    // The map's keys view the strings: a copy would view the original's.
    StringDictionary(const StringDictionary&) = delete;
    StringDictionary& operator=(const StringDictionary&) = delete;
    StringDictionary(StringDictionary&&) = default;
    StringDictionary& operator=(StringDictionary&&) = default;

    uint32_t Intern(std::string_view s);
    std::optional<uint32_t> Find(std::string_view s) const;
    const std::string& at(uint32_t id) const { return strings_[id]; }
    // Heap bytes, computed from the sizes of the strings and the map.
    size_t bytes() const;

   private:
    std::deque<std::string> strings_;  // A deque never moves its strings.
    std::unordered_map<std::string_view, uint32_t> ids_;
  };

  // One cell: the value's kind and its 8 payload bytes.
  struct Cell {
    uint64_t bits = 0;
    ValueKind kind = ValueKind::kNull;
    friend bool operator==(const Cell&, const Cell&) = default;
  };
  struct CellHash {
    size_t operator()(const Cell& cell) const {
      return std::hash<uint64_t>()(cell.bits ^
                                   (static_cast<uint64_t>(cell.kind) << 56));
    }
  };
  // Row ids by cell, each bucket in ascending row order.
  using Index = std::unordered_map<Cell, std::vector<uint32_t>, CellHash>;

  // One row's cells, on the stack for rows of up to 8 columns.
  class CellBuffer {
   public:
    explicit CellBuffer(size_t size) : size_(size) {
      if (size > inline_.size()) heap_.resize(size);
    }
    Cell& operator[](size_t i) { return data()[i]; }
    std::span<const Cell> span() { return {data(), size_}; }

   private:
    Cell* data() { return heap_.empty() ? inline_.data() : heap_.data(); }
    std::array<Cell, 8> inline_;
    std::vector<Cell> heap_;
    size_t size_;
  };

  // kChunkRows rows: payloads and kinds row-major, plus live bits.
  struct Chunk {
    std::vector<uint64_t> bits;
    std::vector<ValueKind> kinds;
    std::array<uint64_t, kChunkRows / 64> live{};
  };

  Cell CellAt(uint32_t row, size_t column) const {
    const Chunk& chunk = chunks_[row / kChunkRows];
    const size_t at = (row % kChunkRows) * schema_.num_columns() + column;
    return Cell{chunk.bits[at], chunk.kinds[at]};
  }
  bool IsLive(uint32_t row) const {
    return (chunks_[row / kChunkRows].live[(row % kChunkRows) / 64] >>
            (row % 64)) &
           1;
  }
  void SetLive(uint32_t row, bool live);
  void SetCell(uint32_t row, size_t column, Cell cell);

  // The cell of a value that is not a string.
  static Cell ScalarCell(const Value& value);
  // The cell of any value; interns strings.
  Cell Encode(const Value& value);
  void Decode(Cell cell, Value* out) const;
  void DecodeRow(uint32_t row, Row* out) const;
  // The cell `key` is stored as, if the table can hold it at all.
  std::optional<Cell> FindCell(const Value& key) const;

  Status CoerceRow(Row* row) const;
  Status AppendCells(std::span<const Cell> cells);
  // Re-coerces `row`, the mutated copy of row `id`, and stores the cells
  // that changed.
  Status StoreUpdate(uint32_t id, Row* row);
  void Kill(uint32_t id);

  const Index* FindIndex(size_t column) const;
  // Live rows whose indexed `column` cell is the one `key` is stored as
  // and SQL-equals it; nullptr when none can.
  const std::vector<uint32_t>* Bucket(const Index& index,
                                      const Value& key) const;
  static void BucketInsert(Index* index, Cell cell, uint32_t row);
  static void BucketErase(Index* index, Cell cell, uint32_t row);
  void MaybeCompact();

  template <typename Visit>
  void ForEachLive(Visit&& visit) const;

  std::string name_;
  Schema schema_;
  std::vector<Chunk> chunks_;
  uint32_t rows_ = 0;  // Rows appended since the last compaction.
  size_t live_count_ = 0;
  StringDictionary strings_;
  std::vector<std::pair<size_t, Index>> indexes_;  // (column, index)
};

}  // namespace rfidcep::store

#endif  // RFIDCEP_STORE_TABLE_H_
