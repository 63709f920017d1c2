#include "store/table.h"

#include <algorithm>
#include <bit>
#include <limits>

namespace rfidcep::store {
namespace {

// Whether Schema::CoerceValue leaves a value of `kind` as it is in a
// column of `type`.
bool StoresAsIs(ColumnType type, ValueKind kind) {
  switch (type) {
    case ColumnType::kAny:
      return true;
    case ColumnType::kInt:
      return kind == ValueKind::kNull || kind == ValueKind::kInt;
    case ColumnType::kDouble:
      return kind == ValueKind::kNull || kind == ValueKind::kDouble;
    case ColumnType::kString:
      return kind == ValueKind::kNull || kind == ValueKind::kString;
    case ColumnType::kTime:
      return kind == ValueKind::kNull || kind == ValueKind::kTime ||
             kind == ValueKind::kUc;
  }
  return false;
}

// Estimated heap bytes of one node of a std::unordered_map<K, V>: the
// value, the next pointer and the cached hash.
template <typename K, typename V>
constexpr size_t MapNodeBytes() {
  return sizeof(std::pair<const K, V>) + 2 * sizeof(void*);
}

}  // namespace

uint32_t Table::StringDictionary::Intern(std::string_view s) {
  auto it = ids_.find(s);
  if (it != ids_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(strings_.size());
  const std::string& stored = strings_.emplace_back(s);
  ids_.emplace(stored, id);
  return id;
}

std::optional<uint32_t> Table::StringDictionary::Find(std::string_view s) const {
  auto it = ids_.find(s);
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

size_t Table::StringDictionary::bytes() const {
  size_t bytes = strings_.size() * sizeof(std::string) +
                 ids_.size() * MapNodeBytes<std::string_view, uint32_t>() +
                 ids_.bucket_count() * sizeof(void*);
  for (const std::string& s : strings_) {
    // Strings past the small-string buffer own a heap block.
    if (s.capacity() > std::string().capacity()) bytes += s.capacity() + 1;
  }
  return bytes;
}

size_t Table::bytes() const {
  size_t bytes = chunks_.capacity() * sizeof(Chunk) + strings_.bytes();
  for (const Chunk& chunk : chunks_) {
    bytes += chunk.bits.capacity() * sizeof(uint64_t) +
             chunk.kinds.capacity() * sizeof(ValueKind);
  }
  for (const auto& [column, index] : indexes_) {
    bytes += index.size() * MapNodeBytes<Cell, std::vector<uint32_t>>() +
             index.bucket_count() * sizeof(void*);
    for (const auto& [cell, rows] : index) {
      bytes += rows.capacity() * sizeof(uint32_t);
    }
  }
  return bytes;
}

void Table::SetLive(uint32_t row, bool live) {
  uint64_t& word = chunks_[row / kChunkRows].live[(row % kChunkRows) / 64];
  const uint64_t bit = uint64_t{1} << (row % 64);
  word = live ? (word | bit) : (word & ~bit);
}

void Table::SetCell(uint32_t row, size_t column, Cell cell) {
  Chunk& chunk = chunks_[row / kChunkRows];
  const size_t at = (row % kChunkRows) * schema_.num_columns() + column;
  chunk.bits[at] = cell.bits;
  chunk.kinds[at] = cell.kind;
}

Table::Cell Table::ScalarCell(const Value& value) {
  switch (value.kind()) {
    case ValueKind::kInt:
      return Cell{static_cast<uint64_t>(value.AsInt()), ValueKind::kInt};
    case ValueKind::kDouble:
      return Cell{std::bit_cast<uint64_t>(value.AsDouble()),
                  ValueKind::kDouble};
    case ValueKind::kTime:
      return Cell{static_cast<uint64_t>(value.AsTime()), ValueKind::kTime};
    default:
      return Cell{0, value.kind()};
  }
}

Table::Cell Table::Encode(const Value& value) {
  if (value.kind() != ValueKind::kString) return ScalarCell(value);
  return Cell{strings_.Intern(value.AsString()), ValueKind::kString};
}

void Table::Decode(Cell cell, Value* out) const {
  switch (cell.kind) {
    case ValueKind::kNull:
      *out = Value::Null();
      return;
    case ValueKind::kInt:
      *out = Value::Int(static_cast<int64_t>(cell.bits));
      return;
    case ValueKind::kDouble:
      *out = Value::Double(std::bit_cast<double>(cell.bits));
      return;
    case ValueKind::kString:
      out->AssignString(strings_.at(static_cast<uint32_t>(cell.bits)));
      return;
    case ValueKind::kTime:
      *out = Value::Time(static_cast<TimePoint>(cell.bits));
      return;
    case ValueKind::kUc:
      *out = Value::Uc();
      return;
  }
}

void Table::DecodeRow(uint32_t row, Row* out) const {
  const size_t ncols = schema_.num_columns();
  out->resize(ncols);
  for (size_t c = 0; c < ncols; ++c) Decode(CellAt(row, c), &(*out)[c]);
}

std::optional<Table::Cell> Table::FindCell(const Value& key) const {
  if (key.kind() != ValueKind::kString) return ScalarCell(key);
  std::optional<uint32_t> id = strings_.Find(key.AsString());
  if (!id.has_value()) return std::nullopt;
  return Cell{*id, ValueKind::kString};
}

Status Table::CoerceRow(Row* row) const {
  if (row->size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "table '" + name_ + "' expects " +
        std::to_string(schema_.num_columns()) + " values, got " +
        std::to_string(row->size()));
  }
  for (size_t i = 0; i < row->size(); ++i) {
    RFIDCEP_RETURN_IF_ERROR(schema_.CoerceValue(i, &(*row)[i]));
  }
  return Status::Ok();
}

Status Table::AppendCells(std::span<const Cell> cells) {
  if (rows_ == std::numeric_limits<uint32_t>::max()) {
    return Status::OutOfRange("table '" + name_ + "' is full");
  }
  const uint32_t row = rows_;
  if (row % kChunkRows == 0 && row / kChunkRows == chunks_.size()) {
    Chunk& chunk = chunks_.emplace_back();
    // The first chunk grows with the table, so small tables stay small;
    // later ones are allocated whole and never move.
    if (chunks_.size() > 1) {
      chunk.bits.reserve(size_t{kChunkRows} * cells.size());
      chunk.kinds.reserve(size_t{kChunkRows} * cells.size());
    }
  }
  Chunk& chunk = chunks_.back();
  for (const Cell& cell : cells) {
    chunk.bits.push_back(cell.bits);
    chunk.kinds.push_back(cell.kind);
  }
  ++rows_;
  SetLive(row, true);
  ++live_count_;
  for (auto& [column, index] : indexes_) {
    index[cells[column]].push_back(row);
  }
  return Status::Ok();
}

Status Table::Insert(Row row) {
  RFIDCEP_RETURN_IF_ERROR(CoerceRow(&row));
  CellBuffer cells(row.size());
  for (size_t c = 0; c < row.size(); ++c) cells[c] = Encode(row[c]);
  return AppendCells(cells.span());
}

Status Table::Append(std::span<const ValueView> values) {
  if (values.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "table '" + name_ + "' expects " +
        std::to_string(schema_.num_columns()) + " values, got " +
        std::to_string(values.size()));
  }
  CellBuffer cells(values.size());
  for (size_t c = 0; c < values.size(); ++c) {
    const ValueView& view = values[c];
    if (!StoresAsIs(schema_.columns()[c].type, view.kind)) {
      Value value = ToValue(view);
      RFIDCEP_RETURN_IF_ERROR(schema_.CoerceValue(c, &value));
      cells[c] = Encode(value);
    } else if (view.kind == ValueKind::kString) {
      cells[c] = Cell{strings_.Intern(view.text), ValueKind::kString};
    } else {
      cells[c] = Cell{view.kind == ValueKind::kUc ? 0 : view.bits, view.kind};
    }
  }
  return AppendCells(cells.span());
}

template <typename Visit>
void Table::ForEachLive(Visit&& visit) const {
  for (uint32_t chunk = 0; chunk < chunks_.size(); ++chunk) {
    const uint32_t first = chunk * kChunkRows;
    const uint32_t end = std::min(rows_, first + kChunkRows);
    for (uint32_t row = first; row < end; ++row) {
      if (IsLive(row)) visit(row);
    }
  }
}

void Table::Scan(const std::function<void(const Row&)>& visitor) const {
  Row row;
  ForEachLive([&](uint32_t id) {
    DecodeRow(id, &row);
    visitor(row);
  });
}

size_t Table::ScanWhere(const std::function<bool(const Row&)>& pred,
                        const std::function<void(const Row&)>& visitor) const {
  size_t n = 0;
  Row row;
  ForEachLive([&](uint32_t id) {
    DecodeRow(id, &row);
    if (pred(row)) {
      visitor(row);
      ++n;
    }
  });
  return n;
}

std::vector<Row> Table::SelectWhere(
    const std::function<bool(const Row&)>& pred) const {
  std::vector<Row> out;
  Row row;
  ForEachLive([&](uint32_t id) {
    DecodeRow(id, &row);
    if (!pred || pred(row)) out.push_back(row);
  });
  return out;
}

const Table::Index* Table::FindIndex(size_t column) const {
  for (const auto& [indexed, index] : indexes_) {
    if (indexed == column) return &index;
  }
  return nullptr;
}

const std::vector<uint32_t>* Table::Bucket(const Index& index,
                                           const Value& key) const {
  // A bucket holds one exact cell, which SQL-equals the key unless the
  // key equals nothing at all (NULL, NaN).
  if (!key.EqualsSql(key)) return nullptr;
  std::optional<Cell> cell = FindCell(key);
  if (!cell.has_value()) return nullptr;
  auto it = index.find(*cell);
  return it == index.end() ? nullptr : &it->second;
}

std::vector<Row> Table::Lookup(size_t column_index, const Value& key) const {
  if (FindIndex(column_index) == nullptr) {
    return SelectWhere(
        [&](const Row& row) { return row[column_index].EqualsSql(key); });
  }
  return SelectWhereKeyed(column_index, key, nullptr);
}

std::vector<Row> Table::SelectWhereKeyed(
    size_t column_index, const Value& key,
    const std::function<bool(const Row&)>& pred) const {
  const Index* index = FindIndex(column_index);
  if (index == nullptr) return SelectWhere(pred);
  std::vector<Row> out;
  const std::vector<uint32_t>* bucket = Bucket(*index, key);
  if (bucket == nullptr) return out;
  Row row;
  for (uint32_t id : *bucket) {
    DecodeRow(id, &row);
    if (!pred || pred(row)) out.push_back(row);
  }
  return out;
}

Status Table::StoreUpdate(uint32_t id, Row* row) {
  if (row->size() != schema_.num_columns()) {
    return Status::Internal("update changed arity of table '" + name_ + "'");
  }
  RFIDCEP_RETURN_IF_ERROR(CoerceRow(row));
  for (size_t c = 0; c < row->size(); ++c) {
    const Cell before = CellAt(id, c);
    const Value& value = (*row)[c];
    // An unchanged string is compared, not looked up again.
    if (before.kind == ValueKind::kString &&
        value.kind() == ValueKind::kString &&
        strings_.at(static_cast<uint32_t>(before.bits)) == value.AsString()) {
      continue;
    }
    const Cell after = Encode(value);
    if (after == before) continue;
    for (auto& [column, index] : indexes_) {
      if (column != c) continue;
      BucketErase(&index, before, id);
      BucketInsert(&index, after, id);
    }
    SetCell(id, c, after);
  }
  return Status::Ok();
}

Result<size_t> Table::UpdateWhereKeyed(
    size_t column_index, const Value& key,
    const std::function<bool(const Row&)>& pred,
    const std::function<void(Row*)>& mutate) {
  const Index* index = FindIndex(column_index);
  if (index == nullptr) return UpdateWhere(pred, mutate);
  const std::vector<uint32_t>* bucket = Bucket(*index, key);
  if (bucket == nullptr) return size_t{0};
  // Updates re-index rows, which may change this bucket: copy it first.
  const std::vector<uint32_t> ids = *bucket;
  size_t updated = 0;
  Row row;
  for (uint32_t id : ids) {
    DecodeRow(id, &row);
    if (pred && !pred(row)) continue;
    mutate(&row);
    RFIDCEP_RETURN_IF_ERROR(StoreUpdate(id, &row));
    ++updated;
  }
  return updated;
}

Result<size_t> Table::UpdateWhere(const std::function<bool(const Row&)>& pred,
                                  const std::function<void(Row*)>& mutate) {
  size_t updated = 0;
  Row row;
  for (uint32_t id = 0; id < rows_; ++id) {
    if (!IsLive(id)) continue;
    DecodeRow(id, &row);
    if (!pred(row)) continue;
    mutate(&row);
    RFIDCEP_RETURN_IF_ERROR(StoreUpdate(id, &row));
    ++updated;
  }
  return updated;
}

void Table::Kill(uint32_t id) {
  for (auto& [column, index] : indexes_) {
    BucketErase(&index, CellAt(id, column), id);
  }
  SetLive(id, false);
  --live_count_;
}

size_t Table::DeleteWhereKeyed(size_t column_index, const Value& key,
                               const std::function<bool(const Row&)>& pred) {
  const Index* index = FindIndex(column_index);
  if (index == nullptr) return DeleteWhere(pred);
  const std::vector<uint32_t>* bucket = Bucket(*index, key);
  if (bucket == nullptr) return 0;
  const std::vector<uint32_t> ids = *bucket;
  size_t deleted = 0;
  Row row;
  for (uint32_t id : ids) {
    if (pred) {
      DecodeRow(id, &row);
      if (!pred(row)) continue;
    }
    Kill(id);
    ++deleted;
  }
  if (deleted > 0) MaybeCompact();
  return deleted;
}

size_t Table::DeleteWhere(const std::function<bool(const Row&)>& pred) {
  size_t deleted = 0;
  Row row;
  for (uint32_t id = 0; id < rows_; ++id) {
    if (!IsLive(id)) continue;
    DecodeRow(id, &row);
    if (!pred(row)) continue;
    Kill(id);
    ++deleted;
  }
  if (deleted > 0) MaybeCompact();
  return deleted;
}

Status Table::CreateIndex(std::string_view column_name) {
  int column = schema_.FindColumn(column_name);
  if (column < 0) {
    return Status::NotFound("no column '" + std::string(column_name) +
                            "' in table '" + name_ + "'");
  }
  const size_t column_index = static_cast<size_t>(column);
  if (HasIndex(column_index)) return Status::Ok();
  Index& index = indexes_.emplace_back(column_index, Index()).second;
  ForEachLive(
      [&](uint32_t id) { index[CellAt(id, column_index)].push_back(id); });
  return Status::Ok();
}

void Table::BucketInsert(Index* index, Cell cell, uint32_t row) {
  std::vector<uint32_t>& rows = (*index)[cell];
  rows.insert(std::lower_bound(rows.begin(), rows.end(), row), row);
}

void Table::BucketErase(Index* index, Cell cell, uint32_t row) {
  auto it = index->find(cell);
  if (it == index->end()) return;
  std::vector<uint32_t>& rows = it->second;
  auto at = std::lower_bound(rows.begin(), rows.end(), row);
  if (at != rows.end() && *at == row) rows.erase(at);
  if (rows.empty()) index->erase(it);
}

void Table::MaybeCompact() {
  if (rows_ < 64 || live_count_ * 2 > rows_) return;
  // Re-append the live rows, in order, to an empty table with the same
  // indexes; only their strings move into its dictionary.
  Table compacted(name_, schema_);
  for (const auto& [column, index] : indexes_) {
    compacted.indexes_.emplace_back(column, Index());
  }
  CellBuffer cells(schema_.num_columns());
  ForEachLive([&](uint32_t id) {
    for (size_t c = 0; c < schema_.num_columns(); ++c) {
      Cell cell = CellAt(id, c);
      if (cell.kind == ValueKind::kString) {
        cell.bits = compacted.strings_.Intern(
            strings_.at(static_cast<uint32_t>(cell.bits)));
      }
      cells[c] = cell;
    }
    // Cannot fail: the table held more rows than this before.
    (void)compacted.AppendCells(cells.span());
  });
  *this = std::move(compacted);
}

}  // namespace rfidcep::store
