#include "sql/result_set.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "common/strings.h"

namespace hazy::sql {

namespace {

constexpr uint32_t kResultSetTag = persist::MakeTag('R', 'S', 'E', 'T');
// Any change to the layout below bumps this; Decode refuses other versions.
constexpr uint8_t kResultSetVersion = 2;

// Value kind tags (wire-frozen, like the status codes).
constexpr uint8_t kValNull = 0;
constexpr uint8_t kValInt64 = 1;
constexpr uint8_t kValDouble = 2;
constexpr uint8_t kValText = 3;

using storage::ColumnType;

Status CellError(const char* what, size_t row, size_t col) {
  return Status::InvalidArgument(
      StrFormat("%s at result cell (%zu, %zu)", what, row, col));
}

size_t BitmapBytes(size_t rows) { return (rows + 7) / 8; }

// Fixed-width arrays travel as their in-memory bytes: the storage coding
// (storage/coding.h) is little-endian by the same memcpy convention.
template <typename T>
void PutArray(const std::vector<T>& v, size_t n, persist::StateWriter* w) {
  w->PutBytes(std::string_view(reinterpret_cast<const char*>(v.data()),
                               n * sizeof(T)));
}

template <typename T>
Status GetArray(persist::StateReader* r, uint64_t n, std::vector<T>* v) {
  HAZY_RETURN_NOT_OK(r->CheckCount(n, sizeof(T)));
  std::string_view bytes;
  HAZY_RETURN_NOT_OK(r->GetBytes(n * sizeof(T), &bytes));
  v->resize(n);
  if (n > 0) std::memcpy(v->data(), bytes.data(), bytes.size());
  return Status::OK();
}

}  // namespace

void EncodeValue(persist::StateWriter* w, const storage::Value& v) {
  if (std::holds_alternative<std::monostate>(v)) {
    w->PutU8(kValNull);
  } else if (const auto* i = std::get_if<int64_t>(&v)) {
    w->PutU8(kValInt64);
    w->PutI64(*i);
  } else if (const auto* d = std::get_if<double>(&v)) {
    w->PutU8(kValDouble);
    w->PutDouble(*d);
  } else {
    w->PutU8(kValText);
    w->PutString(std::get<std::string>(v));
  }
}

Status DecodeValue(persist::StateReader* r, storage::Value* v) {
  uint8_t kind = 0;
  HAZY_RETURN_NOT_OK(r->GetU8(&kind));
  switch (kind) {
    case kValNull:
      *v = std::monostate{};
      return Status::OK();
    case kValInt64: {
      int64_t i = 0;
      HAZY_RETURN_NOT_OK(r->GetI64(&i));
      *v = i;
      return Status::OK();
    }
    case kValDouble: {
      double d = 0;
      HAZY_RETURN_NOT_OK(r->GetDouble(&d));
      *v = d;
      return Status::OK();
    }
    case kValText: {
      std::string s;
      HAZY_RETURN_NOT_OK(r->GetString(&s));
      *v = std::move(s);
      return Status::OK();
    }
    default:
      return Status::Corruption(StrFormat("unknown value kind %u", kind));
  }
}

// --- ResultRows --------------------------------------------------------------

size_t ResultRows::Column::size() const {
  switch (type) {
    case ColumnType::kInt64:
      return ints.size();
    case ColumnType::kDouble:
      return reals.size();
    case ColumnType::kText:
      return ends.size();
  }
  return 0;
}

uint64_t ResultRows::Column::BlockBytes(size_t n) const {
  const uint64_t values = type == ColumnType::kText ? 4 * n + text.size() : 8 * n;
  return 1 + (nulls.empty() ? 0 : BitmapBytes(n)) + values;
}

void ResultRows::Column::EncodeBlock(size_t n, persist::StateWriter* w) const {
  w->PutU8(nulls.empty() ? 0 : 1);
  if (!nulls.empty()) {
    // The bitmap stops at the last byte holding a NULL; pad it to every row.
    w->PutBytes(std::string_view(reinterpret_cast<const char*>(nulls.data()),
                                 nulls.size()));
    for (size_t i = nulls.size(); i < BitmapBytes(n); ++i) w->PutU8(0);
  }
  switch (type) {
    case ColumnType::kInt64:
      PutArray(ints, n, w);
      break;
    case ColumnType::kDouble:
      PutArray(reals, n, w);
      break;
    case ColumnType::kText: {
      size_t begin = 0;
      for (size_t end : ends) {
        w->PutU32(static_cast<uint32_t>(end - begin));
        begin = end;
      }
      w->PutBytes(text);
      break;
    }
  }
}

Status ResultRows::Column::DecodeBlock(std::string_view block, uint64_t n) {
  persist::StateReader r(block);
  uint8_t has_nulls = 0;
  HAZY_RETURN_NOT_OK(r.GetU8(&has_nulls));
  if (has_nulls > 1) {
    return Status::Corruption(StrFormat("bad null flag %u", has_nulls));
  }
  if (has_nulls == 1) {
    HAZY_RETURN_NOT_OK(r.CheckCount(BitmapBytes(n)));
    std::string_view bits;
    HAZY_RETURN_NOT_OK(r.GetBytes(BitmapBytes(n), &bits));
    if (n % 8 != 0 && (static_cast<uint8_t>(bits.back()) >> (n % 8)) != 0) {
      return Status::Corruption("null bitmap marks rows past the end");
    }
    nulls.assign(bits.begin(), bits.end());
  }
  switch (type) {
    case ColumnType::kInt64:
      HAZY_RETURN_NOT_OK(GetArray(&r, n, &ints));
      break;
    case ColumnType::kDouble:
      HAZY_RETURN_NOT_OK(GetArray(&r, n, &reals));
      break;
    case ColumnType::kText: {
      HAZY_RETURN_NOT_OK(r.CheckCount(n, 4));
      std::string_view lengths;
      HAZY_RETURN_NOT_OK(r.GetBytes(4 * n, &lengths));
      ends.resize(n);
      uint64_t end = 0;
      for (uint64_t i = 0; i < n; ++i) {
        end += storage::DecodeFixed32(lengths.data() + 4 * i);
        ends[i] = end;
      }
      if (end != r.remaining()) {
        return Status::Corruption(
            StrFormat("text column holds %zu bytes, its lengths sum to %llu",
                      r.remaining(), static_cast<unsigned long long>(end)));
      }
      std::string_view bytes;
      HAZY_RETURN_NOT_OK(r.GetBytes(end, &bytes));
      text.assign(bytes.data(), bytes.size());
      break;
    }
  }
  if (r.remaining() != 0) {
    return Status::Corruption("trailing bytes in a result column block");
  }
  return Status::OK();
}

void ResultRows::Reset(const std::vector<ColumnDesc>& columns) {
  cols_.clear();
  cols_.resize(columns.size());
  for (size_t c = 0; c < columns.size(); ++c) cols_[c].type = columns[c].type;
}

void ResultRows::Reserve(size_t n) {
  for (Column& col : cols_) {
    switch (col.type) {
      case ColumnType::kInt64:
        col.ints.reserve(n);
        break;
      case ColumnType::kDouble:
        col.reals.reserve(n);
        break;
      case ColumnType::kText:
        col.ends.reserve(n);
        break;
    }
  }
}

void ResultRows::Truncate(size_t n) {
  for (Column& col : cols_) {
    if (col.size() <= n) continue;
    col.ints.resize(std::min(col.ints.size(), n));
    col.reals.resize(std::min(col.reals.size(), n));
    if (col.ends.size() > n) {
      col.ends.resize(n);
      col.text.resize(n == 0 ? 0 : col.ends.back());
    }
    if (col.nulls.size() >= BitmapBytes(n)) {
      col.nulls.resize(BitmapBytes(n));
      // Clear the bits of cut rows that share the last byte, so a later
      // append does not inherit them.
      if (n % 8 != 0) col.nulls.back() &= static_cast<uint8_t>((1u << (n % 8)) - 1);
    }
    // No NULL left: drop the bitmap, so the encoding is as if none was ever
    // appended.
    if (std::all_of(col.nulls.begin(), col.nulls.end(),
                    [](uint8_t b) { return b == 0; })) {
      col.nulls.clear();
    }
  }
}

void ResultRows::AppendText(size_t col, std::string_view v) {
  Column& c = cols_[col];
  c.text.append(v.data(), v.size());
  c.ends.push_back(c.text.size());
}

void ResultRows::AppendTextRepeated(size_t col, std::string_view v, size_t n) {
  Column& c = cols_[col];
  c.text.reserve(c.text.size() + v.size() * n);
  c.ends.reserve(c.ends.size() + n);
  for (size_t i = 0; i < n; ++i) {
    c.text.append(v.data(), v.size());
    c.ends.push_back(c.text.size());
  }
}

void ResultRows::AppendInt64s(size_t col, std::vector<int64_t> values) {
  std::vector<int64_t>& ints = cols_[col].ints;
  if (ints.empty()) {
    ints = std::move(values);
  } else {
    ints.insert(ints.end(), values.begin(), values.end());
  }
}

void ResultRows::AppendNull(size_t col) {
  Column& c = cols_[col];
  const size_t row = c.size();
  c.nulls.resize(std::max(c.nulls.size(), BitmapBytes(row + 1)), 0);
  c.nulls[row / 8] |= static_cast<uint8_t>(1u << (row % 8));
  switch (c.type) {
    case ColumnType::kInt64:
      c.ints.push_back(0);
      break;
    case ColumnType::kDouble:
      c.reals.push_back(0);
      break;
    case ColumnType::kText:
      c.ends.push_back(c.text.size());
      break;
  }
}

Status ResultRows::AppendValue(size_t col, const storage::Value& v) {
  if (std::holds_alternative<std::monostate>(v)) {
    AppendNull(col);
    return Status::OK();
  }
  const ColumnType type = cols_[col].type;
  if (const auto* i = std::get_if<int64_t>(&v)) {
    if (type == ColumnType::kInt64) {
      AppendInt64(col, *i);
      return Status::OK();
    }
    if (type == ColumnType::kDouble) {
      AppendDouble(col, static_cast<double>(*i));
      return Status::OK();
    }
  } else if (const auto* d = std::get_if<double>(&v)) {
    if (type == ColumnType::kDouble) {
      AppendDouble(col, *d);
      return Status::OK();
    }
  } else if (type == ColumnType::kText) {
    AppendText(col, std::get<std::string>(v));
    return Status::OK();
  }
  return Status::InvalidArgument(
      StrFormat("value %s does not fit %s result column %zu",
                storage::ValueToString(v).c_str(),
                storage::ColumnTypeToString(type), col));
}

bool ResultRows::IsNull(size_t row, size_t col) const {
  const std::vector<uint8_t>& nulls = cols_[col].nulls;
  return row / 8 < nulls.size() && ((nulls[row / 8] >> (row % 8)) & 1) != 0;
}

std::string_view ResultRows::Text(size_t row, size_t col) const {
  const Column& c = cols_[col];
  const size_t begin = row == 0 ? 0 : c.ends[row - 1];
  return std::string_view(c.text).substr(begin, c.ends[row] - begin);
}

storage::Value ResultRows::ValueAt(size_t row, size_t col) const {
  if (IsNull(row, col)) return std::monostate{};
  switch (cols_[col].type) {
    case ColumnType::kInt64:
      return Int64(row, col);
    case ColumnType::kDouble:
      return Double(row, col);
    case ColumnType::kText:
      return std::string(Text(row, col));
  }
  return std::monostate{};
}

// --- ResultSet ---------------------------------------------------------------

void ResultSet::SetColumns(std::vector<ColumnDesc> cols) {
  columns = std::move(cols);
  rows.Reset(columns);
}

bool ResultSet::IsNull(size_t row, size_t col) const {
  return rows.Has(row, col) && rows.IsNull(row, col);
}

StatusOr<int64_t> ResultSet::Int64At(size_t row, size_t col) const {
  if (!rows.Has(row, col)) return CellError("no value", row, col);
  if (rows.type(col) != ColumnType::kInt64 || rows.IsNull(row, col)) {
    return CellError("not an INT value", row, col);
  }
  return rows.Int64(row, col);
}

StatusOr<double> ResultSet::DoubleAt(size_t row, size_t col) const {
  if (!rows.Has(row, col)) return CellError("no value", row, col);
  if (rows.IsNull(row, col)) return CellError("not a REAL value", row, col);
  if (rows.type(col) == ColumnType::kDouble) return rows.Double(row, col);
  // An INT widens losslessly enough for typed reads of COUNT-style columns.
  if (rows.type(col) == ColumnType::kInt64) {
    return static_cast<double>(rows.Int64(row, col));
  }
  return CellError("not a REAL value", row, col);
}

StatusOr<std::string> ResultSet::TextAt(size_t row, size_t col) const {
  if (!rows.Has(row, col)) return CellError("no value", row, col);
  if (rows.type(col) != ColumnType::kText || rows.IsNull(row, col)) {
    return CellError("not a TEXT value", row, col);
  }
  return std::string(rows.Text(row, col));
}

Status ResultSet::Encode(std::string* out) const {
  if (rows.num_columns() != columns.size()) {
    return Status::Internal(StrFormat("result holds %zu columns for %zu descriptors",
                                      rows.num_columns(), columns.size()));
  }
  const size_t n = rows.size();
  size_t total = 64 + message.size();  // header bound, so the output is sized once
  for (size_t c = 0; c < columns.size(); ++c) {
    const ResultRows::Column& col = rows.cols_[c];
    if (col.type != columns[c].type) {
      return Status::Internal(StrFormat("result column %zu holds %s values, described as %s",
                                        c, storage::ColumnTypeToString(col.type),
                                        storage::ColumnTypeToString(columns[c].type)));
    }
    if (col.size() != n) {
      return Status::Internal(StrFormat("result column %zu has %zu values, column 0 has %zu",
                                        c, col.size(), n));
    }
    total += 5 + columns[c].name.size() + 8 + col.BlockBytes(n);
  }
  out->reserve(out->size() + total);

  persist::StateWriter w(out);
  w.PutTag(kResultSetTag);
  w.PutU8(kResultSetVersion);
  w.PutU32(static_cast<uint32_t>(columns.size()));
  for (const auto& col : columns) {
    w.PutString(col.name);
    w.PutU8(static_cast<uint8_t>(col.type));
  }
  w.PutI64(affected_rows);
  w.PutString(message);
  w.PutU64(n);
  for (const ResultRows::Column& col : rows.cols_) {
    w.PutU64(col.BlockBytes(n));
    col.EncodeBlock(n, &w);
  }
  return Status::OK();
}

StatusOr<ResultSet> ResultSet::Decode(std::string_view data) {
  persist::StateReader r(data);
  HAZY_RETURN_NOT_OK(r.ExpectTag(kResultSetTag));
  uint8_t version = 0;
  HAZY_RETURN_NOT_OK(r.GetU8(&version));
  if (version != kResultSetVersion) {
    return Status::Corruption(StrFormat("unknown ResultSet version %u", version));
  }
  ResultSet rs;
  uint32_t ncols = 0;
  HAZY_RETURN_NOT_OK(r.GetU32(&ncols));
  HAZY_RETURN_NOT_OK(r.CheckCount(ncols, 5));  // name len prefix + type byte
  std::vector<ColumnDesc> columns;
  columns.reserve(ncols);
  for (uint32_t i = 0; i < ncols; ++i) {
    ColumnDesc col;
    HAZY_RETURN_NOT_OK(r.GetString(&col.name));
    uint8_t type = 0;
    HAZY_RETURN_NOT_OK(r.GetU8(&type));
    if (type > static_cast<uint8_t>(ColumnType::kText)) {
      return Status::Corruption(StrFormat("unknown column type %u", type));
    }
    col.type = static_cast<ColumnType>(type);
    columns.push_back(std::move(col));
  }
  rs.SetColumns(std::move(columns));
  HAZY_RETURN_NOT_OK(r.GetI64(&rs.affected_rows));
  HAZY_RETURN_NOT_OK(r.GetString(&rs.message));
  uint64_t nrows = 0;
  HAZY_RETURN_NOT_OK(r.GetU64(&nrows));
  if (ncols == 0 && nrows != 0) {
    return Status::Corruption(
        StrFormat("%llu rows without columns", static_cast<unsigned long long>(nrows)));
  }
  for (ResultRows::Column& col : rs.rows.cols_) {
    uint64_t block_bytes = 0;
    HAZY_RETURN_NOT_OK(r.GetU64(&block_bytes));
    std::string_view block;
    HAZY_RETURN_NOT_OK(r.GetBytes(block_bytes, &block));
    HAZY_RETURN_NOT_OK(col.DecodeBlock(block, nrows));
  }
  if (r.remaining() != 0) {
    return Status::Corruption("trailing bytes after encoded ResultSet");
  }
  return rs;
}

std::string ResultSet::ToString() const {
  std::ostringstream out;
  if (!columns.empty()) {
    for (size_t i = 0; i < columns.size(); ++i) {
      if (i > 0) out << " | ";
      out << columns[i].name;
    }
    out << "\n";
    for (size_t r = 0; r < rows.size(); ++r) {
      for (size_t c = 0; c < rows.num_columns(); ++c) {
        if (c > 0) out << " | ";
        out << storage::ValueToString(rows.ValueAt(r, c));
      }
      out << "\n";
    }
    out << "(" << rows.size() << (rows.size() == 1 ? " row)" : " rows)");
  }
  if (!message.empty()) {
    if (!columns.empty()) out << "\n";
    out << message;
  }
  return out.str();
}

}  // namespace hazy::sql
