// Typed statement results — the unit of data the engine hands back to every
// client, local or remote.
//
// A ResultSet carries per-column types, a typed affected-row count for DML
// and a human-readable message. Its values are stored column-major
// (ResultRows): each result column is one typed array — int64, double, or
// text as back-to-back bytes plus end offsets — with a null bitmap that is
// only allocated once a NULL is appended. An All Members reply is therefore
// one int64 array of ids, filled straight from the view's member list,
// rather than one heap-allocated row of variants per id.
//
// Encode/Decode give a deterministic binary form (persist/serde conventions:
// a tagged header, fail-fast Corruption on truncation). After the header each
// column is one length-prefixed block: a null flag and, if set, the bitmap;
// then int64/double values as a fixed little-endian array, or text as a block
// of u32 lengths followed by the bytes. Decode checks every count and length
// against the bytes left before it sizes anything, then copies each block in
// one pass. The same bytes travel over a socket and through the in-process
// loopback transport, byte-identically.

#ifndef HAZY_SQL_RESULT_SET_H_
#define HAZY_SQL_RESULT_SET_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "persist/serde.h"
#include "storage/schema.h"

namespace hazy::sql {

/// One result column: name plus the value type every row holds in it.
struct ColumnDesc {
  std::string name;
  storage::ColumnType type = storage::ColumnType::kText;
};

/// \brief A result's values, column-major: one typed array per column.
///
/// Appenders take a column index and must match the column's type (a
/// mismatch shows up as unequal column lengths, which Encode refuses).
/// The unchecked getters (Int64, Double, Text) are O(1) views for callers
/// that know the type; ResultSet's *At accessors check bounds and type.
class ResultRows {
 public:
  /// Drops every value and lays out one empty column per descriptor.
  void Reset(const std::vector<ColumnDesc>& columns);

  /// Rows held: the length of the first column (0 with no columns).
  size_t size() const { return cols_.empty() ? 0 : cols_[0].size(); }
  bool empty() const { return size() == 0; }
  size_t num_columns() const { return cols_.size(); }
  /// True if cell (row, col) exists.
  bool Has(size_t row, size_t col) const {
    return col < cols_.size() && row < cols_[col].size();
  }
  storage::ColumnType type(size_t col) const { return cols_[col].type; }

  void Reserve(size_t n);
  /// Cuts every column to at most `n` rows.
  void Truncate(size_t n);

  void AppendInt64(size_t col, int64_t v) { cols_[col].ints.push_back(v); }
  void AppendDouble(size_t col, double v) { cols_[col].reals.push_back(v); }
  void AppendText(size_t col, std::string_view v);
  /// Appends `v` `n` times (the one label of an All Members reply).
  void AppendTextRepeated(size_t col, std::string_view v, size_t n);
  /// Appends int64 values; an empty column takes the vector over.
  void AppendInt64s(size_t col, std::vector<int64_t> values);
  void AppendNull(size_t col);
  /// Appends a storage value to its typed column (INT widens into REAL);
  /// InvalidArgument if the value does not fit the column's type.
  Status AppendValue(size_t col, const storage::Value& v);

  bool IsNull(size_t row, size_t col) const;
  int64_t Int64(size_t row, size_t col) const { return cols_[col].ints[row]; }
  double Double(size_t row, size_t col) const { return cols_[col].reals[row]; }
  std::string_view Text(size_t row, size_t col) const;
  /// The cell as a storage value (NULL is monostate).
  storage::Value ValueAt(size_t row, size_t col) const;

 private:
  friend struct ResultSet;

  struct Column {
    storage::ColumnType type = storage::ColumnType::kText;
    std::vector<int64_t> ints;   ///< kInt64 values
    std::vector<double> reals;   ///< kDouble values
    std::vector<size_t> ends;    ///< kText: end offset of each value in `text`
    std::string text;            ///< kText: the values' bytes, back to back
    /// Bit r set = row r is NULL (its value slot holds 0 / ""). Empty until
    /// the first NULL, and never longer than the column needs.
    std::vector<uint8_t> nulls;

    size_t size() const;
    /// Byte length of this column's wire block for `n` rows.
    uint64_t BlockBytes(size_t n) const;
    void EncodeBlock(size_t n, persist::StateWriter* w) const;
    /// Fills this (empty) column from one block of `n` rows.
    Status DecodeBlock(std::string_view block, uint64_t n);
  };

  std::vector<Column> cols_;
};

/// \brief Result of one statement.
///
/// Queries populate `columns` + `rows` (SetColumns lays out both); DML/DDL
/// populate `affected_rows` and a human-readable `message` ("2 rows
/// updated"). Executor paths always give every column its real type, so
/// remote clients get typed accessors instead of string parsing.
struct ResultSet {
  std::vector<ColumnDesc> columns;
  ResultRows rows;
  /// Rows written by DML (0 for queries/DDL).
  int64_t affected_rows = 0;
  /// For DDL/DML: a human-readable confirmation ("1 row inserted").
  std::string message;

  /// Sets the column descriptors and an empty typed column for each.
  void SetColumns(std::vector<ColumnDesc> cols);

  // Typed cell accessors (bounds- and type-checked; NULL is InvalidArgument
  // for the typed getters — check IsNull first).
  bool IsNull(size_t row, size_t col) const;
  StatusOr<int64_t> Int64At(size_t row, size_t col) const;
  /// An INT cell widens to double.
  StatusOr<double> DoubleAt(size_t row, size_t col) const;
  StatusOr<std::string> TextAt(size_t row, size_t col) const;

  /// Serializes to the wire format (appends to *out). Deterministic: equal
  /// ResultSets encode to equal bytes. Internal if the stored columns do not
  /// match `columns` or their lengths differ.
  Status Encode(std::string* out) const;

  /// Parses an encoded ResultSet; Corruption on truncation/garbage.
  static StatusOr<ResultSet> Decode(std::string_view data);

  /// Shell rendering: header row, value rows, "(N rows)", then the message.
  std::string ToString() const;
};

/// Wire codec for a single storage::Value (prepared-statement parameter
/// lists): u8 kind tag + payload.
void EncodeValue(persist::StateWriter* w, const storage::Value& v);
Status DecodeValue(persist::StateReader* r, storage::Value* v);

}  // namespace hazy::sql

#endif  // HAZY_SQL_RESULT_SET_H_
