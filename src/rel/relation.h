#ifndef TEMPORADB_REL_RELATION_H_
#define TEMPORADB_REL_RELATION_H_

#include <cstdint>
#include <iterator>
#include <string>
#include <type_traits>
#include <vector>

#include "catalog/schema.h"
#include "catalog/temporal_class.h"
#include "common/result.h"
#include "rel/row.h"

namespace temporadb {

/// A materialized derived relation: the value type flowing between query
/// operators and returned to clients.
///
/// A rowset carries its *temporal class*, which determines which implicit
/// temporal columns its rows populate and which further operations are legal
/// on it — the paper's rule that "the result of a query on a static rollback
/// database is a pure static relation" (§4.2) while historical and temporal
/// queries derive relations "which may be used in further queries" of the
/// same kind (§4.3, §4.4).
///
/// Storage is columnar: one typed column per attribute, of the attribute's
/// schema type, with a null bitmap.  Ints, bools and dates (as days) are
/// stored inline in 64-bit words, floats inline as doubles, and strings as
/// (offset, length) into one byte arena per rowset.  A valid and a
/// transaction period column (begin and end chronons) exist only when the
/// class keeps that time.  `rows()` reads and appends whole `Row`s, built
/// on access.
class Rowset {
 public:
  /// A rowset without a schema: its first row gives it its arity, its
  /// periods (and so its class: historical with a valid period, rollback
  /// with a transaction period, temporal with both) and its column types
  /// (each column's first non-null value's), under positional names "1",
  /// "2", ...
  Rowset() = default;
  Rowset(Schema schema, TemporalClass temporal_class,
         TemporalDataModel data_model = TemporalDataModel::kInterval);

  const Schema& schema() const { return schema_; }
  TemporalClass temporal_class() const { return temporal_class_; }
  TemporalDataModel data_model() const { return data_model_; }

  bool has_valid_time() const { return SupportsValidTime(temporal_class_); }
  bool has_txn_time() const {
    return SupportsTransactionTime(temporal_class_);
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// The value of column `col` in row `row`.
  Value Get(size_t row, size_t col) const;
  /// Row `row`'s valid period; requires `has_valid_time()`.
  Period valid(size_t row) const {
    return Period(Chronon(valid_begin_[row]), Chronon(valid_end_[row]));
  }
  /// Row `row`'s transaction period; requires `has_txn_time()`.
  Period txn(size_t row) const {
    return Period(Chronon(txn_begin_[row]), Chronon(txn_end_[row]));
  }
  /// Row `row`, with the periods its class keeps.
  Row GetRow(size_t row) const;

  /// The rows as `Row` values, built on access: iterate, index, append.
  class RowView {
   public:
    class iterator {
     public:
      using iterator_category = std::input_iterator_tag;
      using value_type = Row;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = Row;

      iterator(const Rowset* rs, size_t i) : rs_(rs), i_(i) {}
      Row operator*() const { return rs_->GetRow(i_); }
      iterator& operator++() {
        ++i_;
        return *this;
      }
      friend bool operator==(const iterator& a, const iterator& b) {
        return a.i_ == b.i_;
      }

     private:
      const Rowset* rs_;
      size_t i_;
    };

    explicit RowView(const Rowset* rs) : rs_(rs) {}
    iterator begin() const { return iterator(rs_, 0); }
    iterator end() const { return iterator(rs_, rs_->size()); }
    size_t size() const { return rs_->size(); }
    bool empty() const { return rs_->empty(); }
    Row operator[](size_t i) const { return rs_->GetRow(i); }

   private:
    const Rowset* rs_;
  };
  /// The same view over a mutable rowset, which also appends.
  class MutableRowView : public RowView {
   public:
    explicit MutableRowView(Rowset* rs) : RowView(rs), rs_(rs) {}
    /// `AddRow(row)`; a row it rejects is a programming error (aborts).
    void push_back(Row row);

   private:
    Rowset* rs_;
  };
  RowView rows() const { return RowView(this); }
  MutableRowView rows() { return MutableRowView(this); }

  /// Appends a row, checking its arity, that each value is null or of its
  /// column's type (an int widens to a float, as an attribute stores it),
  /// and that it populates exactly the periods its class requires.
  Status AddRow(Row row);

  /// Makes room for `rows` rows in every column.
  void Reserve(size_t rows);

  // --- Building in place ---------------------------------------------------
  //
  // A producer that knows its rows fit the schema (the TQuel evaluator,
  // `show`) fills the columns directly.  `AddPeriods` opens a row; then
  // every column is filled in row order, a value at a time (`Push`) or a
  // run of rows at a time (`Gather`), until each column holds `size()`
  // values.  Only then may the rowset be read.  A value whose type is not
  // its column's is an internal error (the analyzer types every column),
  // after which the rowset is dropped.

  /// Opens a row carrying `valid` if the class has valid time and `txn` if
  /// it has transaction time.
  void AddPeriods(const Period& valid, const Period& txn) {
    if (has_valid_time()) {
      valid_begin_.push_back(valid.begin().days());
      valid_end_.push_back(valid.end().days());
    }
    if (has_txn_time()) {
      txn_begin_.push_back(txn.begin().days());
      txn_end_.push_back(txn.end().days());
    }
    ++size_;
  }

  /// Appends `v` to column `col`.
  Status Push(size_t col, const Value& v);

  /// Appends `value_at(0)`, ..., `value_at(count - 1)` (each a
  /// `const Value&`) to column `col`: one loop per column, dispatched on
  /// the column's type once.
  template <typename ValueAt>
  Status Gather(size_t col, size_t count, const ValueAt& value_at);

  /// The rowset of columns `columns` (each named once), in that order,
  /// with the same class; this rowset is consumed.
  Rowset Project(const std::vector<size_t>& columns) &&;

  /// Renders in the visual style of the paper's figures (double bar before
  /// the DBMS-maintained temporal columns, grouped (from)/(to) and
  /// (start)/(end) sub-headers; event relations print a single "(at)").
  std::string Render(const std::string& title = "") const;

  /// Deterministic content equality (sorts copies; used by tests).
  static bool SameContent(const Rowset& a, const Rowset& b);

 private:
  // One typed column; see the class comment for the layout.
  struct Column {
    ValueType type = ValueType::kNull;
    size_t size = 0;
    std::vector<int64_t> words;     // int, bool, date days; string offset
    std::vector<double> floats;     // float
    std::vector<uint32_t> lengths;  // string byte length
    std::vector<uint64_t> nulls;    // bit `row % 64` of word `row / 64`

    bool IsNull(size_t row) const {
      return (nulls[row / 64] >> (row % 64)) & 1;
    }
    void SetNull(size_t row) { nulls[row / 64] |= uint64_t{1} << (row % 64); }
    // Appends `count` rows, not null and zero in the storage of the
    // column's type (a null keeps that storage aligned by row); returns the
    // first.
    size_t Extend(size_t count) {
      const size_t first = size;
      size += count;
      nulls.resize((size + 63) / 64);
      switch (type) {
        case ValueType::kFloat:
          floats.resize(size);
          break;
        case ValueType::kString:
          lengths.resize(size);
          [[fallthrough]];
        case ValueType::kInt:
        case ValueType::kDate:
        case ValueType::kBool:
          words.resize(size);
          break;
        case ValueType::kNull:
          break;
      }
      return first;
    }
  };

  // Stores `v`, a non-null value of type `T` (`c`'s), in row `row` of `c`.
  template <ValueType T>
  void Put(Column& c, size_t row, const Value& v) {
    if constexpr (T == ValueType::kInt) {
      c.words[row] = v.AsInt();
    } else if constexpr (T == ValueType::kDate) {
      c.words[row] = v.AsDate().chronon().days();
    } else if constexpr (T == ValueType::kBool) {
      c.words[row] = v.AsBool() ? 1 : 0;
    } else if constexpr (T == ValueType::kFloat) {
      c.floats[row] = v.AsFloat();
    } else if constexpr (T == ValueType::kString) {
      const std::string& s = v.AsString();
      c.words[row] = static_cast<int64_t>(arena_.size());
      c.lengths[row] = static_cast<uint32_t>(s.size());
      arena_.append(s);
    }
  }
  Status TypeMismatch(size_t col, const Value& v) const;
  // Gives an unshaped rowset the shape of `row` (see `Rowset()`).
  Status Shape(const Row& row);

  Schema schema_;
  TemporalClass temporal_class_ = TemporalClass::kStatic;
  TemporalDataModel data_model_ = TemporalDataModel::kInterval;
  bool shaped_ = false;
  size_t size_ = 0;
  std::vector<Column> columns_;
  std::vector<int64_t> valid_begin_;
  std::vector<int64_t> valid_end_;
  std::vector<int64_t> txn_begin_;
  std::vector<int64_t> txn_end_;
  std::string arena_;
};

template <typename ValueAt>
Status Rowset::Gather(size_t col, size_t count, const ValueAt& value_at) {
  Column& c = columns_[col];
  if (c.type == ValueType::kNull) {
    for (size_t j = 0; j < count; ++j) {
      TDB_RETURN_IF_ERROR(Push(col, value_at(j)));
    }
    return Status::OK();
  }
  const size_t first = c.Extend(count);
  auto loop = [&](auto type) -> Status {
    for (size_t j = 0; j < count; ++j) {
      const Value& v = value_at(j);
      if (v.type() == type.value) {
        Put<type.value>(c, first + j, v);
      } else if (v.is_null()) {
        c.SetNull(first + j);
      } else {
        return TypeMismatch(col, v);
      }
    }
    return Status::OK();
  };
  switch (c.type) {
    case ValueType::kInt:
      return loop(std::integral_constant<ValueType, ValueType::kInt>());
    case ValueType::kDate:
      return loop(std::integral_constant<ValueType, ValueType::kDate>());
    case ValueType::kBool:
      return loop(std::integral_constant<ValueType, ValueType::kBool>());
    case ValueType::kFloat:
      return loop(std::integral_constant<ValueType, ValueType::kFloat>());
    case ValueType::kString:
      return loop(std::integral_constant<ValueType, ValueType::kString>());
    case ValueType::kNull:
      break;
  }
  return Status::OK();
}

}  // namespace temporadb

#endif  // TEMPORADB_REL_RELATION_H_
