#include "rel/relation.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/strings.h"
#include "common/table_printer.h"

namespace temporadb {

Rowset::Rowset(Schema schema, TemporalClass temporal_class,
               TemporalDataModel data_model)
    : schema_(std::move(schema)),
      temporal_class_(temporal_class),
      data_model_(data_model),
      shaped_(true) {
  columns_.resize(schema_.size());
  for (size_t i = 0; i < schema_.size(); ++i) {
    columns_[i].type = schema_.at(i).type.value_type();
  }
}

Value Rowset::Get(size_t row, size_t col) const {
  const Column& c = columns_[col];
  if (c.IsNull(row)) return Value::Null();
  switch (c.type) {
    case ValueType::kInt:
      return Value(c.words[row]);
    case ValueType::kDate:
      return Value(Date(Chronon(c.words[row])));
    case ValueType::kBool:
      return Value(c.words[row] != 0);
    case ValueType::kFloat:
      return Value(c.floats[row]);
    case ValueType::kString:
      return Value(arena_.substr(static_cast<size_t>(c.words[row]),
                                 c.lengths[row]));
    case ValueType::kNull:
      break;
  }
  return Value::Null();
}

Row Rowset::GetRow(size_t row) const {
  Row out;
  out.values.reserve(columns_.size());
  for (size_t col = 0; col < columns_.size(); ++col) {
    out.values.push_back(Get(row, col));
  }
  if (has_valid_time()) out.valid = valid(row);
  if (has_txn_time()) out.txn = txn(row);
  return out;
}

void Rowset::MutableRowView::push_back(Row row) {
  const Status s = rs_->AddRow(std::move(row));
  TDB_INVARIANT_CHECK(s.ok(), s.ToString().c_str());
}

Status Rowset::Shape(const Row& row) {
  std::vector<Attribute> attrs;
  for (size_t i = 0; i < row.values.size(); ++i) {
    attrs.push_back(
        Attribute{std::to_string(i + 1), Type(row.values[i].type())});
  }
  TDB_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(attrs)));
  TemporalClass cls = TemporalClass::kStatic;
  if (row.valid.has_value()) {
    cls = row.txn.has_value() ? TemporalClass::kTemporal
                              : TemporalClass::kHistorical;
  } else if (row.txn.has_value()) {
    cls = TemporalClass::kRollback;
  }
  *this = Rowset(std::move(schema), cls, data_model_);
  return Status::OK();
}

Status Rowset::AddRow(Row row) {
  if (!shaped_) TDB_RETURN_IF_ERROR(Shape(row));
  if (row.values.size() != columns_.size()) {
    return Status::InvalidArgument(StringPrintf(
        "row arity %zu does not match schema arity %zu", row.values.size(),
        columns_.size()));
  }
  if (has_valid_time() != row.valid.has_value()) {
    return Status::InvalidArgument(
        has_valid_time()
            ? "row lacks a valid period in a relation with valid time"
            : "row carries a valid period in a relation without valid time");
  }
  if (has_txn_time() != row.txn.has_value()) {
    return Status::InvalidArgument(
        has_txn_time()
            ? "row lacks a transaction period in a relation with "
              "transaction time"
            : "row carries a transaction period in a relation without "
              "transaction time");
  }
  // Check every value before anything is appended.
  for (size_t i = 0; i < row.values.size(); ++i) {
    const ValueType want = columns_[i].type;
    if (want == ValueType::kNull) continue;
    TDB_ASSIGN_OR_RETURN(row.values[i],
                         Type(want).Coerce(std::move(row.values[i])));
  }
  AddPeriods(row.valid.value_or(Period()), row.txn.value_or(Period()));
  for (size_t i = 0; i < row.values.size(); ++i) {
    TDB_RETURN_IF_ERROR(Push(i, row.values[i]));
  }
  return Status::OK();
}

void Rowset::Reserve(size_t rows) {
  for (Column& c : columns_) {
    switch (c.type) {
      case ValueType::kFloat:
        c.floats.reserve(rows);
        break;
      case ValueType::kString:
        c.lengths.reserve(rows);
        [[fallthrough]];
      case ValueType::kInt:
      case ValueType::kDate:
      case ValueType::kBool:
        c.words.reserve(rows);
        break;
      case ValueType::kNull:
        break;
    }
    c.nulls.reserve((rows + 63) / 64);
  }
  if (has_valid_time()) {
    valid_begin_.reserve(rows);
    valid_end_.reserve(rows);
  }
  if (has_txn_time()) {
    txn_begin_.reserve(rows);
    txn_end_.reserve(rows);
  }
}

Status Rowset::Push(size_t col, const Value& v) {
  Column& c = columns_[col];
  if (c.type == ValueType::kNull && !v.is_null()) {
    // A column of null type takes its first non-null value's type; the
    // rows before it are null.
    c.type = v.type();
    const size_t rows = std::exchange(c.size, 0);
    c.Extend(rows);  // Sizes the storage of its type; keeps the bitmap.
    std::vector<Attribute> attrs = schema_.attributes();
    attrs[col].type = Type(c.type);
    schema_ = Schema(std::move(attrs));
  }
  if (!v.is_null() && v.type() != c.type) return TypeMismatch(col, v);
  const size_t row = c.Extend(1);
  switch (v.type()) {
    case ValueType::kNull:
      c.SetNull(row);
      break;
    case ValueType::kInt:
      Put<ValueType::kInt>(c, row, v);
      break;
    case ValueType::kDate:
      Put<ValueType::kDate>(c, row, v);
      break;
    case ValueType::kBool:
      Put<ValueType::kBool>(c, row, v);
      break;
    case ValueType::kFloat:
      Put<ValueType::kFloat>(c, row, v);
      break;
    case ValueType::kString:
      Put<ValueType::kString>(c, row, v);
      break;
  }
  return Status::OK();
}

Status Rowset::TypeMismatch(size_t col, const Value& v) const {
  return Status::Internal(StringPrintf(
      "result column '%s' holds %s values, not %s",
      schema_.at(col).name.c_str(),
      std::string(ValueTypeName(columns_[col].type)).c_str(),
      std::string(ValueTypeName(v.type())).c_str()));
}

Rowset Rowset::Project(const std::vector<size_t>& columns) && {
  Rowset out(schema_.Project(columns), temporal_class_, data_model_);
  for (size_t i = 0; i < columns.size(); ++i) {
    out.columns_[i] = std::move(columns_[columns[i]]);
  }
  out.size_ = size_;
  out.valid_begin_ = std::move(valid_begin_);
  out.valid_end_ = std::move(valid_end_);
  out.txn_begin_ = std::move(txn_begin_);
  out.txn_end_ = std::move(txn_end_);
  out.arena_ = std::move(arena_);
  return out;
}

std::string Rowset::Render(const std::string& title) const {
  TablePrinter printer;
  for (const Attribute& attr : schema_.attributes()) {
    printer.AddColumn(attr.name);
  }
  const bool event = data_model_ == TemporalDataModel::kEvent;
  if (has_valid_time()) {
    if (event) {
      printer.AddGroup("valid time", {"(at)"});
    } else {
      printer.AddGroup("valid time", {"(from)", "(to)"});
    }
  }
  if (has_txn_time()) {
    printer.AddGroup("transaction time", {"(start)", "(end)"});
  }
  for (size_t row = 0; row < size_; ++row) {
    std::vector<std::string> cells;
    cells.reserve(columns_.size() + 4);
    for (size_t col = 0; col < columns_.size(); ++col) {
      cells.push_back(Get(row, col).ToString());
    }
    if (has_valid_time()) {
      cells.push_back(valid(row).begin().ToString());
      if (!event) cells.push_back(valid(row).end().ToString());
    }
    if (has_txn_time()) {
      cells.push_back(txn(row).begin().ToString());
      cells.push_back(txn(row).end().ToString());
    }
    printer.AddRow(std::move(cells));
  }
  return printer.Render(title);
}

bool Rowset::SameContent(const Rowset& a, const Rowset& b) {
  if (a.schema() != b.schema()) return false;
  if (a.temporal_class() != b.temporal_class()) return false;
  if (a.size() != b.size()) return false;
  std::vector<Row> ra(a.rows().begin(), a.rows().end());
  std::vector<Row> rb(b.rows().begin(), b.rows().end());
  std::sort(ra.begin(), ra.end());
  std::sort(rb.begin(), rb.end());
  return ra == rb;
}

}  // namespace temporadb
