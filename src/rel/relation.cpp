#include "rel/relation.h"

#include <algorithm>

#include "common/strings.h"
#include "common/table_printer.h"

namespace temporadb {

Status Rowset::AddRow(Row row) {
  if (row.values.size() != schema_.size()) {
    return Status::InvalidArgument(StringPrintf(
        "row arity %zu does not match schema arity %zu", row.values.size(),
        schema_.size()));
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
  rows_.push_back(std::move(row));
  return Status::OK();
}

Result<Rowset::Appender> Rowset::MakeAppender(size_t arity) {
  if (arity != schema_.size()) {
    return Status::InvalidArgument(StringPrintf(
        "row arity %zu does not match schema arity %zu", arity,
        schema_.size()));
  }
  return Appender(this);
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
  for (const Row& row : rows_) {
    std::vector<std::string> cells;
    cells.reserve(row.values.size() + 4);
    for (const Value& v : row.values) cells.push_back(v.ToString());
    if (has_valid_time()) {
      if (event) {
        cells.push_back(row.valid->begin().ToString());
      } else {
        cells.push_back(row.valid->begin().ToString());
        cells.push_back(row.valid->end().ToString());
      }
    }
    if (has_txn_time()) {
      cells.push_back(row.txn->begin().ToString());
      cells.push_back(row.txn->end().ToString());
    }
    printer.AddRow(std::move(cells));
  }
  return printer.Render(title);
}

bool Rowset::SameContent(const Rowset& a, const Rowset& b) {
  if (a.schema() != b.schema()) return false;
  if (a.temporal_class() != b.temporal_class()) return false;
  if (a.size() != b.size()) return false;
  std::vector<Row> ra = a.rows_;
  std::vector<Row> rb = b.rows_;
  std::sort(ra.begin(), ra.end());
  std::sort(rb.begin(), rb.end());
  return ra == rb;
}

}  // namespace temporadb
