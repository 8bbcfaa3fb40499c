#ifndef TEMPORADB_REL_RELATION_H_
#define TEMPORADB_REL_RELATION_H_

#include <string>
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
class Rowset {
 public:
  Rowset() = default;
  Rowset(Schema schema, TemporalClass temporal_class,
         TemporalDataModel data_model = TemporalDataModel::kInterval)
      : schema_(std::move(schema)),
        temporal_class_(temporal_class),
        data_model_(data_model) {}

  const Schema& schema() const { return schema_; }
  TemporalClass temporal_class() const { return temporal_class_; }
  TemporalDataModel data_model() const { return data_model_; }

  bool has_valid_time() const { return SupportsValidTime(temporal_class_); }
  bool has_txn_time() const {
    return SupportsTransactionTime(temporal_class_);
  }

  const std::vector<Row>& rows() const { return rows_; }
  std::vector<Row>& rows() { return rows_; }
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  /// Appends a row, checking it populates exactly the periods its class
  /// requires.
  Status AddRow(Row row);

  /// Appends rows in place for a producer whose every row has the same
  /// arity.  `MakeAppender` checks that arity against the schema once, and
  /// `Add` sets exactly the periods the class maintains, so no row is
  /// re-checked.  The rowset must outlive the appender and must not be
  /// moved while it is in use.
  class Appender {
   public:
    /// Appends a row carrying `valid` if the class has valid time and `txn`
    /// if it has transaction time, and returns its values, which the caller
    /// fills with exactly the schema's arity of values.
    std::vector<Value>& Add(const Period& valid, const Period& txn) {
      Row& row = out_->rows_.emplace_back();
      if (out_->has_valid_time()) row.valid = valid;
      if (out_->has_txn_time()) row.txn = txn;
      row.values.reserve(out_->schema_.size());
      return row.values;
    }

   private:
    friend class Rowset;
    explicit Appender(Rowset* out) : out_(out) {}
    Rowset* out_;
  };
  Result<Appender> MakeAppender(size_t arity);

  /// Renders in the visual style of the paper's figures (double bar before
  /// the DBMS-maintained temporal columns, grouped (from)/(to) and
  /// (start)/(end) sub-headers; event relations print a single "(at)").
  std::string Render(const std::string& title = "") const;

  /// Deterministic content equality (sorts copies; used by tests).
  static bool SameContent(const Rowset& a, const Rowset& b);

 private:
  Schema schema_;
  TemporalClass temporal_class_ = TemporalClass::kStatic;
  TemporalDataModel data_model_ = TemporalDataModel::kInterval;
  std::vector<Row> rows_;
};

}  // namespace temporadb

#endif  // TEMPORADB_REL_RELATION_H_
