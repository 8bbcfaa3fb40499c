#include "rel/operators.h"

#include <utility>

#include "rel/batch_cursor.h"

namespace temporadb {

// Each materializing operator is a thin wrapper over the batch executor in
// rel/batch_cursor.{h,cpp}: build the (one- or two-node) cursor tree over
// the argument rowsets and drain it.

Result<Rowset> Select(const Rowset& input, const Expr& pred) {
  BatchCursorPtr c = MakeBatchSelectCursor(MakeRowsetBatchCursor(&input),
                                           &pred);
  return MaterializeBatchCursor(c.get());
}

Result<Rowset> Project(const Rowset& input, const std::vector<ExprPtr>& exprs,
                       const std::vector<std::string>& names) {
  BatchCursorPtr c =
      MakeBatchProjectCursor(MakeRowsetBatchCursor(&input), &exprs, names);
  return MaterializeBatchCursor(c.get());
}

Result<Rowset> ProjectColumns(const Rowset& input,
                              const std::vector<size_t>& indexes) {
  std::vector<ExprPtr> exprs;
  std::vector<std::string> names;
  for (size_t idx : indexes) {
    if (idx >= input.schema().size()) {
      return Status::InvalidArgument("projection index out of range");
    }
    exprs.push_back(MakeColumnRef(idx, input.schema().at(idx).name));
    names.push_back(input.schema().at(idx).name);
  }
  return Project(input, exprs, names);
}

Result<Rowset> Union(const Rowset& a, const Rowset& b) {
  BatchCursorPtr c = MakeBatchUnionCursor(MakeRowsetBatchCursor(&a),
                                          MakeRowsetBatchCursor(&b));
  return MaterializeBatchCursor(c.get());
}

Result<Rowset> Difference(const Rowset& a, const Rowset& b) {
  BatchCursorPtr c = MakeBatchDifferenceCursor(MakeRowsetBatchCursor(&a),
                                               MakeRowsetBatchCursor(&b));
  return MaterializeBatchCursor(c.get());
}

Rowset Distinct(const Rowset& input) {
  BatchCursorPtr c = MakeBatchDistinctCursor(MakeRowsetBatchCursor(&input));
  Result<Rowset> out = MaterializeBatchCursor(c.get());
  if (!out.ok()) {
    // Unreachable: distinct introduces no failure mode over a well-formed
    // rowset; keep the historical non-Result signature.
    return Rowset(input.schema(), input.temporal_class(), input.data_model());
  }
  return std::move(*out);
}

Result<Rowset> SortBy(const Rowset& input, const std::vector<size_t>& keys) {
  BatchCursorPtr c = MakeBatchSortCursor(MakeRowsetBatchCursor(&input), keys);
  return MaterializeBatchCursor(c.get());
}

Result<Rowset> CrossProduct(const Rowset& a, const Rowset& b) {
  BatchCursorPtr c = MakeBatchCrossProductCursor(MakeRowsetBatchCursor(&a),
                                                 MakeRowsetBatchCursor(&b));
  return MaterializeBatchCursor(c.get());
}

}  // namespace temporadb
