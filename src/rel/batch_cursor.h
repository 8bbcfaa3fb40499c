#ifndef TEMPORADB_REL_BATCH_CURSOR_H_
#define TEMPORADB_REL_BATCH_CURSOR_H_

#include <cassert>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "rel/batch.h"
#include "rel/expression.h"
#include "rel/relation.h"

namespace temporadb {

/// A pull-based (Volcano-style) *batch* stream: the executor interface of
/// every rowset operator.
///
/// `NextBatch()` yields column-major `Batch`es instead of single rows, so
/// one virtual call amortizes over ~`kDefaultBatchRows` rows and temporal
/// predicates run as selection-vector kernels over the batch's contiguous
/// chronon columns.  Yielded batches are always non-empty (operators whose
/// filtering empties a batch pull again instead of yielding it); nullopt
/// marks exhaustion.  Batch sizes are not part of the contract; the
/// concatenated row sequence (values, periods, order, first error) is.
///
/// Life cycle: construct, call `Open()` exactly once, and only if it
/// returned OK pull `NextBatch()` until it yields nullopt.  The shape
/// accessors are only valid after a successful `Open()` (projection infers
/// its output types from the first input row).  A cursor whose `Open()`
/// failed is dead.  These rules are debug-asserted through the
/// non-virtual interface; in release builds a violation is undefined
/// behavior.  Cursors *borrow* their inputs: source rowsets, expressions
/// and child cursors they do not own must outlive them.  A cursor tree
/// lives on one thread; snapshot readers each build their own.
class BatchCursor {
 public:
  virtual ~BatchCursor() = default;

  /// Prepares the cursor tree; must be called exactly once, before
  /// `NextBatch()` or the shape accessors (debug-asserted).
  Status Open() {
    assert(!opened_ && "BatchCursor::Open() called twice");
    opened_ = true;
    return OpenImpl();
  }

  /// The next non-empty batch, or nullopt when the stream is exhausted.
  /// Batch sizes are an implementation detail of the producing operator;
  /// only the concatenated row sequence is contractual.
  Result<std::optional<Batch>> NextBatch() {
    assert(opened_ && "BatchCursor::NextBatch() before Open()");
    return NextBatchImpl();
  }

  /// Output shape; valid after `Open()` succeeded.
  const Schema& schema() const {
    assert(opened_ && "BatchCursor::schema() before Open()");
    return SchemaImpl();
  }
  TemporalClass temporal_class() const {
    assert(opened_ && "BatchCursor::temporal_class() before Open()");
    return TemporalClassImpl();
  }
  TemporalDataModel data_model() const {
    assert(opened_ && "BatchCursor::data_model() before Open()");
    return DataModelImpl();
  }

 protected:
  virtual Status OpenImpl() = 0;
  virtual Result<std::optional<Batch>> NextBatchImpl() = 0;
  virtual const Schema& SchemaImpl() const = 0;
  virtual TemporalClass TemporalClassImpl() const = 0;
  virtual TemporalDataModel DataModelImpl() const = 0;

 private:
  bool opened_ = false;
};

using BatchCursorPtr = std::unique_ptr<BatchCursor>;

/// Source: slices a materialized rowset (borrowed) into batches of
/// `batch_rows`.
BatchCursorPtr MakeRowsetBatchCursor(const Rowset* input,
                                     size_t batch_rows = kDefaultBatchRows);

/// Rows for which `pred` (borrowed) evaluates to true; predicate errors
/// surface in row order.
BatchCursorPtr MakeBatchSelectCursor(BatchCursorPtr input, const Expr* pred);

/// One output column per expression; output types are inferred from the
/// first input row (string for an empty input), and expressions are
/// evaluated in row-major order, so the first error is the first row's.
BatchCursorPtr MakeBatchProjectCursor(BatchCursorPtr input,
                                      const std::vector<ExprPtr>* exprs,
                                      std::vector<std::string> names);

/// Bag union; schemas and temporal classes must agree (checked at Open).
BatchCursorPtr MakeBatchUnionCursor(BatchCursorPtr a, BatchCursorPtr b);

/// Rows of `a` not present in `b`; `b` is drained and hashed at Open.
BatchCursorPtr MakeBatchDifferenceCursor(BatchCursorPtr a, BatchCursorPtr b);

/// Streaming duplicate elimination (full-row equality).
BatchCursorPtr MakeBatchDistinctCursor(BatchCursorPtr input);

/// Sort by the given column indexes ascending; a pipeline breaker.
BatchCursorPtr MakeBatchSortCursor(BatchCursorPtr input,
                                   std::vector<size_t> keys);

/// Cartesian product in the meet class.  The inner operand `b` is drained
/// into one columnar buffer at Open; each outer row then intersects its
/// periods against the whole inner side with one branch-free kernel pass
/// (`IntersectBitemporal` / `IntersectPeriods`), dropping never-coexisting
/// pairs.  Operand classes without a meet (rollback x historical) are
/// rejected at Open.
BatchCursorPtr MakeBatchCrossProductCursor(BatchCursorPtr a, BatchCursorPtr b);

/// Drains a batch cursor into a rowset (Open + NextBatch loop).
Result<Rowset> MaterializeBatchCursor(BatchCursor* cursor);

}  // namespace temporadb

#endif  // TEMPORADB_REL_BATCH_CURSOR_H_
