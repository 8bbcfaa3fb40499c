#include "temporal/rollback_relation.h"

namespace temporadb {

Status RollbackRelation::Append(Transaction* txn, std::vector<Value> values,
                                std::optional<Period> valid) {
  TDB_RETURN_IF_ERROR(RejectValidPeriod(valid));
  TDB_ASSIGN_OR_RETURN(values, CheckValues(std::move(values)));
  BitemporalTuple tuple;
  tuple.values = std::move(values);
  tuple.valid = Period::All();  // No valid-time semantics in this kind.
  tuple.txn = Period::From(txn->timestamp());
  TDB_ASSIGN_OR_RETURN(RowId row, store_.Append(txn, std::move(tuple)));
  (void)row;
  return Status::OK();
}

Status RollbackRelation::Delete(Transaction* txn,
                                const std::vector<RowId>& victims,
                                std::optional<Period>) {
  // Only the current state is mutable; deleting means the tuple stops being
  // part of the stored state from this transaction on.  Past states are
  // untouched and remain reachable by rollback.
  for (RowId row : victims) {
    TDB_RETURN_IF_ERROR(store_.CloseTxn(txn, row, txn->timestamp()));
  }
  return Status::OK();
}

Status RollbackRelation::Replace(Transaction* txn,
                                 const std::vector<RowId>& victims,
                                 std::vector<std::vector<Value>> values,
                                 std::optional<Period>) {
  // Close the old version at T and append the updated one at [T, ∞): the
  // new static state differs from the old exactly in the replaced tuples.
  for (size_t i = 0; i < victims.size(); ++i) {
    TDB_ASSIGN_OR_RETURN(const BitemporalTuple* t, store_.Get(victims[i]));
    BitemporalTuple updated{std::move(values[i]), t->valid,
                            Period::From(txn->timestamp())};
    TDB_RETURN_IF_ERROR(store_.CloseTxn(txn, victims[i], txn->timestamp()));
    TDB_ASSIGN_OR_RETURN(RowId new_row,
                         store_.Append(txn, std::move(updated)));
    (void)new_row;
  }
  return Status::OK();
}

}  // namespace temporadb
