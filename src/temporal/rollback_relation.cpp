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

Result<size_t> RollbackRelation::DoDeleteWhere(Transaction* txn,
                                               const VictimFilter& match,
                                               std::optional<Period> valid) {
  TDB_RETURN_IF_ERROR(RejectValidPeriod(valid));
  // Only the current state is mutable; deleting means the tuple stops being
  // part of the stored state from this transaction on.  Past states are
  // untouched and remain reachable by rollback.
  TDB_ASSIGN_OR_RETURN(std::vector<RowId> victims,
                       SelectVictims(match, std::nullopt));
  for (RowId row : victims) {
    TDB_RETURN_IF_ERROR(store_.CloseTxn(txn, row, txn->timestamp()));
  }
  return victims.size();
}

Result<size_t> RollbackRelation::DoReplaceWhere(Transaction* txn,
                                                const VictimFilter& match,
                                                const UpdateSpec& updates,
                                                std::optional<Period> valid) {
  TDB_RETURN_IF_ERROR(RejectValidPeriod(valid));
  // Close the old version at T and append the updated one at [T, ∞): the
  // new static state differs from the old exactly in the replaced tuples.
  TDB_ASSIGN_OR_RETURN(std::vector<RowId> victims,
                       SelectVictims(match, std::nullopt));
  for (RowId row : victims) {
    TDB_ASSIGN_OR_RETURN(const BitemporalTuple* t, store_.Get(row));
    BitemporalTuple updated = *t;
    TDB_ASSIGN_OR_RETURN(updated.values,
                         ApplyUpdates(updates, updated.values));
    TDB_ASSIGN_OR_RETURN(updated.values,
                         CheckValues(std::move(updated.values)));
    updated.txn = Period::From(txn->timestamp());
    TDB_RETURN_IF_ERROR(store_.CloseTxn(txn, row, txn->timestamp()));
    TDB_ASSIGN_OR_RETURN(RowId new_row,
                         store_.Append(txn, std::move(updated)));
    (void)new_row;
  }
  return victims.size();
}

}  // namespace temporadb
