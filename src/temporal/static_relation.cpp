#include "temporal/static_relation.h"

namespace temporadb {

Status StaticRelation::Append(Transaction* txn, std::vector<Value> values,
                              std::optional<Period> valid) {
  TDB_RETURN_IF_ERROR(RejectValidPeriod(valid));
  TDB_ASSIGN_OR_RETURN(values, CheckValues(std::move(values)));
  BitemporalTuple tuple;
  tuple.values = std::move(values);
  // Static relations have no temporal semantics: both periods degenerate.
  tuple.valid = Period::All();
  tuple.txn = Period::All();
  TDB_ASSIGN_OR_RETURN(RowId row, store_.Append(txn, std::move(tuple)));
  (void)row;
  return Status::OK();
}

Result<size_t> StaticRelation::DoDeleteWhere(Transaction* txn,
                                             const VictimFilter& match,
                                             std::optional<Period> valid) {
  TDB_RETURN_IF_ERROR(RejectValidPeriod(valid));
  TDB_ASSIGN_OR_RETURN(std::vector<RowId> victims,
                       SelectVictims(match, std::nullopt));
  for (RowId row : victims) {
    TDB_RETURN_IF_ERROR(store_.PhysicalDelete(txn, row));
  }
  return victims.size();
}

Result<size_t> StaticRelation::DoReplaceWhere(Transaction* txn,
                                              const VictimFilter& match,
                                              const UpdateSpec& updates,
                                              std::optional<Period> valid) {
  TDB_RETURN_IF_ERROR(RejectValidPeriod(valid));
  TDB_ASSIGN_OR_RETURN(std::vector<RowId> victims,
                       SelectVictims(match, std::nullopt));
  for (RowId row : victims) {
    TDB_ASSIGN_OR_RETURN(const BitemporalTuple* t, store_.Get(row));
    BitemporalTuple updated = *t;
    TDB_ASSIGN_OR_RETURN(updated.values,
                         ApplyUpdates(updates, updated.values));
    TDB_ASSIGN_OR_RETURN(updated.values,
                         CheckValues(std::move(updated.values)));
    TDB_RETURN_IF_ERROR(store_.PhysicalUpdate(txn, row, std::move(updated)));
  }
  return victims.size();
}

}  // namespace temporadb
