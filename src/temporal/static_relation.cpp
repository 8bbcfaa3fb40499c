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

Status StaticRelation::Delete(Transaction* txn,
                              const std::vector<RowId>& victims,
                              std::optional<Period>) {
  for (RowId row : victims) {
    TDB_RETURN_IF_ERROR(store_.PhysicalDelete(txn, row));
  }
  return Status::OK();
}

Status StaticRelation::Replace(Transaction* txn,
                               const std::vector<RowId>& victims,
                               std::vector<std::vector<Value>> values,
                               std::optional<Period>) {
  for (size_t i = 0; i < victims.size(); ++i) {
    TDB_ASSIGN_OR_RETURN(const BitemporalTuple* t, store_.Get(victims[i]));
    TDB_RETURN_IF_ERROR(store_.PhysicalUpdate(
        txn, victims[i], BitemporalTuple{std::move(values[i]), t->valid,
                                         t->txn}));
  }
  return Status::OK();
}

}  // namespace temporadb
