#include "temporal/historical_relation.h"

namespace temporadb {

Status HistoricalRelation::Append(Transaction* txn, std::vector<Value> values,
                                  std::optional<Period> valid) {
  TDB_ASSIGN_OR_RETURN(values, CheckValues(std::move(values)));
  TDB_ASSIGN_OR_RETURN(Period period, ResolveValidPeriod(txn, valid));
  BitemporalTuple tuple;
  tuple.values = std::move(values);
  tuple.valid = period;
  tuple.txn = Period::All();  // Transaction time is not maintained.
  TDB_ASSIGN_OR_RETURN(RowId row, store_.Append(txn, std::move(tuple)));
  (void)row;
  return Status::OK();
}

Status HistoricalRelation::Delete(Transaction* txn,
                                  const std::vector<RowId>& victims,
                                  std::optional<Period> window) {
  return EraseValidity(txn, victims, *window);
}

Status HistoricalRelation::EraseValidity(Transaction* txn,
                                         const std::vector<RowId>& victims,
                                         Period del) {
  for (RowId row : victims) {
    TDB_ASSIGN_OR_RETURN(const BitemporalTuple* t, store_.Get(row));
    BitemporalTuple old = *t;
    // The fact's validity minus the deleted period: up to two remnants.
    Period left(old.valid.begin(), MinChronon(old.valid.end(), del.begin()));
    Period right(MaxChronon(old.valid.begin(), del.end()), old.valid.end());
    bool keep_left = !left.IsEmpty();
    bool keep_right = !right.IsEmpty();
    if (keep_left && keep_right) {
      // Deleted period strictly inside: split into two versions.
      BitemporalTuple l = old;
      l.valid = left;
      TDB_RETURN_IF_ERROR(store_.PhysicalUpdate(txn, row, std::move(l)));
      BitemporalTuple r = old;
      r.valid = right;
      TDB_ASSIGN_OR_RETURN(RowId new_row, store_.Append(txn, std::move(r)));
      (void)new_row;
    } else if (keep_left || keep_right) {
      BitemporalTuple trimmed = old;
      trimmed.valid = keep_left ? left : right;
      TDB_RETURN_IF_ERROR(store_.PhysicalUpdate(txn, row, std::move(trimmed)));
    } else {
      // Entire validity deleted: the fact never was (as best we now know).
      TDB_RETURN_IF_ERROR(store_.PhysicalDelete(txn, row));
    }
  }
  return Status::OK();
}

Status HistoricalRelation::Replace(Transaction* txn,
                                   const std::vector<RowId>& victims,
                                   std::vector<std::vector<Value>> values,
                                   std::optional<Period> window) {
  // Replace = delete the old values over the window, then record the new
  // values over (old validity ∩ window).  The new versions are built before
  // the erase rewrites the old ones in place.
  std::vector<BitemporalTuple> insertions;
  insertions.reserve(victims.size());
  for (size_t i = 0; i < victims.size(); ++i) {
    TDB_ASSIGN_OR_RETURN(const BitemporalTuple* t, store_.Get(victims[i]));
    insertions.push_back(BitemporalTuple{
        std::move(values[i]), t->valid.Intersect(*window), t->txn});
  }
  TDB_RETURN_IF_ERROR(EraseValidity(txn, victims, *window));
  for (BitemporalTuple& t : insertions) {
    TDB_ASSIGN_OR_RETURN(RowId row, store_.Append(txn, std::move(t)));
    (void)row;
  }
  return Status::OK();
}

Status HistoricalRelation::CorrectErase(Transaction* txn,
                                        const std::vector<RowId>& victims) {
  for (RowId row : victims) {
    TDB_RETURN_IF_ERROR(store_.PhysicalDelete(txn, row));
  }
  return Status::OK();
}

}  // namespace temporadb
