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

Result<size_t> HistoricalRelation::DoDeleteWhere(Transaction* txn,
                                                 const VictimFilter& match,
                                                 std::optional<Period> valid) {
  TDB_ASSIGN_OR_RETURN(Period del, ResolveValidPeriod(txn, valid));
  TDB_ASSIGN_OR_RETURN(std::vector<RowId> victims, SelectVictims(match, del));
  TDB_RETURN_IF_ERROR(EraseValidity(txn, victims, del));
  return victims.size();
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

Result<size_t> HistoricalRelation::DoReplaceWhere(Transaction* txn,
                                                  const VictimFilter& match,
                                                  const UpdateSpec& updates,
                                                  std::optional<Period> valid) {
  TDB_ASSIGN_OR_RETURN(Period rep, ResolveValidPeriod(txn, valid));
  // Replace = delete the old values over the period, then record the new
  // values over (old validity ∩ period).  Collect the insertions before
  // deleting so the predicate sees the pre-statement state.
  TDB_ASSIGN_OR_RETURN(std::vector<RowId> victims, SelectVictims(match, rep));
  std::vector<BitemporalTuple> insertions;
  for (RowId row : victims) {
    TDB_ASSIGN_OR_RETURN(const BitemporalTuple* t, store_.Get(row));
    BitemporalTuple updated = *t;
    TDB_ASSIGN_OR_RETURN(updated.values,
                         ApplyUpdates(updates, updated.values));
    TDB_ASSIGN_OR_RETURN(updated.values,
                         CheckValues(std::move(updated.values)));
    updated.valid = updated.valid.Intersect(rep);
    insertions.push_back(std::move(updated));
  }
  TDB_RETURN_IF_ERROR(EraseValidity(txn, victims, rep));
  for (BitemporalTuple& t : insertions) {
    TDB_ASSIGN_OR_RETURN(RowId row, store_.Append(txn, std::move(t)));
    (void)row;
  }
  return insertions.size();
}

Result<size_t> HistoricalRelation::CorrectErase(
    Transaction* txn, const TuplePredicate& pred,
    const std::optional<KeyRanges>& key) {
  TDB_ASSIGN_OR_RETURN(std::vector<RowId> victims,
                       SelectVictims({pred, nullptr, key}, std::nullopt));
  for (RowId row : victims) {
    TDB_RETURN_IF_ERROR(store_.PhysicalDelete(txn, row));
  }
  return victims.size();
}

}  // namespace temporadb
