#include "temporal/temporal_relation.h"

namespace temporadb {

Status TemporalRelation::Append(Transaction* txn, std::vector<Value> values,
                                std::optional<Period> valid) {
  TDB_ASSIGN_OR_RETURN(values, CheckValues(std::move(values)));
  TDB_ASSIGN_OR_RETURN(Period period, ResolveValidPeriod(txn, valid));
  BitemporalTuple tuple;
  tuple.values = std::move(values);
  tuple.valid = period;
  tuple.txn = Period::From(txn->timestamp());
  TDB_ASSIGN_OR_RETURN(RowId row, store_.Append(txn, std::move(tuple)));
  (void)row;
  return Status::OK();
}

Status TemporalRelation::Delete(Transaction* txn,
                                const std::vector<RowId>& victims,
                                std::optional<Period> window) {
  return Supersede(txn, victims, *window, nullptr);
}

Status TemporalRelation::Replace(Transaction* txn,
                                 const std::vector<RowId>& victims,
                                 std::vector<std::vector<Value>> values,
                                 std::optional<Period> window) {
  return Supersede(txn, victims, *window, &values);
}

Status TemporalRelation::Supersede(Transaction* txn,
                                   const std::vector<RowId>& victims,
                                   Period window,
                                   std::vector<std::vector<Value>>* values) {
  const Chronon now = txn->timestamp();
  for (size_t i = 0; i < victims.size(); ++i) {
    TDB_ASSIGN_OR_RETURN(const BitemporalTuple* t, store_.Get(victims[i]));
    BitemporalTuple old = *t;
    // Supersede the old version: its transaction period ends now.
    TDB_RETURN_IF_ERROR(store_.CloseTxn(txn, victims[i], now));
    // Remnants keep the old values outside the window, entering the store
    // now.
    Period left(old.valid.begin(), MinChronon(old.valid.end(), window.begin()));
    Period right(MaxChronon(old.valid.begin(), window.end()), old.valid.end());
    for (Period remnant : {left, right}) {
      if (remnant.IsEmpty()) continue;
      BitemporalTuple r = old;
      r.valid = remnant;
      r.txn = Period::From(now);
      TDB_ASSIGN_OR_RETURN(RowId new_row, store_.Append(txn, std::move(r)));
      (void)new_row;
    }
    if (values == nullptr) continue;
    // The new values hold over the intersection of the old validity and
    // the window.
    BitemporalTuple updated{std::move((*values)[i]),
                            old.valid.Intersect(window), Period::From(now)};
    TDB_ASSIGN_OR_RETURN(RowId new_row, store_.Append(txn, std::move(updated)));
    (void)new_row;
  }
  return Status::OK();
}

}  // namespace temporadb
