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

Result<size_t> TemporalRelation::DoDeleteWhere(Transaction* txn,
                                               const VictimFilter& match,
                                               std::optional<Period> valid) {
  TDB_ASSIGN_OR_RETURN(Period del, ResolveValidPeriod(txn, valid));
  const Chronon now = txn->timestamp();
  // Only versions in the *current* historical state are logically visible
  // to DML; closed versions belong to past states and are immutable.
  TDB_ASSIGN_OR_RETURN(std::vector<RowId> victims, SelectVictims(match, del));
  for (RowId row : victims) {
    TDB_ASSIGN_OR_RETURN(const BitemporalTuple* t, store_.Get(row));
    BitemporalTuple old = *t;
    // Supersede the old version: its transaction period ends now.
    TDB_RETURN_IF_ERROR(store_.CloseTxn(txn, row, now));
    // Append remnants of validity outside the deleted period, entering the
    // store now.
    Period left(old.valid.begin(), MinChronon(old.valid.end(), del.begin()));
    Period right(MaxChronon(old.valid.begin(), del.end()), old.valid.end());
    for (Period remnant : {left, right}) {
      if (remnant.IsEmpty()) continue;
      BitemporalTuple r = old;
      r.valid = remnant;
      r.txn = Period::From(now);
      TDB_ASSIGN_OR_RETURN(RowId new_row, store_.Append(txn, std::move(r)));
      (void)new_row;
    }
  }
  return victims.size();
}

Result<size_t> TemporalRelation::DoReplaceWhere(Transaction* txn,
                                                const VictimFilter& match,
                                                const UpdateSpec& updates,
                                                std::optional<Period> valid) {
  TDB_ASSIGN_OR_RETURN(Period rep, ResolveValidPeriod(txn, valid));
  const Chronon now = txn->timestamp();
  TDB_ASSIGN_OR_RETURN(std::vector<RowId> victims, SelectVictims(match, rep));
  for (RowId row : victims) {
    TDB_ASSIGN_OR_RETURN(const BitemporalTuple* t, store_.Get(row));
    BitemporalTuple old = *t;
    TDB_RETURN_IF_ERROR(store_.CloseTxn(txn, row, now));
    // Remnants keep the old values where the replacement does not reach.
    Period left(old.valid.begin(), MinChronon(old.valid.end(), rep.begin()));
    Period right(MaxChronon(old.valid.begin(), rep.end()), old.valid.end());
    for (Period remnant : {left, right}) {
      if (remnant.IsEmpty()) continue;
      BitemporalTuple r = old;
      r.valid = remnant;
      r.txn = Period::From(now);
      TDB_ASSIGN_OR_RETURN(RowId new_row, store_.Append(txn, std::move(r)));
      (void)new_row;
    }
    // The updated fact holds over the intersection of its old validity and
    // the replacement period.
    BitemporalTuple updated = old;
    TDB_ASSIGN_OR_RETURN(updated.values,
                         ApplyUpdates(updates, updated.values));
    TDB_ASSIGN_OR_RETURN(updated.values,
                         CheckValues(std::move(updated.values)));
    updated.valid = old.valid.Intersect(rep);
    updated.txn = Period::From(now);
    TDB_ASSIGN_OR_RETURN(RowId new_row, store_.Append(txn, std::move(updated)));
    (void)new_row;
  }
  return victims.size();
}

}  // namespace temporadb
