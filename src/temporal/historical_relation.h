#ifndef TEMPORADB_TEMPORAL_HISTORICAL_RELATION_H_
#define TEMPORADB_TEMPORAL_HISTORICAL_RELATION_H_

#include "temporal/stored_relation.h"

namespace temporadb {

/// An historical relation (§4.3): the history of reality *as it is best
/// known now*, indexed by valid time.
///
/// "As errors are discovered, they are corrected by modifying the database.
/// Previous states are not retained [...] There is no record kept of the
/// errors that have been corrected."
///
/// Implementation: the tuple-stamped representation of Figure 6 — each
/// version carries a valid period `[from, to)`; transaction time is not
/// maintained (degenerate `Period::All()`).  DML is *arbitrary
/// modification*:
///  - `Append` records a fact over any valid period, past or future
///    (retroactive and postactive changes are just periods that don't start
///    "now");
///  - `DeleteWhere` removes validity over a period, physically trimming —
///    and, when the deleted period falls strictly inside a fact's validity,
///    *splitting* — the stored versions;
///  - `CorrectErase` physically removes versions, leaving no trace.
class HistoricalRelation : public StoredRelation {
 public:
  explicit HistoricalRelation(RelationInfo info,
                              VersionStoreOptions options = {})
      : StoredRelation(std::move(info), options) {}

  Status Append(Transaction* txn, std::vector<Value> values,
                std::optional<Period> valid) override;

  Result<size_t> DoDeleteWhere(Transaction* txn, const VictimFilter& match,
                               std::optional<Period> valid) override;

  Result<size_t> DoReplaceWhere(Transaction* txn, const VictimFilter& match,
                                const UpdateSpec& updates,
                                std::optional<Period> valid) override;

  Result<size_t> CorrectErase(
      Transaction* txn, const TuplePredicate& pred,
      const std::optional<KeyRanges>& key = {}) override;

 private:
  /// Removes validity over `del` from each victim: trims it, splits it
  /// into two versions, or erases it.
  Status EraseValidity(Transaction* txn, const std::vector<RowId>& victims,
                       Period del);
};

}  // namespace temporadb

#endif  // TEMPORADB_TEMPORAL_HISTORICAL_RELATION_H_
