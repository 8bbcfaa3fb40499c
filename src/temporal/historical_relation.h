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
///  - `Delete` removes validity over a period, physically trimming —
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

  Status Delete(Transaction* txn, const std::vector<RowId>& victims,
                std::optional<Period> window) override;

  Status Replace(Transaction* txn, const std::vector<RowId>& victims,
                 std::vector<std::vector<Value>> values,
                 std::optional<Period> window) override;

  /// The write step of `correct`: physically removes `victims` (rows of
  /// `DmlCandidates(std::nullopt, ...)`), leaving no trace (§4.3: "there is
  /// no record kept of the errors that have been corrected").  Only this
  /// kind has it.
  Status CorrectErase(Transaction* txn, const std::vector<RowId>& victims);

 private:
  /// Removes validity over `del` from each victim: trims it, splits it
  /// into two versions, or erases it.
  Status EraseValidity(Transaction* txn, const std::vector<RowId>& victims,
                       Period del);
};

}  // namespace temporadb

#endif  // TEMPORADB_TEMPORAL_HISTORICAL_RELATION_H_
