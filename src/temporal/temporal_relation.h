#ifndef TEMPORADB_TEMPORAL_TEMPORAL_RELATION_H_
#define TEMPORADB_TEMPORAL_TEMPORAL_RELATION_H_

#include "temporal/stored_relation.h"

namespace temporadb {

/// A temporal (bitemporal) relation (§4.4): "a sequence of historical
/// states, each of which is a complete historical relation."
///
/// "Each transaction causes a new historical state to be created; hence,
/// temporal relations are append-only."
///
/// Implementation: the Figure 8 representation — every version carries both
/// a valid period and a transaction period.  A logical change to the
/// current historical state never mutates committed data; it
///  1. closes the transaction period of each superseded version at the
///     transaction timestamp `T`, and
///  2. appends replacement versions (trimmed remnants and/or updated facts)
///     with transaction period `[T, ∞)`.
/// Rolling back to any past `T'` therefore reconstructs the historical
/// state exactly as it stood then — including the errors later corrected,
/// which is the capability neither rollback nor historical relations have.
class TemporalRelation : public StoredRelation {
 public:
  explicit TemporalRelation(RelationInfo info,
                            VersionStoreOptions options = {})
      : StoredRelation(std::move(info), options) {}

  Status Append(Transaction* txn, std::vector<Value> values,
                std::optional<Period> valid) override;

  Status Delete(Transaction* txn, const std::vector<RowId>& victims,
                std::optional<Period> window) override;

  Status Replace(Transaction* txn, const std::vector<RowId>& victims,
                 std::vector<std::vector<Value>> values,
                 std::optional<Period> window) override;

 private:
  /// Closes each victim now and appends its remnants outside `window`;
  /// with `values`, also victim i's new values over its validity within
  /// `window`.
  Status Supersede(Transaction* txn, const std::vector<RowId>& victims,
                   Period window, std::vector<std::vector<Value>>* values);
};

}  // namespace temporadb

#endif  // TEMPORADB_TEMPORAL_TEMPORAL_RELATION_H_
