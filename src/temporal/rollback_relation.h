#ifndef TEMPORADB_TEMPORAL_ROLLBACK_RELATION_H_
#define TEMPORADB_TEMPORAL_ROLLBACK_RELATION_H_

#include "temporal/stored_relation.h"

namespace temporadb {

/// A static rollback relation (§4.2): the sequence of static states the
/// database has moved through, indexed by transaction time.
///
/// "Changes to a static rollback database may only be made to the most
/// recent static state. [...] once a transaction has completed, the static
/// relations in the static rollback relation may not be altered."
///
/// Implementation: the tuple-stamped representation of Figure 4 — each
/// version carries a transaction period `[start, end)`; the current state is
/// the set of versions with `end = ∞`.  Updates never destroy data: a delete
/// *closes* the victim's period at the transaction timestamp; a replace
/// closes and appends.  Valid time is not maintained (degenerate
/// `Period::All()`), and supplying a valid clause is `NotSupported` —
/// "there is no way to record retroactive/postactive changes, nor to correct
/// errors in past tuples."
class RollbackRelation : public StoredRelation {
 public:
  explicit RollbackRelation(RelationInfo info,
                            VersionStoreOptions options = {})
      : StoredRelation(std::move(info), options) {}

  Status Append(Transaction* txn, std::vector<Value> values,
                std::optional<Period> valid) override;

  Status Delete(Transaction* txn, const std::vector<RowId>& victims,
                std::optional<Period> window) override;

  Status Replace(Transaction* txn, const std::vector<RowId>& victims,
                 std::vector<std::vector<Value>> values,
                 std::optional<Period> window) override;
};

}  // namespace temporadb

#endif  // TEMPORADB_TEMPORAL_ROLLBACK_RELATION_H_
