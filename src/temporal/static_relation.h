#ifndef TEMPORADB_TEMPORAL_STATIC_RELATION_H_
#define TEMPORADB_TEMPORAL_STATIC_RELATION_H_

#include "temporal/stored_relation.h"

namespace temporadb {

/// A conventional snapshot relation (§4.1).
///
/// "Updating the state of a database is performed using data manipulation
/// operations such as insertion, deletion or replacement, taking effect as
/// soon as it is committed.  In this process, past states of the database,
/// and those of the real world, are discarded and forgotten completely."
///
/// Implementation: tuples live in the version store with both temporal
/// periods degenerate (`Period::All()`); deletes and replaces physically
/// destroy the old data.
class StaticRelation : public StoredRelation {
 public:
  explicit StaticRelation(RelationInfo info, VersionStoreOptions options = {})
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

#endif  // TEMPORADB_TEMPORAL_STATIC_RELATION_H_
