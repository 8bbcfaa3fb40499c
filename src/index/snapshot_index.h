#ifndef TEMPORADB_INDEX_SNAPSHOT_INDEX_H_
#define TEMPORADB_INDEX_SNAPSHOT_INDEX_H_

#include <cstdint>
#include <functional>
#include <map>

#include "common/chronon.h"
#include "common/result.h"

namespace temporadb {

/// The current-row set of a version store: every version whose transaction
/// period is still open (`end == ∞`), keyed by row.
///
/// A version's transaction-time period enters the *current state* open-ended
/// and is closed exactly once, when a later transaction supersedes or
/// deletes it (append-only discipline, §4.2).  DML only ever touches the
/// current state, so the victim walk of kinds with transaction time
/// (`StoredRelation::SelectVictims`) and `VersionStore::current_count()`
/// read this set instead of sweeping history.  Rollback to a past state is
/// a pinned scan, not an index probe (DESIGN.md §8).
class SnapshotIndex {
 public:
  using RowId = uint64_t;

  SnapshotIndex() = default;
  SnapshotIndex(const SnapshotIndex&) = delete;
  SnapshotIndex& operator=(const SnapshotIndex&) = delete;

  /// Registers a version entering the current state at `tt_start`.
  /// AlreadyExists when the row is already current.
  Status AddCurrent(RowId row, Chronon tt_start);

  /// Closes a current version at `tt_end` (the version stops being part of
  /// the stored state).  FailedPrecondition if the row is not current, or
  /// InvalidArgument if `tt_end` precedes its start.
  Status CloseCurrent(RowId row, Chronon tt_end);

  /// Calls `fn(row)` for every current (open-ended) version, in row order.
  void Current(const std::function<void(RowId)>& fn) const;

  /// True when the row is in the current state.
  bool IsCurrent(RowId row) const { return current_.contains(row); }

  /// Transaction-start chronon of a current row; NotFound otherwise.
  Result<Chronon> CurrentStart(RowId row) const;

  size_t current_count() const { return current_.size(); }

  /// Removes every entry (used when rebuilding after compaction).
  void Clear() { current_.clear(); }

 private:
  std::map<RowId, Chronon> current_;
};

}  // namespace temporadb

#endif  // TEMPORADB_INDEX_SNAPSHOT_INDEX_H_
