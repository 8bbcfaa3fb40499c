#include "index/snapshot_index.h"

namespace temporadb {

Status SnapshotIndex::AddCurrent(RowId row, Chronon tt_start) {
  auto [it, inserted] = current_.emplace(row, tt_start);
  if (!inserted) {
    return Status::AlreadyExists("row already current in snapshot index");
  }
  return Status::OK();
}

Status SnapshotIndex::CloseCurrent(RowId row, Chronon tt_end) {
  auto it = current_.find(row);
  if (it == current_.end()) {
    return Status::FailedPrecondition("row is not in the current state");
  }
  if (tt_end < it->second) {
    return Status::InvalidArgument(
        "transaction-time end precedes its start (clock went backwards?)");
  }
  current_.erase(it);
  return Status::OK();
}

void SnapshotIndex::Current(const std::function<void(RowId)>& fn) const {
  for (const auto& [row, start] : current_) fn(row);
}

Result<Chronon> SnapshotIndex::CurrentStart(RowId row) const {
  auto it = current_.find(row);
  if (it == current_.end()) {
    return Status::NotFound("row is not current");
  }
  return it->second;
}

}  // namespace temporadb
