#include "temporal/version_store.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "common/check.h"
#include "temporal/kernels.h"

namespace temporadb {

namespace {

// An empty overlap window can never match (Period::Overlaps is false against
// an empty operand); scans collapse their domain to nothing instead of
// probing (the overlap kernels also assume non-empty query windows).
bool NeverMatches(const BatchPredicates& p) {
  return (p.valid_overlaps.has_value() && p.valid_overlaps->IsEmpty()) ||
         (p.txn_overlaps.has_value() && p.txn_overlaps->IsEmpty());
}

// Slices disjoint ascending row ranges (the survivors of partition pruning)
// into contiguous chunks of at most `chunk_rows` rows, restarting the grid
// at every range boundary: a pruned partition contributes no chunk, and the
// single range [0, n) gives the plain every-`chunk_rows` grid.
std::vector<RowRange> RangeChunks(const std::vector<RowRange>& ranges,
                                  size_t chunk_rows) {
  std::vector<RowRange> chunks;
  for (const RowRange& r : ranges) {
    for (size_t b = r.begin; b < r.end; b += chunk_rows) {
      chunks.push_back(RowRange{b, std::min(b + chunk_rows, r.end)});
    }
  }
  return chunks;
}

}  // namespace

// ---------------------------------------------------------------------------
// VersionBatchScan
// ---------------------------------------------------------------------------

VersionBatchScan::VersionBatchScan(const VersionStore* store, SnapshotPin pin,
                                   BatchPredicates preds)
    : store_(store),
      preds_(preds),
      pin_(pin),
      // The epoch is writer state: a reader pin must not load it.
      epoch_(pin.IsHead() ? store->mutation_epoch() : 0) {
  TDB_INVARIANT_CHECK(pin_.rows <= std::numeric_limits<uint32_t>::max(),
                      "selection vectors index rows as uint32");
  if (NeverMatches(preds_)) return;
  const std::vector<RowRange> ranges = store->PruneRanges(preds_, pin_);
  chunks_ = RangeChunks(ranges,
                        std::max<size_t>(store->options().batch_rows, 1));
  if (ScanStats* stats = store->options().scan_stats) {
    stats->batch_morsels_formed.fetch_add(chunks_.size(),
                                          std::memory_order_relaxed);
  }
}

void VersionBatchScan::ProbeRange(size_t begin, size_t end,
                                  VersionBatch* out) const {
  // The kernel chain is *range-relative* (column pointers offset by
  // `begin`, scratch indexed from 0), because a reader pin's effective
  // tt_end scratch only spans `[begin, end)`; the gather goes through
  // `TuplePinned`, which reads no writer-side size state.
  const size_t n = end - begin;
  if (n == 0) return;
  const int64_t* vf = store_->chronon_valid_from() + begin;
  const int64_t* vt = store_->chronon_valid_to() + begin;
  const int64_t* ts = store_->chronon_tt_start() + begin;
  const uint8_t* live = store_->chronon_live() + begin;

  // Ping-pong selection vectors: each kernel pass refines `cur` into `nxt`.
  // Small probes stay on the stack; only real batches pay an allocation.
  constexpr size_t kStackSel = 64;
  uint32_t stack_a[kStackSel];
  uint32_t stack_b[kStackSel];
  int64_t stack_te[kStackSel];
  std::vector<uint32_t> sel_a;
  std::vector<uint32_t> sel_b;
  std::vector<int64_t> te_heap;
  uint32_t* cur = stack_a;
  uint32_t* nxt = stack_b;
  int64_t* te_scratch = stack_te;
  if (n > kStackSel) {
    sel_a.resize(n);
    sel_b.resize(n);
    cur = sel_a.data();
    nxt = sel_b.data();
  }
  const int64_t* te = store_->chronon_tt_end() + begin;
  if (!pin_.IsHead()) {
    if (n > kStackSel) {
      te_heap.resize(n);
      te_scratch = te_heap.data();
    }
    store_->FillEffectiveTtEnd(begin, end, pin_.seq, te_scratch);
    te = te_scratch;
  }

  size_t cnt = kernels::SelectLive(live, n, cur);
  if (preds_.txn_contains.has_value()) {
    cnt = kernels::SelectContainsRefine(ts, te, cur, cnt,
                                        preds_.txn_contains->days(), nxt);
    std::swap(cur, nxt);
  }
  if (preds_.txn_overlaps.has_value()) {
    cnt = kernels::SelectOverlapsRefine(ts, te, cur, cnt,
                                        preds_.txn_overlaps->begin().days(),
                                        preds_.txn_overlaps->end().days(), nxt);
    std::swap(cur, nxt);
  }
  if (preds_.txn_current) {
    cnt = kernels::SelectEndEqualsRefine(te, cur, cnt, Chronon::kForeverRep,
                                         nxt);
    std::swap(cur, nxt);
  }
  if (preds_.valid_overlaps.has_value()) {
    cnt = kernels::SelectOverlapsRefine(vf, vt, cur, cnt,
                                        preds_.valid_overlaps->begin().days(),
                                        preds_.valid_overlaps->end().days(),
                                        nxt);
    std::swap(cur, nxt);
  }

  // Gather the survivors: borrowed tuple pointers plus copies of their
  // chronon entries (`te`'s pin-effective ones), so downstream kernels
  // keep running over flat arrays.  Each column is filled by its own loop.
  const size_t base = out->size();
  const size_t need = base + cnt;
  out->rows.resize(need);
  out->tuples.resize(need);
  out->valid_from.resize(need);
  out->valid_to.resize(need);
  out->tt_start.resize(need);
  out->tt_end.resize(need);
  RowId* rows = out->rows.data() + base;
  const BitemporalTuple** tuples = out->tuples.data() + base;
  for (size_t k = 0; k < cnt; ++k) {
    rows[k] = begin + cur[k];
    tuples[k] = store_->TuplePinned(rows[k]);
  }
  const auto gather = [&](const int64_t* from, std::vector<int64_t>* to) {
    int64_t* dst = to->data() + base;
    for (size_t k = 0; k < cnt; ++k) dst[k] = from[cur[k]];
  };
  gather(vf, &out->valid_from);
  gather(vt, &out->valid_to);
  gather(ts, &out->tt_start);
  gather(te, &out->tt_end);
}

void VersionBatchScan::CheckEpoch() const {
  if (pin_.IsHead()) {
    TDB_INVARIANT_CHECK(
        epoch_ == store_->mutation_epoch(),
        "VersionBatchScan advanced after a store mutation; the head pin's "
        "watermark and closes are stale (open a fresh scan, or use a read "
        "snapshot for scans that must survive commits)");
  }
}

bool VersionBatchScan::Next(VersionBatch* out) {
  CheckEpoch();
  while (chunk_idx_ < chunks_.size()) {
    const RowRange c = chunks_[chunk_idx_++];
    out->Clear();
    ProbeRange(c.begin, c.end, out);
    if (!out->empty()) return true;
  }
  return false;
}

void VersionBatchScan::ReadAll(VersionBatch* out) {
  CheckEpoch();
  while (chunk_idx_ < chunks_.size()) {
    const RowRange c = chunks_[chunk_idx_++];
    ProbeRange(c.begin, c.end, out);
  }
}

VersionStore::VersionStore(VersionStoreOptions options) : options_(options) {}

void VersionStore::AttrIndexInsert(RowId row, const BitemporalTuple& t) {
  for (auto& [attr, index] : attr_indexes_) {
    if (attr < t.values.size()) index->Insert(t.values[attr], row);
  }
}

void VersionStore::AttrIndexErase(RowId row, const BitemporalTuple& t) {
  for (auto& [attr, index] : attr_indexes_) {
    // Inserted by AttrIndexInsert with this exact key.
    if (attr < t.values.size()) (void)index->Remove(t.values[attr], row);
  }
}

void VersionStore::SyncChrononColumns(RowId row) {
  const Slot& slot = versions_[row];
  col_valid_from_[row] = slot.tuple.valid.begin().days();
  col_valid_to_[row] = slot.tuple.valid.end().days();
  col_tt_start_[row] = slot.tuple.txn.begin().days();
  col_tt_end_[row] = slot.tuple.txn.end().days();
  col_live_[row] = slot.tombstone ? 0 : 1;
}

RowId VersionStore::RawAppend(BitemporalTuple tuple) {
  RowId row = versions_.size();
  AttrIndexInsert(row, tuple);
  versions_.push_back(Slot{std::move(tuple), false});
  col_valid_from_.push_back(0);
  col_valid_to_.push_back(0);
  col_tt_start_.push_back(0);
  col_tt_end_.push_back(0);
  col_live_.push_back(1);
  // A fresh row's close (if its tuple arrived already closed) predates any
  // snapshot that can see the row — the row itself is invisible until the
  // watermark covers it — so stamp 0 keeps it unconditionally visible.
  col_close_seq_.push_back(0);
  SyncChrononColumns(row);
  ++live_count_;
  ++mutation_epoch_;
  MaybeSealHot();
  return row;
}

void VersionStore::RawUnappend(RowId row) {
  assert(row + 1 == versions_.size());
  // Without MVCC the store seals eagerly at append, so an abort-time
  // unappend may claw the tail row back out of a sealed partition: unseal
  // it (remaining rows return to the hot tail and reseal on the next
  // append).  With MVCC this never triggers — only committed rows seal,
  // and committed rows never unappend.
  while (sealed_rows_ > row) {
    const uint64_t n = sealed_.size();
    TDB_INVARIANT_CHECK(options_.mvcc == nullptr && n > 0,
                        "unappend reached into a sealed partition with "
                        "MVCC snapshots enabled; sealed partitions must "
                        "only cover committed rows");
    sealed_rows_ = sealed_[n - 1].begin_row;
    sealed_count_.store(n - 1, std::memory_order_release);
    sealed_.pop_back();
  }
  Slot& slot = versions_[row];
  if (!slot.tombstone) {
    AttrIndexErase(row, slot.tuple);
    --live_count_;
  }
  versions_.pop_back();
  col_valid_from_.pop_back();
  col_valid_to_.pop_back();
  col_tt_start_.pop_back();
  col_tt_end_.pop_back();
  col_live_.pop_back();
  col_close_seq_.pop_back();
  ++mutation_epoch_;
}

Status VersionStore::RawCloseTxn(RowId row, Chronon tt_end) {
  if (row >= versions_.size() || versions_[row].tombstone) {
    return Status::NotFound("no such version");
  }
  BitemporalTuple& t = versions_[row].tuple;
  if (!t.IsCurrentState()) {
    return Status::FailedPrecondition(
        "version's transaction period is already closed");
  }
  if (tt_end < t.txn.begin()) {
    return Status::InvalidArgument(
        "transaction end precedes transaction start");
  }
  t.txn = Period(t.txn.begin(), tt_end);
  // The close is the one in-place mutation snapshot readers must see — or
  // not see, depending on their pin.  Stamp the publishing commit sequence
  // first (relaxed), then the column entry (release): a reader that
  // observes the finite tt_end also observes its stamp and can patch the
  // close back to ∞ when it postdates the pin.  Only the tt_end entry is
  // touched — a full SyncChrononColumns here would plain-store the other
  // four entries and race concurrent snapshot loads, even though the
  // values are unchanged.
  //
  // During WAL replay / checkpoint load there is no MvccState commit
  // sequence yet meaningful per-transaction; recovery stamps still use
  // commit_seq+1 and the end-of-recovery publication advances commit_seq
  // past them, so recovered closes are visible to every later pin.
  const uint64_t stamp =
      options_.mvcc == nullptr
          ? 0
          : options_.mvcc->commit_seq.load(std::memory_order_relaxed) + 1;
  mvcc::StoreRelaxed(&col_close_seq_[row], stamp);
  mvcc::StoreRelease(&col_tt_end_[row], tt_end.days());
  OnRowClosed(row, tt_end, stamp);
  ++mutation_epoch_;
  return Status::OK();
}

void VersionStore::RawReopenTxn(RowId row, Chronon old_end) {
  assert(old_end.IsForever());
  Slot& slot = versions_[row];
  slot.tuple.txn = Period(slot.tuple.txn.begin(), old_end);
  // Abort-time undo of a close.  Restore ∞ atomically (a snapshot reader
  // may be loading this entry right now); the stale close stamp is left in
  // place deliberately — with tt_end = ∞ the row reads as current no
  // matter what the stamp says, and a later close will restamp it.
  mvcc::StoreRelease(&col_tt_end_[row], old_end.days());
  OnRowReopened(row);
  ++mutation_epoch_;
}

Status VersionStore::RawPhysicalDelete(RowId row) {
  if (row >= versions_.size() || versions_[row].tombstone) {
    return Status::NotFound("no such version");
  }
  Slot& slot = versions_[row];
  AttrIndexErase(row, slot.tuple);
  slot.tombstone = true;
  col_live_[row] = 0;
  --live_count_;
  RepatchSealedSynopsis(row);
  ++mutation_epoch_;
  return Status::OK();
}

void VersionStore::RawUndelete(RowId row, BitemporalTuple tuple) {
  Slot& slot = versions_[row];
  assert(slot.tombstone);
  slot.tuple = std::move(tuple);
  slot.tombstone = false;
  SyncChrononColumns(row);
  AttrIndexInsert(row, slot.tuple);
  ++live_count_;
  RepatchSealedSynopsis(row);
  ++mutation_epoch_;
}

Status VersionStore::RawPhysicalUpdate(RowId row, BitemporalTuple tuple) {
  if (row >= versions_.size() || versions_[row].tombstone) {
    return Status::NotFound("no such version");
  }
  Slot& slot = versions_[row];
  AttrIndexErase(row, slot.tuple);
  slot.tuple = std::move(tuple);
  SyncChrononColumns(row);
  AttrIndexInsert(row, slot.tuple);
  RepatchSealedSynopsis(row);
  ++mutation_epoch_;
  return Status::OK();
}

Result<RowId> VersionStore::Append(Transaction* txn, BitemporalTuple tuple) {
  if (txn == nullptr || !txn->IsActive()) {
    return Status::FailedPrecondition("append outside an active transaction");
  }
  BitemporalTuple copy = tuple;
  RowId row = RawAppend(std::move(tuple));
  txn->PushUndo([this, row] { RawUnappend(row); });
  if (observer_) {
    VersionOp op;
    op.kind = VersionOp::Kind::kAppend;
    op.row = row;
    op.tuple = std::move(copy);
    observer_(op);
  }
  return row;
}

Status VersionStore::CloseTxn(Transaction* txn, RowId row, Chronon tt_end) {
  if (txn == nullptr || !txn->IsActive()) {
    return Status::FailedPrecondition("close outside an active transaction");
  }
  TDB_RETURN_IF_ERROR(RawCloseTxn(row, tt_end));
  txn->PushUndo([this, row] { RawReopenTxn(row, Chronon::Forever()); });
  if (observer_) {
    VersionOp op;
    op.kind = VersionOp::Kind::kCloseTxn;
    op.row = row;
    op.tt_end = tt_end;
    observer_(op);
  }
  return Status::OK();
}

Status VersionStore::PhysicalDelete(Transaction* txn, RowId row) {
  if (txn == nullptr || !txn->IsActive()) {
    return Status::FailedPrecondition("delete outside an active transaction");
  }
  // In-place history rewrite: fence out snapshot readers for the rest of
  // this transaction (including a potential abort-time undo).  The owning
  // Database lowers the fence at commit/abort.
  if (options_.mvcc != nullptr) {
    TDB_RETURN_IF_ERROR(options_.mvcc->BeginCorrection());
  }
  TDB_ASSIGN_OR_RETURN(const BitemporalTuple* old, Get(row));
  BitemporalTuple saved = *old;
  TDB_RETURN_IF_ERROR(RawPhysicalDelete(row));
  txn->PushUndo([this, row, saved] { RawUndelete(row, saved); });
  if (observer_) {
    VersionOp op;
    op.kind = VersionOp::Kind::kPhysicalDelete;
    op.row = row;
    observer_(op);
  }
  return Status::OK();
}

Status VersionStore::PhysicalUpdate(Transaction* txn, RowId row,
                                    BitemporalTuple tuple) {
  if (txn == nullptr || !txn->IsActive()) {
    return Status::FailedPrecondition("update outside an active transaction");
  }
  // Same correction fence as PhysicalDelete.
  if (options_.mvcc != nullptr) {
    TDB_RETURN_IF_ERROR(options_.mvcc->BeginCorrection());
  }
  TDB_ASSIGN_OR_RETURN(const BitemporalTuple* old, Get(row));
  BitemporalTuple saved = *old;
  BitemporalTuple copy = tuple;
  TDB_RETURN_IF_ERROR(RawPhysicalUpdate(row, std::move(tuple)));
  // Undo restores the overwritten tuple; the row was live when the update
  // succeeded, so the inverse update cannot fail.
  txn->PushUndo([this, row, saved] { (void)RawPhysicalUpdate(row, saved); });
  if (observer_) {
    VersionOp op;
    op.kind = VersionOp::Kind::kPhysicalUpdate;
    op.row = row;
    op.tuple = std::move(copy);
    observer_(op);
  }
  return Status::OK();
}

Result<const BitemporalTuple*> VersionStore::Get(RowId row) const {
  if (row >= versions_.size() || versions_[row].tombstone) {
    return Status::NotFound("no such version");
  }
  return &versions_[row].tuple;
}

void VersionStore::ForEach(
    const std::function<void(RowId, const BitemporalTuple&)>& fn) const {
  for (RowId row = 0; row < versions_.size(); ++row) {
    if (!versions_[row].tombstone) fn(row, versions_[row].tuple);
  }
}

VersionBatchScan VersionStore::BatchScan(SnapshotPin pin,
                                         BatchPredicates preds) const {
  return VersionBatchScan(this, pin, std::move(preds));
}

Status VersionStore::ApplyReplay(const VersionOp& op) {
  switch (op.kind) {
    case VersionOp::Kind::kAppend: {
      RowId row = RawAppend(op.tuple);
      if (row != op.row) {
        return Status::Corruption(
            "replay row id mismatch: log does not match store state");
      }
      return Status::OK();
    }
    case VersionOp::Kind::kCloseTxn:
      return RawCloseTxn(op.row, op.tt_end);
    case VersionOp::Kind::kPhysicalDelete:
      return RawPhysicalDelete(op.row);
    case VersionOp::Kind::kPhysicalUpdate:
      return RawPhysicalUpdate(op.row, op.tuple);
  }
  return Status::Corruption("unknown version op in log");
}

void VersionStore::ForEachSlot(
    const std::function<void(RowId, const BitemporalTuple*)>& fn) const {
  for (RowId row = 0; row < versions_.size(); ++row) {
    fn(row, versions_[row].tombstone ? nullptr : &versions_[row].tuple);
  }
}

RowId VersionStore::LoadSlot(std::optional<BitemporalTuple> tuple) {
  if (tuple.has_value()) {
    return RawAppend(std::move(*tuple));
  }
  RowId row = versions_.size();
  versions_.push_back(Slot{BitemporalTuple{}, true});
  col_valid_from_.push_back(0);
  col_valid_to_.push_back(0);
  col_tt_start_.push_back(0);
  col_tt_end_.push_back(0);
  col_live_.push_back(0);
  col_close_seq_.push_back(0);
  ++mutation_epoch_;
  MaybeSealHot();
  return row;
}

size_t VersionStore::CompactTombstones() {
  // In-place rewrite of rows under the watermark: the caller (the Database
  // checkpoint path) holds the correction fence, so no snapshot reader can
  // be pinned while this runs and none can pin until it finishes.
  size_t reclaimed = versions_.size() - live_count_;
  if (reclaimed == 0) return 0;  // Nothing to do; don't disturb the slots.
  const size_t old_size = versions_.size();
  size_t write = 0;
  for (size_t read = 0; read < old_size; ++read) {
    if (versions_[read].tombstone) continue;
    if (write != read) versions_[write] = std::move(versions_[read]);
    ++write;
  }
  versions_.Truncate(write);
  col_valid_from_.Truncate(write);
  col_valid_to_.Truncate(write);
  col_tt_start_.Truncate(write);
  col_tt_end_.Truncate(write);
  col_live_.Truncate(write);
  col_close_seq_.Truncate(write);
  // Survivors are all committed (compaction runs at a checkpoint boundary,
  // no active transaction) and every pin taken after the fence drops has a
  // sequence at least the current one, so stamp 0 — unconditionally
  // visible — is correct and keeps compaction idempotent across reopens.
  for (size_t row = 0; row < write; ++row) col_close_seq_[row] = 0;
  // No reader holds a retired column buffer while the fence is up; give
  // the memory back.
  col_valid_from_.ReleaseRetired();
  col_valid_to_.ReleaseRetired();
  col_tt_start_.ReleaseRetired();
  col_tt_end_.ReleaseRetired();
  col_live_.ReleaseRetired();
  col_close_seq_.ReleaseRetired();
  // Row ids changed: every sealed boundary and synopsis is stale.  Drop
  // them (the correction fence guarantees no reader holds a partition
  // count) and let the re-publication below reseal the compacted prefix.
  sealed_count_.store(0, std::memory_order_release);
  sealed_.Truncate(0);
  sealed_rows_ = 0;
  // Row ids changed: rebuild every index from scratch.
  for (auto& [attr, index] : attr_indexes_) index->Clear();
  for (RowId row = 0; row < versions_.size(); ++row) {
    SyncChrononColumns(row);
    AttrIndexInsert(row, versions_[row].tuple);
  }
  // The published watermark now exceeds the row count; re-publish so later
  // pins see the compacted extent.  (No pin can exist right now; this also
  // reseals the compacted history into fresh partitions.)
  PublishCommittedRows();
  ++mutation_epoch_;
  return reclaimed;
}

Status VersionStore::CreateAttributeIndex(size_t attr_index) {
  if (attr_indexes_.contains(attr_index)) {
    return Status::AlreadyExists("attribute is already indexed");
  }
  auto index = std::make_unique<BTreeIndex>();
  for (RowId row = 0; row < versions_.size(); ++row) {
    const Slot& slot = versions_[row];
    if (slot.tombstone) continue;
    if (attr_index >= slot.tuple.values.size()) {
      return Status::InvalidArgument("attribute index out of range");
    }
    index->Insert(slot.tuple.values[attr_index], row);
  }
  attr_indexes_.emplace(attr_index, std::move(index));
  return Status::OK();
}

size_t VersionStore::ApproximateBytes() const {
  size_t bytes = versions_.size() * (sizeof(Slot) + 4 * sizeof(int64_t));
  for (RowId row = 0; row < versions_.size(); ++row) {
    const Slot& s = versions_[row];
    for (const Value& v : s.tuple.values) {
      bytes += sizeof(Value);
      if (v.type() == ValueType::kString) bytes += v.AsString().size();
    }
  }
  return bytes;
}

void VersionStore::FillEffectiveTtEnd(size_t begin, size_t end,
                                      uint64_t snap_seq, int64_t* out) const {
  for (size_t row = begin; row < end; ++row) {
    out[row - begin] = EffectiveTtEnd(row, snap_seq);
  }
}

// --- Epoch partitions --------------------------------------------------------

void VersionStore::MaybeSealHot() {
  if (loading_ || options_.partition_rows == 0) return;
  // Only rows that can never be unappended may seal.  With MVCC that is the
  // committed watermark (an abort claws back rows above it, never below);
  // without MVCC there are no concurrent readers, so the whole store is
  // sealable and RawUnappend simply unseals on the way back down.
  const size_t cap = options_.mvcc == nullptr
                         ? versions_.size()
                         : committed_rows_.load(std::memory_order_relaxed);
  while (cap > sealed_rows_ && cap - sealed_rows_ >= options_.partition_rows) {
    PartitionSynopsis s;
    s.begin_row = sealed_rows_;
    s.end_row = sealed_rows_ + options_.partition_rows;
    ComputeSynopsis(&s);
    // Publish order matters under concurrent pinned readers: the synopsis is
    // fully written into the slab first, the count release-stored last, so a
    // reader that observes index i < sealed_count_ observes i's final bytes.
    sealed_.push_back(s);
    sealed_rows_ = s.end_row;
    sealed_count_.store(sealed_.size(), std::memory_order_release);
  }
}

void VersionStore::ComputeSynopsis(PartitionSynopsis* s) const {
  s->min_valid_from = Chronon::kForeverRep;
  s->max_valid_to = Chronon::kBeginningRep;
  s->min_tt_start = Chronon::kForeverRep;
  s->max_finite_tt_end = Chronon::kBeginningRep;
  s->current_rows = 0;
  s->last_close_seq = 0;
  s->live_rows = 0;
  for (KeySketch& k : s->sketches) k = KeySketch{};
  for (RowId row = s->begin_row; row < s->end_row; ++row) {
    if (col_live_[row] == 0) continue;  // Tombstone: no time, no keys.
    ++s->live_rows;
    const int64_t vf = col_valid_from_[row];
    const int64_t vt = col_valid_to_[row];
    if (vf < vt) {  // Empty valid periods overlap nothing; skip the bounds.
      if (vf < s->min_valid_from) s->min_valid_from = vf;
      if (vt > s->max_valid_to) s->max_valid_to = vt;
    }
    const int64_t ts = col_tt_start_[row];
    if (ts < s->min_tt_start) s->min_tt_start = ts;
    const int64_t te = col_tt_end_[row];  // Writer thread: plain load is fine.
    if (te == Chronon::kForeverRep) {
      ++s->current_rows;
    } else if (te > s->max_finite_tt_end) {
      s->max_finite_tt_end = te;
    }
    const uint64_t stamp = col_close_seq_[row];
    if (stamp > s->last_close_seq) s->last_close_seq = stamp;
    const Slot& slot = versions_[row];
    const size_t nattrs = slot.tuple.values.size();
    for (size_t a = 0; a < PartitionSynopsis::kSketchAttrs && a < nattrs; ++a) {
      s->sketches[a].Add(slot.tuple.values[a]);
    }
  }
}

size_t VersionStore::SealedIndexOf(RowId row) const {
  if (row >= sealed_rows_) return sealed_.size();
  // Partitions are contiguous from row 0 in ascending order: binary-search
  // the first partition whose end exceeds `row`.
  size_t lo = 0;
  size_t hi = sealed_.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (sealed_[mid].end_row <= row) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void VersionStore::OnRowClosed(RowId row, Chronon tt_end, uint64_t stamp) {
  if (row >= sealed_rows_) return;  // Hot rows reseal from scratch.
  // A "close" at ∞ leaves the row current (replayed histories may hold one);
  // nothing about the synopsis changes.
  if (tt_end.days() == Chronon::kForeverRep) return;
  PartitionSynopsis& s = sealed_[SealedIndexOf(row)];
  // Monotone maxes first (relaxed), the currency decrement last (release):
  // a reader that acquires current_rows == 0 from this store is guaranteed
  // to see the max_finite_tt_end / last_close_seq this close contributed,
  // so a finite tt upper bound is never paired with a missing close.
  if (tt_end.days() > mvcc::LoadRelaxed(&s.max_finite_tt_end)) {
    mvcc::StoreRelaxed(&s.max_finite_tt_end, tt_end.days());
  }
  if (stamp > mvcc::LoadRelaxed(&s.last_close_seq)) {
    mvcc::StoreRelaxed(&s.last_close_seq, stamp);
  }
  mvcc::StoreRelease(&s.current_rows, mvcc::LoadRelaxed(&s.current_rows) - 1);
}

void VersionStore::OnRowReopened(RowId row) {
  if (row >= sealed_rows_) return;
  PartitionSynopsis& s = sealed_[SealedIndexOf(row)];
  // The undo restores currency; the (possibly stale) maxes left behind by
  // the aborted close only widen the bounds — conservative, never unsound.
  mvcc::StoreRelease(&s.current_rows, mvcc::LoadRelaxed(&s.current_rows) + 1);
}

void VersionStore::RepatchSealedSynopsis(RowId row) {
  if (row >= sealed_rows_) return;
  const size_t i = SealedIndexOf(row);
  // Corrections rewrite history arbitrarily (delete, undelete, full tuple
  // replacement), so incremental patching cannot stay tight: recompute the
  // partition's synopsis exactly.  The caller holds the correction fence
  // when MVCC is on, so the plain overwrite cannot tear under a reader.
  PartitionSynopsis fresh;
  fresh.begin_row = sealed_[i].begin_row;
  fresh.end_row = sealed_[i].end_row;
  ComputeSynopsis(&fresh);
  sealed_[i] = fresh;
}

Status VersionStore::InstallSealedPartitions(
    std::vector<PartitionSynopsis> parts) {
  if (options_.partition_rows == 0) return Status::OK();
  uint64_t expect_begin = 0;
  for (const PartitionSynopsis& p : parts) {
    if (p.begin_row != expect_begin || p.end_row <= p.begin_row) {
      return Status::Corruption(
          "checkpoint partition synopses are not contiguous from row 0");
    }
    expect_begin = p.end_row;
  }
  if (expect_begin > versions_.size()) {
    return Status::Corruption(
        "checkpoint partition extent exceeds the loaded store");
  }
  for (PartitionSynopsis& p : parts) {
    // Commit sequences do not survive a restart: recovered closes are
    // unconditionally visible (the close-stamp column also reloads as 0).
    p.last_close_seq = 0;
    sealed_.push_back(p);
  }
  sealed_rows_ = expect_begin;
  sealed_count_.store(sealed_.size(), std::memory_order_release);
  return Status::OK();
}

std::vector<RowRange> VersionStore::PruneRanges(const BatchPredicates& preds,
                                                const SnapshotPin& pin) const {
  std::vector<RowRange> out;
  const size_t limit = pin.rows;
  if (limit == 0) return out;
  const bool reader = !pin.IsHead();
  const bool predicated = preds.valid_overlaps.has_value() ||
                          preds.txn_overlaps.has_value() ||
                          preds.txn_contains.has_value() || preds.txn_current ||
                          reader;
  // Reader pins bound themselves by the release-published count (the
  // synopsis bytes of every index below it are final); a head pin is the
  // writer thread's own and may use the directory size directly.
  const uint64_t sealed_count =
      reader ? sealed_count_.load(std::memory_order_acquire) : sealed_.size();
  if (!predicated || sealed_count == 0) {
    // Nothing to prune: every row under the pin is read.
    if (ScanStats* stats = options_.scan_stats) {
      stats->rows_scanned.fetch_add(limit, std::memory_order_relaxed);
    }
    out.push_back(RowRange{0, limit});
    return out;
  }
  uint64_t considered = 0;
  uint64_t pruned_tt = 0;
  uint64_t pruned_vt = 0;
  uint64_t pruned_snap = 0;
  uint64_t scanned_parts = 0;
  uint64_t scanned_rows = 0;
  // Merging adjacent survivors keeps the no-prune result the single range
  // [0, limit) — downstream chunk geometry then matches the unpartitioned
  // store bit for bit.
  auto emit = [&out](size_t b, size_t e) {
    if (!out.empty() && out.back().end == b) {
      out.back().end = e;
    } else {
      out.push_back(RowRange{b, e});
    }
  };
  size_t covered = 0;
  for (uint64_t i = 0; i < sealed_count; ++i) {
    const PartitionSynopsis& s = reader ? sealed_.AtPinned(i) : sealed_[i];
    if (s.begin_row >= limit) {
      if (!reader) break;
      // Sealed entirely at/above the pin's watermark: invisible by
      // construction.
      ++considered;
      ++pruned_snap;
      continue;
    }
    ++considered;
    const size_t b = s.begin_row;
    const size_t e = s.end_row < limit ? static_cast<size_t>(s.end_row) : limit;
    covered = e;
    if (s.live_rows == 0) {  // All tombstones: nothing can match anything.
      ++pruned_tt;
      continue;
    }
    bool pruned = false;
    if (preds.txn_contains || preds.txn_overlaps || preds.txn_current) {
      // The partition's transaction-time upper bound.  Any still-current row
      // (or, under a reader pin, any close the pin must un-see) extends it
      // to ∞.
      // Acquire current_rows *first*: reading 0 synchronizes with the
      // release-decrement of the close that zeroed it, making that close's
      // relaxed max/stamp stores visible below.
      const uint64_t cur = mvcc::LoadAcquire(&s.current_rows);
      const bool tt_unbounded =
          cur > 0 ||
          (reader && mvcc::LoadRelaxed(&s.last_close_seq) > pin.seq);
      const int64_t tt_ub = tt_unbounded
                                ? Chronon::kForeverRep
                                : mvcc::LoadRelaxed(&s.max_finite_tt_end);
      if (preds.txn_contains) {
        const int64_t t = preds.txn_contains->days();
        if (t < s.min_tt_start || t >= tt_ub) pruned = true;
      }
      if (!pruned && preds.txn_overlaps) {
        const int64_t qb = preds.txn_overlaps->begin().days();
        const int64_t qe = preds.txn_overlaps->end().days();
        if (s.min_tt_start >= qe || qb >= tt_ub) pruned = true;
      }
      if (!pruned && preds.txn_current && !tt_unbounded) pruned = true;
      if (pruned) {
        ++pruned_tt;
        continue;
      }
    }
    if (preds.valid_overlaps) {
      const int64_t qb = preds.valid_overlaps->begin().days();
      const int64_t qe = preds.valid_overlaps->end().days();
      if (s.min_valid_from >= qe || qb >= s.max_valid_to) {
        ++pruned_vt;
        continue;
      }
    }
    emit(b, e);
    ++scanned_parts;
    scanned_rows += e - b;
  }
  // The hot tail above the sealed extent has no synopsis: always scan it.
  if (covered < limit) {
    emit(covered, limit);
    scanned_rows += limit - covered;
  }
  if (ScanStats* stats = options_.scan_stats) {
    stats->partitions_considered.fetch_add(considered,
                                           std::memory_order_relaxed);
    stats->partitions_pruned_tt.fetch_add(pruned_tt,
                                          std::memory_order_relaxed);
    stats->partitions_pruned_vt.fetch_add(pruned_vt,
                                          std::memory_order_relaxed);
    stats->partitions_pruned_snapshot.fetch_add(pruned_snap,
                                                std::memory_order_relaxed);
    stats->partitions_scanned.fetch_add(scanned_parts,
                                        std::memory_order_relaxed);
    stats->rows_scanned.fetch_add(scanned_rows, std::memory_order_relaxed);
  }
  return out;
}

}  // namespace temporadb
