#ifndef TEMPORADB_TEMPORAL_VERSION_STORE_H_
#define TEMPORADB_TEMPORAL_VERSION_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "index/btree.h"
#include "temporal/bitemporal_tuple.h"
#include "temporal/mvcc.h"
#include "temporal/partition.h"
#include "temporal/stable_storage.h"
#include "txn/transaction.h"

namespace temporadb {

using RowId = uint64_t;

class VersionStore;

/// Structured predicates of a batch scan, evaluated with the branch-free
/// kernels (temporal/kernels.h) over the store's contiguous chronon columns
/// instead of per-tuple `Period` calls.  A scan carries *all* its time
/// predicates here: it never reads `BitemporalTuple::txn`, which the writer
/// closes in place.
struct BatchPredicates {
  /// `t.valid.Overlaps(w)` (timeslice / `when` windows).
  std::optional<Period> valid_overlaps;
  /// `t.txn.Overlaps(w)` (`as of ... through` windows).
  std::optional<Period> txn_overlaps;
  /// `t.txn.Contains(c)` (rollback to an instant).
  std::optional<Chronon> txn_contains;
  /// `t.IsCurrentState()`.
  bool txn_current = false;
};

/// Scan results in columnar form: a slice of a scan (`VersionBatchScan`),
/// or every version a statement considers (`StoredRelation::Candidates`).
///
/// `tuples` are borrowed pointers into the store, valid until the store is
/// next mutated; the chronon columns are *copies* of the survivors'
/// temporal dimensions, contiguous so downstream operators can keep running
/// branch-free kernels without touching the tuples at all.  `tt_end` holds
/// pin-effective ends: a tuple's own `txn` must not be read under a reader
/// pin (the writer closes it in place).  A scan's entries are in ascending
/// row order.
struct VersionBatch {
  std::vector<RowId> rows;
  std::vector<const BitemporalTuple*> tuples;
  std::vector<int64_t> valid_from;
  std::vector<int64_t> valid_to;
  std::vector<int64_t> tt_start;
  std::vector<int64_t> tt_end;

  size_t size() const { return rows.size(); }
  bool empty() const { return rows.empty(); }

  /// Entry `i`'s values, valid period and transaction period.
  const std::vector<Value>& values(size_t i) const {
    return tuples[i]->values;
  }
  Period valid(size_t i) const {
    return Period(Chronon(valid_from[i]), Chronon(valid_to[i]));
  }
  Period txn(size_t i) const {
    return Period(Chronon(tt_start[i]), Chronon(tt_end[i]));
  }

  /// Appends an entry.
  void Add(RowId row, const BitemporalTuple* tuple, int64_t vf, int64_t vt,
           int64_t ts, int64_t te) {
    rows.push_back(row);
    tuples.push_back(tuple);
    valid_from.push_back(vf);
    valid_to.push_back(vt);
    tt_start.push_back(ts);
    tt_end.push_back(te);
  }
  void Reserve(size_t n) {
    rows.reserve(n);
    tuples.reserve(n);
    valid_from.reserve(n);
    valid_to.reserve(n);
    tt_start.reserve(n);
    tt_end.reserve(n);
  }
  void Clear() {
    rows.clear();
    tuples.clear();
    valid_from.clear();
    valid_to.clear();
    tt_start.clear();
    tt_end.clear();
  }
};

/// A pull-based, pin-bounded sweep over the live versions of a
/// `VersionStore`: the rows `[0, pin.rows)` that survive partition pruning
/// are probed a batch at a time with selection-vector kernels over the
/// store's chronon columns, and survivors are materialized into
/// `VersionBatch`es of at most `batch_rows` rows, in ascending row order.
/// Transaction ends are read through the pin's close-sequence patch, so a
/// close stamped after the pin reads back as ∞; the batch's `tt_end` column
/// carries those *effective* values.
///
/// ### Lifetime and concurrency contract
///
/// **Head-pin scans** (`VersionStore::HeadPin()`, the writer's reads) see
/// every stored row and every close, the open transaction's own included.
/// They capture the store's mutation epoch at open: advancing one after the
/// store was mutated is a lifetime bug (the watermark and the closes it
/// saw go stale), so `Next` checks the epoch with an always-on
/// `TDB_INVARIANT_CHECK` and aborts rather than yield stale rows.
///
/// **Reader-pin scans** (a pin from `Database::BeginReadSnapshot`) run on
/// reader threads concurrently with the writer, bound by the pin's
/// committed-row watermark and commit sequence instead of the epoch (see
/// mvcc.h).  Yielded tuples have stable `values` and `valid`; do not read
/// their `txn` member (the writer may be closing it in place).
///
/// Either way the scan runs on the calling thread, probing one batch-sized
/// chunk of the surviving ranges per pull.
class VersionBatchScan {
 public:
  VersionBatchScan(const VersionStore* store, SnapshotPin pin,
                   BatchPredicates preds);

  /// Fills `out` with the next non-empty batch of survivors; false at end.
  /// `out` is overwritten (its buffers are reused across pulls).
  bool Next(VersionBatch* out);

  /// Appends every survivor not yet pulled to `out`, in row order.
  void ReadAll(VersionBatch* out);

 private:
  /// Probes the contiguous rows `[begin, end)`, appending the survivors to
  /// `out`.  The kernel chain runs range-relative over a `tt_end` input: at
  /// a head pin the store's own column (nothing needs patching, and no
  /// writer runs concurrently), at a reader pin a scratch copy read through
  /// the close-sequence patch, so no plain load ever races the writer's
  /// in-place closes.
  void ProbeRange(size_t begin, size_t end, VersionBatch* out) const;
  /// Aborts when a head-pin scan outlives a store mutation.
  void CheckEpoch() const;

  const VersionStore* store_;
  BatchPredicates preds_;
  SnapshotPin pin_;
  uint64_t epoch_;  // Store mutation epoch at open (checked for head pins).
  // The batch_rows-aligned chunk grid over the ranges that survive
  // partition pruning.  One chunk = one batch, so pruned partitions never
  // form a batch.
  std::vector<RowRange> chunks_;
  size_t chunk_idx_ = 0;  // Next chunk to probe.
};

/// A low-level mutation on a version store, as observed by the redo log.
struct VersionOp {
  enum class Kind : uint32_t {
    kAppend = 1,         ///< A new version entered the store.
    kCloseTxn = 2,       ///< A current version's transaction period closed.
    kPhysicalDelete = 3, ///< A version was physically removed (correction).
    kPhysicalUpdate = 4, ///< A version was overwritten in place (correction).
  };
  Kind kind;
  RowId row = 0;
  BitemporalTuple tuple;       // kAppend / kPhysicalUpdate payload.
  Chronon tt_end;              // kCloseTxn payload.
};

/// Store configuration: scan batching, MVCC coordination, and epoch
/// partitioning.
struct VersionStoreOptions {
  /// Rows per scan batch.
  size_t batch_rows = 1024;
  /// Shared MVCC coordination state (one per Database); non-owning, must
  /// outlive the store.  Null disables snapshot support: the store still
  /// works single-threaded, closes are stamped sequence 0, and
  /// `BeginCorrection` gating is skipped.
  MvccState* mvcc = nullptr;
  /// Transaction-time epoch partitioning: versions append into an open hot
  /// partition, and once `partition_rows` of them are stable (committed,
  /// when MVCC is on — a sealed partition must never lose rows to an
  /// abort-time unappend) the prefix is sealed into an immutable cold
  /// partition carrying a `PartitionSynopsis`.  0 disables partitioning —
  /// one unbounded hot partition, the differential-test baseline.  Every
  /// predicated scan consults the sealed partitions' synopses and skips
  /// those whose time bounds cannot intersect the pushed-down window.
  size_t partition_rows = 4096;
  /// Pruning observability sink (partition.h); non-owning, may be shared
  /// across stores, null = off.  Counters are atomic — snapshot readers on
  /// other threads report through the same instance.
  ScanStats* scan_stats = nullptr;
};

/// The physical container of tuple versions for one stored relation.
///
/// Versions are addressed by dense `RowId`s in append order; physically
/// deleted versions leave a tombstone so ids stay stable (compaction is a
/// checkpoint-time concern).  All four relation kinds sit on this store and
/// differ only in which mutations they are *allowed* to perform — the store
/// itself is policy-free.
///
/// Every mutator takes the active `Transaction` and registers a compensating
/// undo action, so statement failures mid-transaction roll back cleanly; it
/// also notifies the `observer` (the facade's redo buffer) for write-ahead
/// logging.
///
/// Threading contract: externally synchronized, single writer.  Mutators
/// must not race with each other; readers come in two safe flavors: the
/// writer's own head-pin scans (behind the mutation-epoch runtime check)
/// and snapshot-isolated reader threads bound to a `SnapshotPin`
/// (watermark + commit-sequence visibility, stable slab/column storage —
/// see mvcc.h and DESIGN.md §13).  In-place
/// corrections and compaction are fenced off from snapshot readers by
/// `MvccState::BeginCorrection`.  See DESIGN.md §11.1.
class VersionStore {
 public:
  explicit VersionStore(VersionStoreOptions options = {});

  VersionStore(const VersionStore&) = delete;
  VersionStore& operator=(const VersionStore&) = delete;

  /// Redo observer; invoked after each successful mutation.
  void set_observer(std::function<void(const VersionOp&)> observer) {
    observer_ = std::move(observer);
  }

  /// Appends a version; returns its row id.
  Result<RowId> Append(Transaction* txn, BitemporalTuple tuple);

  /// Closes the transaction period of a current version at `tt_end`.
  Status CloseTxn(Transaction* txn, RowId row, Chronon tt_end);

  /// Physically removes a version (legal only for kinds without transaction
  /// time; the relation layer enforces that).
  Status PhysicalDelete(Transaction* txn, RowId row);

  /// Overwrites a version in place (historical corrections).
  Status PhysicalUpdate(Transaction* txn, RowId row, BitemporalTuple tuple);

  /// Reads a live version; NotFound for tombstones / out of range.
  Result<const BitemporalTuple*> Get(RowId row) const;

  /// Iterates live versions in row order.
  void ForEach(const std::function<void(RowId, const BitemporalTuple&)>& fn) const;

  /// The one scan: the live versions visible at `pin` that satisfy
  /// `preds`, in row order, sliced into `VersionBatch`es (see
  /// VersionBatchScan for the head-pin versus reader-pin contract).
  VersionBatchScan BatchScan(SnapshotPin pin, BatchPredicates preds) const;

  /// The writer's pin: every stored row (`rows = version_count()`) and
  /// every close, including the open transaction's own appends and closes.
  SnapshotPin HeadPin() const {
    return SnapshotPin{SnapshotPin::kHeadSeq, versions_.size(),
                       Chronon::Forever()};
  }

  // --- Snapshot publication and pinned access ------------------------------

  /// Publishes every currently-stored row as committed: snapshot pins taken
  /// after this call include them.  Called by the owning Database at
  /// group-commit completion (and at the end of recovery), between the
  /// MvccState publish_word flips; release-ordered so a pin that observes
  /// the new watermark also observes every published row's bytes.
  ///
  /// Publication is also the MVCC-mode seal point: rows that just became
  /// committed can never be unappended, so full partitions of them seal
  /// here (never at append, where an abort could claw rows back out of a
  /// sealed partition under concurrent readers).
  void PublishCommittedRows() {
    committed_rows_.store(versions_.size(), std::memory_order_release);
    MaybeSealHot();
  }

  /// The committed-row watermark as last published.
  uint64_t committed_rows() const {
    return committed_rows_.load(std::memory_order_acquire);
  }

  /// Snapshot-reader tuple access: no liveness or bounds checks (the
  /// caller's pin guarantees `row < pin.rows <= size`), routed through the
  /// slab directory's acquire load so it cannot race slot-storage growth.
  const BitemporalTuple* TuplePinned(RowId row) const {
    return &versions_.AtPinned(row).tuple;
  }

  /// The pin-effective transaction end of `row`: the raw column entry, with
  /// closes stamped after `snap_seq` patched back to ∞.  Safe against a
  /// concurrent in-place close (atomic element loads; see mvcc.h).
  int64_t EffectiveTtEnd(RowId row, uint64_t snap_seq) const {
    const int64_t raw = mvcc::LoadAcquire(col_tt_end_.data() + row);
    if (raw == Chronon::kForeverRep) return raw;
    if (mvcc::LoadRelaxed(col_close_seq_.data() + row) > snap_seq) {
      return Chronon::kForeverRep;
    }
    return raw;
  }

  /// Bulk form for a reader pin: fills `out[0..end-begin)` with the
  /// pin-effective transaction ends of rows `[begin, end)`.
  void FillEffectiveTtEnd(size_t begin, size_t end, uint64_t snap_seq,
                          int64_t* out) const;

  // --- Contiguous chronon columns ------------------------------------------
  //
  // Columnar mirror of every slot's temporal dimensions, maintained by all
  // mutators (including undo, replay, load, and compaction): entry `row` of
  // each array is that slot's chronon rep, and `chronon_live()[row]` is 1
  // for live slots, 0 for tombstones (tombstone entries hold stale chronon
  // values and must be masked first).  This is what the batch scan's
  // branch-free kernels sweep — four flat int64 arrays instead of
  // pointer-chasing `BitemporalTuple`s.
  //
  // The pointers are *published* (StableColumn): growth retains the old
  // buffer, so a snapshot reader's view stays valid for every row under its
  // watermark.  Entries under a published watermark are immutable with one
  // exception — `chronon_tt_end()`, which the writer closes in place;
  // snapshot readers therefore go through `EffectiveTtEnd`, never through
  // plain loads of that column.  `chronon_close_seq()[row]` is the commit
  // sequence the row's close publishes under (0 = created closed / closed
  // before snapshots existed).

  const int64_t* chronon_valid_from() const { return col_valid_from_.data(); }
  const int64_t* chronon_valid_to() const { return col_valid_to_.data(); }
  const int64_t* chronon_tt_start() const { return col_tt_start_.data(); }
  const int64_t* chronon_tt_end() const { return col_tt_end_.data(); }
  const uint8_t* chronon_live() const { return col_live_.data(); }
  const uint64_t* chronon_close_seq() const { return col_close_seq_.data(); }

  /// Creates a secondary B+-tree index on explicit attribute `attr_index`,
  /// backfilling existing live versions.  Idempotent (AlreadyExists on a
  /// second call).  Maintained across all mutations, undo, and replay.
  Status CreateAttributeIndex(size_t attr_index);

  /// The B+-tree of attribute `attr_index` (every live version, any
  /// transaction state), or null when the attribute is not indexed.
  const BTreeIndex* AttributeIndex(size_t attr_index) const {
    auto it = attr_indexes_.find(attr_index);
    return it == attr_indexes_.end() ? nullptr : it->second.get();
  }

  /// Replay entry points used by recovery and checkpoint load: apply an
  /// operation *without* a transaction (no undo, no observer).
  Status ApplyReplay(const VersionOp& op);

  /// Checkpoint write path: iterates every slot including tombstones, in
  /// row order (tombstones pass a null tuple).
  void ForEachSlot(const std::function<void(RowId, const BitemporalTuple*)>&
                       fn) const;

  /// Checkpoint load path: appends a slot verbatim — a live version
  /// (indexed) or a tombstone placeholder (keeps later row ids stable).
  RowId LoadSlot(std::optional<BitemporalTuple> tuple);

  /// Physically removes tombstone slots, renumbering row ids and rebuilding
  /// every index.  Returns the number of slots reclaimed.
  ///
  /// DANGER: row ids are NOT stable across compaction.  The only safe call
  /// site is a checkpoint boundary with no active transaction, where the
  /// WAL (whose records reference row ids) is about to be truncated.
  size_t CompactTombstones();

  size_t live_count() const { return live_count_; }
  size_t version_count() const { return versions_.size(); }

  /// Monotone counter bumped by every slot mutation (append, close,
  /// correction, undo, load, compaction).  Head-pin scans capture it;
  /// advancing such a scan under a different epoch is a lifetime bug and
  /// aborts via TDB_INVARIANT_CHECK (see VersionBatchScan).  Reader-pin
  /// scans are exempt — the pin, not the epoch, bounds what they may read.
  uint64_t mutation_epoch() const { return mutation_epoch_; }

  /// Re-sizes the scan batches of an existing store (the batch-size sweeps
  /// retarget one populated store).  Must not be called while any scan on
  /// this store is open.
  void ConfigureBatchRows(size_t rows) {
    if (rows > 0) options_.batch_rows = rows;
  }

  /// Re-points the pruning-counter sink (see VersionStoreOptions).
  /// Writer-thread only; must not be called while snapshot readers are
  /// scanning.
  void set_scan_stats(ScanStats* stats) { options_.scan_stats = stats; }

  // --- Epoch partitions -----------------------------------------------------
  //
  // Sealed (cold) partitions are contiguous from row 0; `sealed_rows()` is
  // the first hot row.  The accessors below are writer-thread views for
  // tests, tooling, and checkpoint serialization — reader pins go through
  // `PruneRanges`, which bounds them by the published partition count.

  size_t sealed_partition_count() const { return sealed_.size(); }
  const PartitionSynopsis& sealed_partition(size_t i) const {
    return sealed_[i];
  }
  uint64_t sealed_rows() const { return sealed_rows_; }

  /// Key-sketch probe: false proves no live row of sealed partition `i` has
  /// attribute `attr` equal to `key` (no false negatives; bloom-limited
  /// false positives).  Only the first `PartitionSynopsis::kSketchAttrs`
  /// attributes are sketched.
  bool SealedPartitionMayContain(size_t i, size_t attr,
                                 const Value& key) const {
    if (attr >= PartitionSynopsis::kSketchAttrs) return true;
    return sealed_[i].sketches[attr].MayContain(key);
  }

  /// The surviving candidate row ranges of a sweep over `[0, pin.rows)`
  /// under `preds`: ascending, disjoint, adjacent survivors merged (so the
  /// no-prune result is the single range `[0, pin.rows)` and downstream
  /// chunk geometry matches the unpartitioned store exactly).  A head pin
  /// reads the writer's own sealed directory.  A reader pin bounds itself
  /// by the published partition count, skips partitions sealed entirely at
  /// or above its watermark, and lets transaction-time upper bounds fall
  /// back to ∞ whenever a close in the partition was stamped after the
  /// pin's sequence (DESIGN.md §14 soundness argument).  Thread-safe for
  /// concurrent reader pins; reports to `scan_stats`.
  std::vector<RowRange> PruneRanges(const BatchPredicates& preds,
                                    const SnapshotPin& pin) const;

  /// Checkpoint-load bracket: between BeginLoad and EndLoad, slot loading
  /// does not auto-seal (recovery installs the checkpoint's sealed
  /// partitions instead of rescanning history to rebuild them).
  void BeginLoad() { loading_ = true; }

  /// Installs checkpoint-serialized sealed partitions over the slots loaded
  /// so far.  Validates contiguity from row 0 and that the sealed extent
  /// fits the store; Corruption otherwise.  `last_close_seq` is reset to 0:
  /// commit sequences do not survive a restart (recovered closes are
  /// unconditionally visible to every post-recovery pin, matching the
  /// close-stamp column which also reloads as 0).  No-op (still OK) when
  /// partitioning is disabled.
  Status InstallSealedPartitions(std::vector<PartitionSynopsis> parts);

  /// Ends the checkpoint-load bracket and seals whatever full epochs lie
  /// past the installed sealed extent (under MVCC, that waits for the next
  /// publication: the end of recovery).
  void EndLoad() {
    loading_ = false;
    MaybeSealHot();
  }

  /// Approximate bytes held, for the storage-growth bench.
  size_t ApproximateBytes() const;

  const VersionStoreOptions& options() const { return options_; }

 private:
  struct Slot {
    BitemporalTuple tuple;
    bool tombstone = false;
  };

  void AttrIndexInsert(RowId row, const BitemporalTuple& t);
  void AttrIndexErase(RowId row, const BitemporalTuple& t);

  // Raw mutations shared by the transactional path and replay.
  RowId RawAppend(BitemporalTuple tuple);
  Status RawCloseTxn(RowId row, Chronon tt_end);
  Status RawPhysicalDelete(RowId row);
  Status RawPhysicalUpdate(RowId row, BitemporalTuple tuple);
  // Inverses, used by undo.
  void RawUnappend(RowId row);
  void RawReopenTxn(RowId row, Chronon old_end);
  void RawUndelete(RowId row, BitemporalTuple tuple);

  /// Keeps the chronon columns for slot `row` in sync with its tuple.
  void SyncChrononColumns(RowId row);

  // --- Partition lifecycle (writer thread; see DESIGN.md §14) ---------------

  /// Seals full partitions off the stable prefix: everything up to the
  /// committed watermark when MVCC is on (sealed rows must never unappend),
  /// the whole store when it is off.  No-op while loading or when
  /// partitioning is disabled.
  void MaybeSealHot();
  /// Exact synopsis over `[s->begin_row, s->end_row)` from the chronon
  /// columns and live tuples (key sketches from the first attributes).
  void ComputeSynopsis(PartitionSynopsis* s) const;
  /// Writer index of the sealed partition containing `row`; size() if hot.
  size_t SealedIndexOf(RowId row) const;
  /// Incremental synopsis maintenance for an in-place transaction-time
  /// close of a sealed row (and its abort-time undo): runs concurrently
  /// with pinned readers, so the mutable trio is updated with the mvcc
  /// element atomics in reader-compatible order.
  void OnRowClosed(RowId row, Chronon tt_end, uint64_t stamp);
  void OnRowReopened(RowId row);
  /// The sanctioned correction-patch entry point (tdb_lint rule 6): a
  /// physical delete/update/undelete rewrote sealed row `row`, so its
  /// partition's synopsis is recomputed exactly.  Caller holds the
  /// correction fence when MVCC is on — no reader is pinned.
  void RepatchSealedSynopsis(RowId row);

  VersionStoreOptions options_;
  // Slot storage with pointer stability: snapshot readers keep dereferencing
  // rows under their watermark while the writer appends (stable_storage.h).
  SlabVector<Slot> versions_;
  // Columnar chronon mirror (see the chronon_* accessors), published
  // buffers with retained history for the same reason.
  StableColumn<int64_t> col_valid_from_;
  StableColumn<int64_t> col_valid_to_;
  StableColumn<int64_t> col_tt_start_;
  StableColumn<int64_t> col_tt_end_;
  StableColumn<uint8_t> col_live_;
  // Commit sequence each row's transaction-time close publishes under
  // (mvcc.h close-visibility protocol); 0 for rows never closed
  // transactionally.
  StableColumn<uint64_t> col_close_seq_;
  // Committed-row watermark: release-published at group-commit completion,
  // acquire-read by snapshot pins.  Rows at or above it are uncommitted
  // (or unborn) as far as any snapshot is concerned.
  std::atomic<uint64_t> committed_rows_{0};
  // Sealed-partition directory.  Slab storage so a concurrent snapshot
  // reader never races directory growth; `sealed_count_` is the reader-side
  // bound, release-published only after a new synopsis is fully written
  // (same publish idiom as the committed-row watermark).  `sealed_rows_`
  // (writer-only) is the first hot row.  In MVCC mode partitions seal at
  // publication and are never popped; without MVCC (no concurrent readers)
  // sealing is eager at append and an abort-time unappend may unseal.
  SlabVector<PartitionSynopsis> sealed_;
  std::atomic<uint64_t> sealed_count_{0};
  uint64_t sealed_rows_ = 0;
  bool loading_ = false;  // BeginLoad/EndLoad bracket: suppress sealing.
  size_t live_count_ = 0;
  uint64_t mutation_epoch_ = 0;
  std::map<size_t, std::unique_ptr<BTreeIndex>> attr_indexes_;
  std::function<void(const VersionOp&)> observer_;
};

}  // namespace temporadb

#endif  // TEMPORADB_TEMPORAL_VERSION_STORE_H_
