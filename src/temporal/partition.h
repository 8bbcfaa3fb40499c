#ifndef TEMPORADB_TEMPORAL_PARTITION_H_
#define TEMPORADB_TEMPORAL_PARTITION_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/chronon.h"
#include "common/value.h"

namespace temporadb {

/// A half-open row range `[begin, end)` of a scan domain that survived
/// partition pruning.  Ranges are produced in ascending order with adjacent
/// survivors merged, so a store where nothing prunes yields the single range
/// `[0, limit)` — and the batch chunking downstream sees geometry
/// bit-identical to the unpartitioned store.
struct RowRange {
  size_t begin = 0;
  size_t end = 0;

  size_t size() const { return end - begin; }
};

/// A fixed-size bloom + min/max sketch over one key attribute of a sealed
/// partition.  512 bits, four probes per value (double hashing over
/// `Value::Hash()`), plus an integer min/max when every sketched value was
/// an int.  No false negatives by construction: `MayContain` returning
/// false proves the partition holds no row whose attribute equals the key.
struct KeySketch {
  static constexpr size_t kWords = 8;  // 512 bits.
  static constexpr size_t kProbes = 4;

  uint64_t bits[kWords] = {0, 0, 0, 0, 0, 0, 0, 0};
  int64_t min_int = 0;
  int64_t max_int = 0;
  /// 1 while only int values were added (min_int/max_int meaningful).
  uint8_t ints_only = 1;
  /// 1 once any value was added.
  uint8_t populated = 0;

  void Add(const Value& v);
  bool MayContain(const Value& v) const;
};

/// The temporal synopsis of one sealed (cold) partition: enough metadata to
/// decide, without touching a single tuple, whether any live row in
/// `[begin_row, end_row)` can intersect a scan's pushed-down time window.
///
/// All bounds summarize *live* rows only (tombstones match nothing).  The
/// valid-time and tt-start bounds are immutable after seal — sealed rows
/// never change those dimensions outside the correction fence.  Three
/// fields stay mutable because `CloseTxn` (and its abort-time undo) touches
/// sealed rows in place while snapshot readers are pinned; they are
/// accessed exclusively through the `mvcc::` element atomics:
///
///  - `current_rows`: number of live rows with `tt_end = ∞`.  A close
///    decrements it with a release store *after* updating the two fields
///    below, so a reader that acquire-loads 0 also observes them.
///  - `max_finite_tt_end`: max over the finite `tt_end` reps in the
///    partition — with `current_rows == 0`, the exclusive upper bound of
///    every transaction period here.
///  - `last_close_seq`: max commit-sequence stamp over the partition's
///    closes.  A snapshot pinned at `seq < last_close_seq` may be entitled
///    to see some close as not-yet-happened (tt_end back to ∞), so its
///    transaction-time upper bound falls back to ∞.
///
/// Corrections (`PhysicalDelete`/`PhysicalUpdate`/undo, compaction) rewrite
/// sealed rows arbitrarily; they run under the MVCC correction fence (no
/// reader pinned) and repatch the synopsis by exact recomputation —
/// `VersionStore::RepatchSealedSynopsis` is the sanctioned entry point
/// (enforced by tools/tdb_lint.py rule 6).
struct PartitionSynopsis {
  static constexpr size_t kSketchAttrs = 2;

  uint64_t begin_row = 0;
  uint64_t end_row = 0;

  // Valid-time bounds over live rows with non-empty valid periods.  An
  // all-dead or all-empty partition keeps the never-matching defaults
  // (min > any query end, max < any query begin).
  int64_t min_valid_from = Chronon::kForeverRep;
  int64_t max_valid_to = Chronon::kBeginningRep;

  // Transaction-time lower bound over live rows (immutable: tt_start is
  // stamped at append and never rewritten outside the fence).
  int64_t min_tt_start = Chronon::kForeverRep;

  // Mutable trio (see the class comment).
  int64_t max_finite_tt_end = Chronon::kBeginningRep;
  uint64_t current_rows = 0;
  uint64_t last_close_seq = 0;

  uint64_t live_rows = 0;

  KeySketch sketches[kSketchAttrs];

  uint64_t size() const { return end_row - begin_row; }

  /// Checkpoint serialization: fixed-width little-endian fields, no
  /// delimiters (the count prefix in the partitions file bounds the list).
  void EncodeTo(std::string* dst) const;
  static bool DecodeFrom(std::string_view* in, PartitionSynopsis* out);
};

/// Pruning observability counters, shared by every scan of the stores that
/// point at one instance (`VersionStoreOptions::scan_stats`; non-owning,
/// null = off).  Atomic so concurrent snapshot readers and the writer can
/// all report; `Reset()` between queries gives per-query numbers.
///
/// Accounting identity (per scan that walks the synopses):
///   considered == pruned_tt + pruned_vt + pruned_snapshot + scanned.
/// A head-pin scan with no window, and any scan of a store with no sealed
/// partition, skips the synopsis walk and leaves the partition counters
/// untouched.  `rows_scanned` counts every row a scan reads: the pin's rows
/// when it skips the walk, else the rows of surviving sealed partitions
/// plus the hot tail.  `batch_morsels_formed` counts the batch-aligned
/// chunks a batch scan actually formed — a pruned partition contributes
/// zero (pruning happens before the chunk grid exists).
/// `dml_rows_examined` counts the rows DML candidate selection read
/// (`StoredRelation::DmlCandidates`): a key's whole posting list, or the
/// rows its scan yielded.
struct ScanStats {
  std::atomic<uint64_t> partitions_considered{0};
  std::atomic<uint64_t> partitions_pruned_tt{0};
  std::atomic<uint64_t> partitions_pruned_vt{0};
  std::atomic<uint64_t> partitions_pruned_snapshot{0};
  std::atomic<uint64_t> partitions_scanned{0};
  std::atomic<uint64_t> rows_scanned{0};
  std::atomic<uint64_t> batch_morsels_formed{0};
  std::atomic<uint64_t> dml_rows_examined{0};

  void Reset() {
    partitions_considered.store(0, std::memory_order_relaxed);
    partitions_pruned_tt.store(0, std::memory_order_relaxed);
    partitions_pruned_vt.store(0, std::memory_order_relaxed);
    partitions_pruned_snapshot.store(0, std::memory_order_relaxed);
    partitions_scanned.store(0, std::memory_order_relaxed);
    rows_scanned.store(0, std::memory_order_relaxed);
    batch_morsels_formed.store(0, std::memory_order_relaxed);
    dml_rows_examined.store(0, std::memory_order_relaxed);
  }

  uint64_t considered() const {
    return partitions_considered.load(std::memory_order_relaxed);
  }
  uint64_t pruned_tt() const {
    return partitions_pruned_tt.load(std::memory_order_relaxed);
  }
  uint64_t pruned_vt() const {
    return partitions_pruned_vt.load(std::memory_order_relaxed);
  }
  uint64_t pruned_snapshot() const {
    return partitions_pruned_snapshot.load(std::memory_order_relaxed);
  }
  uint64_t scanned() const {
    return partitions_scanned.load(std::memory_order_relaxed);
  }
  uint64_t rows() const {
    return rows_scanned.load(std::memory_order_relaxed);
  }
  uint64_t morsels() const {
    return batch_morsels_formed.load(std::memory_order_relaxed);
  }
  uint64_t dml_rows() const {
    return dml_rows_examined.load(std::memory_order_relaxed);
  }
};

}  // namespace temporadb

#endif  // TEMPORADB_TEMPORAL_PARTITION_H_
