#ifndef TEMPORADB_TEMPORAL_MVCC_H_
#define TEMPORADB_TEMPORAL_MVCC_H_

#include <atomic>
#include <cstdint>

#include "common/chronon.h"
#include "common/status.h"

namespace temporadb {

/// A pinned read position against one version store.
///
/// Appends are made visible to snapshots by the *row watermark*: a reader
/// scans only rows `[0, rows)`, where `rows` was the store's committed row
/// count when the snapshot was pinned.  In-place transaction-time closes
/// (`tt_end`: ∞ → ts) are made visible by the *commit sequence*: every
/// close is stamped with the commit sequence number it will be published
/// under, and a snapshot pinned at `seq` treats any close stamped later
/// than `seq` as not-yet-happened (the row still reads as current).
///
/// The sequence number — not the chronon — is the visibility authority for
/// closes: chronons are day-granular, so many commits share one timestamp
/// and `tt_start <= snap_ts` alone cannot tell a pre-pin close from a
/// same-day post-pin close.  `ts` records the last published commit
/// timestamp at pin time; by timestamp monotonicity (TxnManager's clamp)
/// every row under the watermark satisfies `tt_start <= ts`.
///
/// The writer reads at a *head pin* (`VersionStore::HeadPin`): `seq` is
/// `kHeadSeq`, so no close is patched back, and `rows` covers every stored
/// row, the open transaction's own included.
struct SnapshotPin {
  static constexpr uint64_t kHeadSeq = UINT64_MAX;

  uint64_t seq = 0;                    ///< Commits published at/before pin.
  uint64_t rows = 0;                   ///< Committed-row watermark.
  Chronon ts = Chronon::Beginning();   ///< Last published commit timestamp.

  bool IsHead() const { return seq == kHeadSeq; }
};

/// Shared coordination state between the single serialized writer and
/// concurrent snapshot readers.  One instance per `Database`, handed to
/// every version store via `VersionStoreOptions::mvcc`.
///
/// All members are atomics — there is no mutex on the read path and readers
/// never block the writer.  Consistency of a pin (commit_seq, timestamp,
/// and all per-store watermarks from the *same* commit) comes from the
/// `publish_word` seqlock: the writer makes it odd, publishes every
/// watermark plus commit_seq/last_commit_ts, then makes it even; a reader
/// retries its capture if the word was odd or changed across the capture.
///
/// In-place *corrections* (historical/static physical rewrites, tombstone
/// compaction) are the one mutation class snapshots cannot tolerate — they
/// rewrite rows under the watermark.  They are excluded from snapshot reads
/// with a Dekker-style handshake on `correcting` / `active_snapshots`
/// rather than blocked behind a lock: a correction first raises
/// `correcting`, then fails with FailedPrecondition if any snapshot is
/// pinned; a reader first registers in `active_snapshots`, then backs off
/// and retries while `correcting` is raised.  With seq_cst on both sides at
/// least one of the two always observes the other, so a correction and a
/// pin can never both proceed.
class MvccState {
 public:
  /// Seqlock word for pin capture; odd while the writer is publishing.
  std::atomic<uint64_t> publish_word{0};
  /// Number of commits published so far; closes are stamped `commit_seq+1`
  /// at mutation time and become visible when publication catches up.
  std::atomic<uint64_t> commit_seq{0};
  /// Timestamp (chronon rep) of the most recently published commit.
  std::atomic<int64_t> last_commit_ts{Chronon::kBeginningRep};
  /// Number of live `ReadSnapshot` pins.
  std::atomic<int64_t> active_snapshots{0};
  /// Raised (>0) from the first in-place correction of a transaction until
  /// the transaction commits or finishes aborting — the abort-time undo of
  /// a correction is itself an in-place rewrite and must stay covered.
  std::atomic<int64_t> correcting{0};

  /// Writer side of the correction handshake.  On success `correcting`
  /// stays raised; the owning Database lowers it at transaction end (after
  /// undo actions have run) via `EndCorrections()`.
  Status BeginCorrection() {
    correcting.fetch_add(1, std::memory_order_seq_cst);
    if (active_snapshots.load(std::memory_order_seq_cst) != 0) {
      correcting.fetch_sub(1, std::memory_order_seq_cst);
      return Status::FailedPrecondition(
          "in-place history mutation (correction/compaction) while read "
          "snapshots are pinned; release all snapshots first");
    }
    return Status::OK();
  }

  void EndCorrections() { correcting.store(0, std::memory_order_seq_cst); }
};

namespace mvcc {

/// Element-level atomic accessors for the shared chronon columns.  The
/// writer closes a row by storing its `tt_end` entry (release) after the
/// close-sequence stamp (relaxed); a snapshot reader loads `tt_end`
/// (acquire) and then the stamp (relaxed) — seeing a finite tt_end
/// therefore guarantees seeing its stamp, and any close the pin must hide
/// is patched back to ∞.  Entries under a pinned watermark are otherwise
/// immutable while snapshots are open (corrections are excluded above), so
/// every other column read stays a plain load.
inline int64_t LoadAcquire(const int64_t* p) {
  // atomic_ref<const T> arrives only post-C++20; the const_cast is sound
  // because a load never writes through the reference.
  return std::atomic_ref<int64_t>(*const_cast<int64_t*>(p))
      .load(std::memory_order_acquire);
}
inline uint64_t LoadAcquire(const uint64_t* p) {
  return std::atomic_ref<uint64_t>(*const_cast<uint64_t*>(p))
      .load(std::memory_order_acquire);
}
inline int64_t LoadRelaxed(const int64_t* p) {
  return std::atomic_ref<int64_t>(*const_cast<int64_t*>(p))
      .load(std::memory_order_relaxed);
}
inline uint64_t LoadRelaxed(const uint64_t* p) {
  return std::atomic_ref<uint64_t>(*const_cast<uint64_t*>(p))
      .load(std::memory_order_relaxed);
}
inline void StoreRelease(int64_t* p, int64_t v) {
  std::atomic_ref<int64_t>(*p).store(v, std::memory_order_release);
}
inline void StoreRelease(uint64_t* p, uint64_t v) {
  std::atomic_ref<uint64_t>(*p).store(v, std::memory_order_release);
}
inline void StoreRelaxed(int64_t* p, int64_t v) {
  std::atomic_ref<int64_t>(*p).store(v, std::memory_order_relaxed);
}
inline void StoreRelaxed(uint64_t* p, uint64_t v) {
  std::atomic_ref<uint64_t>(*p).store(v, std::memory_order_relaxed);
}

}  // namespace mvcc
}  // namespace temporadb

#endif  // TEMPORADB_TEMPORAL_MVCC_H_
