#ifndef TEMPORADB_TEMPORAL_STORED_RELATION_H_
#define TEMPORADB_TEMPORAL_STORED_RELATION_H_

#include <memory>
#include <optional>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "temporal/version_store.h"
#include "txn/transaction.h"

namespace temporadb {

/// A range of keys, between `lo` and `hi` in `Value`'s order; an absent end
/// is open (see `BTreeIndex::ForEachInRange`).
struct KeyRange {
  std::optional<KeyBound> lo;
  std::optional<KeyBound> hi;

  /// The one key `v`: [v, v].
  static KeyRange Point(const Value& v) {
    return KeyRange{KeyBound{v, true}, KeyBound{v, true}};
  }
};

/// The keys on an indexed attribute that a statement can select,
/// `values[attr]` in one of `ranges` (disjoint; none selects nothing): the range a `where` clause's literal conjuncts imply
/// (`tquel::ProbeKey`), or a hash step's outer key values.  It only chooses
/// the candidate rows: the predicate still runs on each of them.
struct KeyRanges {
  size_t attr;
  std::vector<KeyRange> ranges;
};

/// The time windows a statement pushes down into its candidate step
/// (`StoredRelation::Candidates`, `BatchScan`).  It yields exactly the
/// visible versions whose transaction period overlaps `asof` and whose
/// valid period overlaps `valid_during` (for the dimensions the kind
/// maintains); retrieve still re-checks its exact predicates per tuple, and
/// DML passes its valid window here.
struct ScanSpec {
  /// Transaction-time window of an `as of [... through ...]` clause.
  std::optional<Period> asof;
  /// Valid-time window implied by a `when` / `valid` predicate.
  std::optional<Period> valid_during;
  /// When set, the scan runs against this reader pin (see
  /// `Database::BeginReadSnapshot`): it is safe on a non-writer thread
  /// during concurrent commits, sees only rows/closes published at or
  /// before the pin, and is exempt from the mutation-epoch staleness
  /// check.  Empty: the writer's head pin.
  std::optional<SnapshotPin> snapshot;
};

/// Base class of the four stored-relation kinds.
///
/// The subclasses map one-to-one onto the paper's taxonomy (Figure 10):
///
/// | class                | time maintained        | update discipline     |
/// |----------------------|------------------------|-----------------------|
/// | `StaticRelation`     | none                   | destructive, in place |
/// | `RollbackRelation`   | transaction            | append-only states    |
/// | `HistoricalRelation` | valid                  | arbitrary correction  |
/// | `TemporalRelation`   | transaction and valid  | append-only histories |
///
/// A `delete`, `replace` or `correct` runs in three phases, and only the
/// last one is the kind's:
///
///  1. *select* (the TQuel evaluator): `DmlWindow` resolves the statement's
///     valid window, `DmlCandidates` reads the versions it may touch in the
///     order the kind rewrites them, and `when` and `where` pick the
///     victims;
///  2. *compute*: a `replace` evaluates every victim's new values;
///  3. *write*: `Delete`, `Replace` or `HistoricalRelation::CorrectErase`
///     rewrites the victims as the kind's update discipline says.
///
/// The write step's only failure is the correction fence of an in-place
/// kind (`MvccState::BeginCorrection`), which refuses the statement's first
/// in-place call, before anything has changed.  So a failing statement
/// changes nothing, inside an explicit transaction too.
///
/// A DML valid period is where the taxonomy becomes executable: a
/// retroactive change is exactly a statement whose valid period differs
/// from "now on", and only historical/temporal relations accept one
/// (§4.3/§4.4); the others reject it with `NotSupported`.
class StoredRelation {
 public:
  explicit StoredRelation(RelationInfo info, VersionStoreOptions options = {})
      : info_(std::move(info)), store_(options) {}
  virtual ~StoredRelation() = default;

  StoredRelation(const StoredRelation&) = delete;
  StoredRelation& operator=(const StoredRelation&) = delete;

  const RelationInfo& info() const { return info_; }
  const Schema& schema() const { return info_.schema; }
  TemporalClass temporal_class() const { return info_.temporal_class; }
  TemporalDataModel data_model() const { return info_.data_model; }

  /// Inserts a tuple.  `valid` is the fact's valid-time period; nullopt
  /// means "from the transaction timestamp on" for kinds with valid time
  /// and is required to be nullopt for kinds without it.
  virtual Status Append(Transaction* txn, std::vector<Value> values,
                        std::optional<Period> valid) = 0;

  /// The valid window of a `delete` or `replace` with valid clause `valid`:
  /// the period the write step rewrites and the valid window of its
  /// candidates.  Kinds with valid time default to "from the transaction
  /// timestamp on" (an event: the timestamp); kinds without it have none
  /// and reject a supplied period with NotSupported.
  Result<std::optional<Period>> DmlWindow(Transaction* txn,
                                          std::optional<Period> valid) const;

  /// The versions a DML statement over `window` may select, read from the
  /// state before it writes: `Candidates` at the head pin with `window` as
  /// the valid window (so with transaction time only the current state),
  /// probing `key` when there is one.  They come in the order the write
  /// step rewrites them: row order, but (valid begin, row) under a
  /// historical window.
  VersionBatch DmlCandidates(std::optional<Period> window,
                             const std::optional<KeyRanges>& key) const;

  /// The write step of `delete`: removes `window` (`DmlWindow`'s) from each
  /// of `victims`, rows `DmlCandidates` returned, in that order.
  virtual Status Delete(Transaction* txn, const std::vector<RowId>& victims,
                        std::optional<Period> window) = 0;

  /// The write step of `replace`: `values[i]`, already computed and
  /// coerced to the schema, replace the values of `victims[i]` over
  /// `window`.
  virtual Status Replace(Transaction* txn, const std::vector<RowId>& victims,
                         std::vector<std::vector<Value>> values,
                         std::optional<Period> window) = 0;

  /// The relation's one scan: the state at a pin, as a pin-bounded,
  /// partition-pruned kernel sweep.  `spec.snapshot` names a reader pin;
  /// empty means the writer's head pin (`VersionStore::HeadPin`), which
  /// also sees the open transaction's own appends and closes.  Each kind
  /// turns the windows it maintains into predicates:
  ///
  /// | kind       | `asof`                  | `valid_during`                |
  /// |------------|-------------------------|-------------------------------|
  /// | static     | ignored (no time)       | ignored (no time)             |
  /// | rollback   | txn contains / overlaps | ignored (no valid time)       |
  /// | historical | ignored (no txn time)   | valid overlaps                |
  /// | temporal   | txn contains / overlaps | valid overlaps                |
  ///
  /// Without `asof`, kinds with transaction time read only the current
  /// stored state (a rollback to the latest state, §4.2).  The scan yields
  /// columnar `VersionBatch`es of `store()->options().batch_rows` in
  /// ascending row order.
  VersionBatchScan BatchScan(const ScanSpec& spec) const;

  /// The one candidate step of retrieve and DML: the versions
  /// `BatchScan(spec)` yields, in ascending row order, as one batch.  With
  /// a `key` at the head pin the attribute index's postings in the key's
  /// ranges stand in for the scan: those visible under `spec` (its `as of`
  /// window, else the current state with transaction time; its valid window
  /// with valid time), which are the scan's versions with
  /// `values[key.attr]` in a range.  The walk gives up, and the scan runs,
  /// once its postings exceed `kProbeFraction` of the pin's rows.  A reader
  /// pin ignores the key (the B+-trees are writer state).  `examined`, when
  /// set, receives the rows the step read: the ranges' postings, or the
  /// scan's yield.
  VersionBatch Candidates(const ScanSpec& spec,
                          const std::optional<KeyRanges>& key,
                          size_t* examined = nullptr) const;

  /// The share of the head pin's rows past which a key's postings are
  /// swept instead of probed (EXPERIMENTS.md A8).
  static constexpr double kProbeFraction = 0.5;

  /// Creates a secondary index on the named attribute (the B+-tree
  /// `Candidates` walks for a key).
  Status CreateIndex(std::string_view attribute);

  /// The underlying version store (query layer access path).
  VersionStore* store() { return &store_; }
  const VersionStore* store() const { return &store_; }

 protected:
  /// Validates arity/types and coerces values against the schema.
  Result<std::vector<Value>> CheckValues(std::vector<Value> values) const;

  /// Resolves the valid period for a kind *with* valid time: defaults to
  /// `[now, ∞)`, validates event relations get instants (coercing a nullopt
  /// default to the single chronon `now`).
  Result<Period> ResolveValidPeriod(Transaction* txn,
                                    std::optional<Period> valid) const;

  /// Rejects a user-supplied valid period for kinds *without* valid time.
  Status RejectValidPeriod(const std::optional<Period>& valid) const;

  RelationInfo info_;
  VersionStore store_;
};

/// Creates the right subclass for `info.temporal_class`.
std::unique_ptr<StoredRelation> MakeStoredRelation(
    RelationInfo info, VersionStoreOptions options = {});

}  // namespace temporadb

#endif  // TEMPORADB_TEMPORAL_STORED_RELATION_H_
