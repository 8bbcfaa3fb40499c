#ifndef TEMPORADB_CORE_DATABASE_H_
#define TEMPORADB_CORE_DATABASE_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "rel/relation.h"
#include "storage/fs.h"
#include "storage/wal.h"
#include "temporal/mvcc.h"
#include "temporal/read_snapshot.h"
#include "temporal/stored_relation.h"
#include "tquel/evaluator.h"
#include "txn/clock.h"
#include "txn/txn_manager.h"

namespace temporadb {

/// Database configuration.
struct DatabaseOptions {
  /// Directory for persistence (created if missing).  Empty: purely
  /// in-memory, no WAL, no checkpoints.
  std::string path;

  /// Transaction-time source.  Null: the system calendar.  Tests and the
  /// paper-scenario driver pass a `ManualClock` to replay historical dates.
  /// The clock must outlive the database.
  const Clock* clock = nullptr;

  /// Every relation's version-store configuration: scan batch size, epoch
  /// partitioning, the scan-stats sink.
  VersionStoreOptions store_options;

  /// fsync the WAL on every commit (durability); off for benchmarks that
  /// measure the engine rather than the disk.
  bool sync_commits = true;

  /// Filesystem for all persistence I/O.  Null: the real POSIX filesystem.
  /// Crash tests pass a `FaultInjectionFileSystem`; it must outlive the
  /// database.
  FileSystem* fs = nullptr;
};

/// The temporadb embedded database: catalog + relations + transactions +
/// TQuel, with optional WAL/checkpoint persistence.
///
/// Usage:
/// ```cpp
/// auto db = Database::Open({});
/// db->Execute("create temporal relation faculty (name = string, rank = string)");
/// db->Execute("append to faculty (name = \"Merrie\", rank = \"associate\") "
///             "valid from \"09/01/77\" to \"inf\"");
/// db->Execute("range of f is faculty");
/// auto rows = db->Query("retrieve (f.rank) where f.name = \"Merrie\" "
///                       "as of \"12/10/82\"");
/// ```
///
/// Statements run in auto-commit mode (one transaction per DML statement)
/// unless wrapped with `Begin`/`Commit`.
///
/// Threading contract: externally synchronized, single writer.  `Database`
/// holds no mutex by design — the embedded model gives every handle one
/// owner, and a mutex here would serialize nothing real while hiding
/// misuse from TSan.  Every scan runs on its calling thread: the writer's
/// on the writer, a snapshot reader's on that reader (`BeginReadSnapshot`,
/// `QueryAtSnapshot`).  The one internal lock is the WAL `CommitQueue`,
/// which batches concurrent commit barriers (see DESIGN.md §11.1).
class Database {
 public:
  static Result<std::unique_ptr<Database>> Open(DatabaseOptions options = {});
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // --- DDL (programmatic) -------------------------------------------------

  Result<RelationInfo> CreateRelation(
      const std::string& name, Schema schema, TemporalClass temporal_class,
      TemporalDataModel data_model = TemporalDataModel::kInterval);

  Status DropRelation(const std::string& name);

  Result<StoredRelation*> GetRelation(std::string_view name);
  std::vector<RelationInfo> ListRelations() const;

  // --- TQuel --------------------------------------------------------------

  /// Parses and executes one or more statements; returns the last result.
  /// Each DML statement runs in its own transaction unless one is active.
  /// The first failing statement stops the source and aborts a transaction
  /// the source began and did not end (its `commit` never runs); a
  /// transaction begun by an earlier call stays open.
  Result<tquel::ExecResult> Execute(std::string_view source);

  /// Convenience: executes a single retrieve/show and returns the rowset.
  Result<Rowset> Query(std::string_view source);

  /// Named results of `retrieve into`.
  Result<Rowset> GetDerived(const std::string& name) const;

  // --- Transactions -------------------------------------------------------

  /// Starts an explicit transaction; statements executed until `Commit`
  /// join it.
  Result<Transaction*> Begin();
  Status Commit(Transaction* txn);
  Status Abort(Transaction* txn);

  /// Runs `fn` inside a transaction, committing on OK and aborting on
  /// error.
  Status WithTransaction(const std::function<Status(Transaction*)>& fn);

  /// The chronon the next transaction would be stamped with.
  Chronon Now() const { return txn_manager_->Now(); }

  TxnManager* txn_manager() { return txn_manager_.get(); }

  // --- Read snapshots -----------------------------------------------------

  /// Pins a snapshot-isolated read transaction: the returned handle sees
  /// exactly the commits published so far, is safe to use from any thread
  /// while the writer keeps committing, and never blocks the writer.
  /// Results through the pin are bit-identical to quiescing the writer and
  /// querying `as of` the pin's timestamp.  While any snapshot is live,
  /// in-place history rewrites (corrections, compaction) and DDL fail with
  /// FailedPrecondition.  Callable from any thread *except* between a
  /// correction and its commit on the writer thread (it would wait for the
  /// fence and times out with FailedPrecondition).
  Result<ReadSnapshot> BeginReadSnapshot();

  /// Evaluates a single `retrieve` statement against a pinned snapshot.
  /// Thread-safe with respect to the writer and to other snapshot queries;
  /// `retrieve into` is rejected (it writes session state).
  Result<Rowset> QueryAtSnapshot(const ReadSnapshot& snapshot,
                                 std::string_view source) const;

  // --- Persistence --------------------------------------------------------

  /// Writes a consistent checkpoint (catalog + every relation's versions)
  /// and truncates the WAL.  No-op (OK) for in-memory databases.
  ///
  /// With `compact` set, tombstone slots left by historical corrections are
  /// physically reclaimed first (row ids renumber; this is the only point
  /// where that is safe, because the WAL that references them is truncated
  /// by the same checkpoint).  If a compacting checkpoint returns an I/O
  /// error, stop writing and reopen the database: the on-disk state is
  /// still the consistent pre-checkpoint one, but the in-memory row ids no
  /// longer match the surviving WAL.
  Status Checkpoint(bool compact = false);

  /// WAL size in bytes (0 when in-memory); for the recovery bench.
  uint64_t WalBytes() const;

  // --- Introspection ------------------------------------------------------

  const Catalog& catalog() const { return catalog_; }
  std::map<std::string, std::string>& ranges() { return ranges_; }

 private:
  explicit Database(DatabaseOptions options);

  Status InitPersistence();
  Status Recover();
  Status LoadCheckpoint(const std::string& dir);
  /// Loads one relation's checkpoint file (format in database.cpp) into
  /// `store`; Corruption on a checksum mismatch or malformed payload.
  Status LoadRelationFile(const std::string& path, VersionStore* store);
  Status ReplayWal(uint64_t from_lsn);
  Status LogDdl(uint32_t type, const std::string& payload);
  /// Publishes the effects of one committed transaction to snapshot
  /// readers: under the seqlock, stores every store's committed-row
  /// watermark, bumps the commit sequence, and records `ts` (when finite)
  /// as the last commit timestamp.  Writer-thread only.
  void PublishMvcc(Chronon ts);
  void WireObserver(StoredRelation* rel);
  tquel::EvalContext MakeEvalContext(Transaction* txn);
  /// One statement of `Execute`; `*opened` tracks whether a transaction
  /// the source began is open.
  Result<tquel::ExecResult> ExecuteStatement(const tquel::Statement& stmt,
                                             bool* opened);
  Result<StoredRelation*> GetRelationInternal(std::string_view name);
  Status CreateFromStmt(const tquel::CreateStmt& stmt);

  DatabaseOptions options_;
  SystemClock default_clock_;
  const Clock* clock_;
  // Writer/snapshot-reader coordination (commit publication, correction
  // fence); shared with every relation's version store via store options.
  MvccState mvcc_;
  FileSystem* fs_;
  std::unique_ptr<TxnManager> txn_manager_;
  Catalog catalog_;
  std::unordered_map<std::string, std::unique_ptr<StoredRelation>> relations_;
  std::unordered_map<uint64_t, StoredRelation*> relations_by_id_;
  std::map<std::string, std::string> ranges_;
  std::map<std::string, Rowset> derived_;

  // Persistence.
  std::unique_ptr<WriteAheadLog> wal_;
  // All commit and DDL records reach the log through the group-commit
  // queue; it also carries the poisoned state (a WAL write or sync failed
  // after records were appended — the fsync may or may not have persisted
  // anything, so no further commit or checkpoint can be trusted until the
  // database is reopened and the log rescanned).
  std::unique_ptr<CommitQueue> commit_queue_;
  // Redo buffer of the active transaction: (relation id, op).
  std::vector<std::pair<uint64_t, VersionOp>> redo_buffer_;
  Transaction* active_txn_ = nullptr;
  bool replaying_ = false;
  uint64_t checkpoint_seq_ = 0;
};

}  // namespace temporadb

#endif  // TEMPORADB_CORE_DATABASE_H_
