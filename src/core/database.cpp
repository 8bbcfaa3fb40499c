#include "core/database.h"

#include <algorithm>
#include <cstdlib>
#include <thread>

#include "common/coding.h"
#include "common/strings.h"
#include "tquel/parser.h"

namespace temporadb {

namespace {

// WAL record types.
constexpr uint32_t kWalTxnBegin = 1;
constexpr uint32_t kWalTxnCommit = 2;
constexpr uint32_t kWalVersionOp = 3;
constexpr uint32_t kWalCreateRelation = 4;
constexpr uint32_t kWalDropRelation = 5;

std::string EncodeVersionOp(uint64_t rel_id, const VersionOp& op) {
  std::string out;
  PutFixed64(&out, rel_id);
  PutFixed32(&out, static_cast<uint32_t>(op.kind));
  PutFixed64(&out, op.row);
  PutFixed64(&out, static_cast<uint64_t>(op.tt_end.days()));
  op.tuple.EncodeTo(&out);
  return out;
}

Result<std::pair<uint64_t, VersionOp>> DecodeVersionOp(std::string_view in) {
  uint64_t rel_id, row, tt_end;
  uint32_t kind;
  if (!GetFixed64(&in, &rel_id) || !GetFixed32(&in, &kind) ||
      !GetFixed64(&in, &row) || !GetFixed64(&in, &tt_end)) {
    return Status::Corruption("WAL: truncated version op");
  }
  VersionOp op;
  op.kind = static_cast<VersionOp::Kind>(kind);
  op.row = row;
  op.tt_end = Chronon(static_cast<int64_t>(tt_end));
  TDB_ASSIGN_OR_RETURN(op.tuple, BitemporalTuple::DecodeFrom(&in));
  return std::make_pair(rel_id, std::move(op));
}

std::string EncodeRelationInfo(const RelationInfo& info) {
  std::string out;
  PutFixed64(&out, info.id);
  PutLengthPrefixed(&out, info.name);
  info.schema.EncodeTo(&out);
  PutFixed32(&out, static_cast<uint32_t>(info.temporal_class));
  PutFixed32(&out, static_cast<uint32_t>(info.data_model));
  PutFixed32(&out, info.persistent ? 1 : 0);
  return out;
}

Result<RelationInfo> DecodeRelationInfo(std::string_view in) {
  RelationInfo info;
  std::string_view name;
  if (!GetFixed64(&in, &info.id) || !GetLengthPrefixed(&in, &name)) {
    return Status::Corruption("WAL: truncated relation info");
  }
  info.name = std::string(name);
  TDB_ASSIGN_OR_RETURN(info.schema, Schema::DecodeFrom(&in));
  uint32_t cls, model, persistent;
  if (!GetFixed32(&in, &cls) || !GetFixed32(&in, &model) ||
      !GetFixed32(&in, &persistent)) {
    return Status::Corruption("WAL: truncated relation flags");
  }
  info.temporal_class = static_cast<TemporalClass>(cls);
  info.data_model = static_cast<TemporalDataModel>(model);
  info.persistent = persistent != 0;
  return info;
}

constexpr const char* kWalPoisonedMessage =
    "WAL in failed state after an I/O error; reopen the database";

// A relation's checkpoint file, ckpt-N/rel-<id>.tdb, is shaped like
// catalog.tdb: [fixed64 Checksum64(payload)][payload], where the payload is
//   [fixed64 sealed partition count][PartitionSynopsis]...
//   [live byte][BitemporalTuple, if live]...   one per slot, in row order.
// Row ids are positional (slot i is row i), so the sealed partition
// boundaries mean the same rows after reload and recovery reinstalls them
// instead of rescanning the relation's history.
std::string RelationFilePath(const std::string& dir, uint64_t rel_id) {
  return dir + StringPrintf("/rel-%llu.tdb", (unsigned long long)rel_id);
}

// Strips the [fixed64 Checksum64(payload)] head of a checkpoint file,
// leaving `in` on the payload; false when the file is short or the payload
// does not match.
bool StripChecksum(std::string_view* in) {
  uint64_t sum;
  return GetFixed64(in, &sum) && sum == Checksum64(in->data(), in->size());
}

// Streams a checkpoint payload into `file` from offset 8 (after the
// checksum) in fixed-size chunks, carrying the checksum across them, so a
// checkpoint holds one chunk of any relation in memory at a time.
class PayloadWriter {
 public:
  static constexpr size_t kChunkBytes = 64 << 10;

  explicit PayloadWriter(File* file) : file_(file) {}

  // Encode target; call Flush after each append.
  std::string* buffer() { return &buf_; }

  // Writes every whole chunk buffered so far; with `all`, the tail too.
  Status Flush(bool all) {
    size_t done = 0;
    while (buf_.size() - done >= kChunkBytes ||
           (all && done < buf_.size())) {
      const size_t n = std::min(kChunkBytes, buf_.size() - done);
      sum_ = Checksum64(buf_.data() + done, n, sum_);
      TDB_RETURN_IF_ERROR(file_->WriteAt(offset_, buf_.data() + done, n));
      offset_ += n;
      done += n;
    }
    buf_.erase(0, done);
    return Status::OK();
  }

  // Flushes the tail, then writes the payload's checksum at offset 0.
  Status Finish() {
    TDB_RETURN_IF_ERROR(Flush(/*all=*/true));
    std::string head;
    PutFixed64(&head, sum_);
    return file_->WriteAt(0, head.data(), head.size());
  }

 private:
  File* file_;
  uint64_t offset_ = 8;
  uint64_t sum_ = kChecksum64Seed;
  std::string buf_;
};

// Writes and fsyncs the file into a fresh checkpoint directory; making its
// directory entry durable is the caller's SyncDir.
Status WriteRelationFile(FileSystem* fs, const std::string& path,
                         const VersionStore& store) {
  TDB_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                       fs->OpenFile(path, /*create=*/true));
  PayloadWriter out(file.get());
  PutFixed64(out.buffer(), store.sealed_partition_count());
  for (size_t i = 0; i < store.sealed_partition_count(); ++i) {
    store.sealed_partition(i).EncodeTo(out.buffer());
  }
  Status st = out.Flush(/*all=*/false);
  store.ForEachSlot([&](RowId, const BitemporalTuple* tuple) {
    if (!st.ok()) return;
    out.buffer()->push_back(tuple != nullptr ? 1 : 0);
    if (tuple != nullptr) tuple->EncodeTo(out.buffer());
    st = out.Flush(/*all=*/false);
  });
  TDB_RETURN_IF_ERROR(st);
  TDB_RETURN_IF_ERROR(out.Finish());
  return file->Sync();
}

}  // namespace

Database::Database(DatabaseOptions options)
    : options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock : &default_clock_),
      fs_(options_.fs != nullptr ? options_.fs : FileSystem::Default()),
      txn_manager_(std::make_unique<TxnManager>(clock_)) {
  // Every store shares this database's MVCC state: commit publication,
  // close-sequence stamping, and the correction fence all run through it.
  options_.store_options.mvcc = &mvcc_;
}

Database::~Database() {
  if (active_txn_ != nullptr && active_txn_->IsActive()) {
    // Best-effort rollback from a destructor: there is no caller left to
    // receive the status, and recovery replays the WAL to the same state
    // regardless of whether this abort record lands.
    (void)Abort(active_txn_);
  }
}

Result<std::unique_ptr<Database>> Database::Open(DatabaseOptions options) {
  auto db = std::unique_ptr<Database>(new Database(std::move(options)));
  if (!db->options_.path.empty()) {
    TDB_RETURN_IF_ERROR(db->InitPersistence());
    TDB_RETURN_IF_ERROR(db->Recover());
  }
  return db;
}

Status Database::InitPersistence() {
  // MakeDir tolerates an existing directory; going through the FileSystem
  // lets the fault layer track the root's entries from here on.
  return fs_->MakeDir(options_.path);
}

Status Database::Recover() {
  replaying_ = true;
  Status status = [&]() -> Status {
    // 1. Load the checkpoint named by CURRENT, if any.  The second line of
    // CURRENT is the WAL resume LSN: records below it were already folded
    // into the checkpoint, so replaying them would double-apply when a
    // crash separated the CURRENT publish from the WAL truncation.
    uint64_t resume_lsn = 0;
    Result<std::string> current =
        ReadFileToString(fs_, options_.path + "/CURRENT");
    if (!current.ok() && !current.status().IsNotFound()) {
      return current.status();
    }
    if (current.ok()) {
      std::string_view body = *current;
      size_t newline = body.find('\n');
      std::string dir(Trim(newline == std::string_view::npos
                               ? body
                               : body.substr(0, newline)));
      if (newline != std::string_view::npos) {
        std::string rest(Trim(body.substr(newline + 1)));
        if (!rest.empty()) {
          resume_lsn = static_cast<uint64_t>(
              std::strtoull(rest.c_str(), nullptr, 10));
        }
      }
      checkpoint_seq_ = 0;
      size_t dash = dir.rfind('-');
      if (dash != std::string::npos) {
        checkpoint_seq_ =
            static_cast<uint64_t>(std::strtoull(dir.c_str() + dash + 1,
                                                nullptr, 10));
      }
      TDB_RETURN_IF_ERROR(LoadCheckpoint(options_.path + "/" + dir));
    }
    // 2. Open the log.  The resume LSN doubles as a lower bound for new
    // LSNs, keeping the sequence monotone even if the log file was lost.
    TDB_ASSIGN_OR_RETURN(
        wal_, WriteAheadLog::Open(fs_, options_.path + "/wal.log",
                                  std::max<uint64_t>(resume_lsn, 1)));
    commit_queue_ = std::make_unique<CommitQueue>(wal_.get());
    // The log file's directory entry must be durable before any commit can
    // be acknowledged; a first commit whose fsync hit only the file would
    // otherwise vanish with the dirent.
    TDB_RETURN_IF_ERROR(fs_->SyncDir(options_.path));
    // 3. Replay the WAL on top, skipping records the checkpoint absorbed.
    return ReplayWal(resume_lsn);
  }();
  replaying_ = false;
  if (status.ok()) {
    // Make everything recovery rebuilt visible to snapshot readers: replay
    // stamps its transaction-time closes with commit sequence 1 (see
    // RawCloseTxn), so one publication covers them all.
    PublishMvcc(txn_manager_->Now());
  }
  return status;
}

Status Database::LoadCheckpoint(const std::string& dir) {
  TDB_ASSIGN_OR_RETURN(std::string blob,
                       ReadFileToString(fs_, dir + "/catalog.tdb"));
  std::string_view view = blob;
  if (!StripChecksum(&view)) {
    return Status::Corruption("checkpoint catalog checksum mismatch");
  }
  TDB_ASSIGN_OR_RETURN(catalog_, Catalog::DecodeFrom(&view));
  for (const RelationInfo& info : catalog_.ListRelations()) {
    auto rel = MakeStoredRelation(info, options_.store_options);
    StoredRelation* ptr = rel.get();
    relations_[info.name] = std::move(rel);
    relations_by_id_[info.id] = ptr;
    WireObserver(ptr);
    TDB_RETURN_IF_ERROR(
        LoadRelationFile(RelationFilePath(dir, info.id), ptr->store()));
  }
  return Status::OK();
}

Status Database::LoadRelationFile(const std::string& path,
                                  VersionStore* store) {
  TDB_ASSIGN_OR_RETURN(std::string blob, ReadFileToString(fs_, path));
  std::string_view in = blob;
  if (!StripChecksum(&in)) {
    return Status::Corruption("checkpoint relation checksum mismatch: " +
                              path);
  }
  uint64_t n_parts;
  if (!GetFixed64(&in, &n_parts)) {
    return Status::Corruption("checkpoint relation header truncated: " + path);
  }
  std::vector<PartitionSynopsis> parts;
  for (uint64_t p = 0; p < n_parts; ++p) {
    PartitionSynopsis synopsis;
    if (!PartitionSynopsis::DecodeFrom(&in, &synopsis)) {
      return Status::Corruption("checkpoint partition synopsis malformed: " +
                                path);
    }
    parts.push_back(synopsis);
  }
  store->BeginLoad();
  while (!in.empty()) {
    bool live = in[0] != 0;
    in.remove_prefix(1);
    if (!live) {
      store->LoadSlot(std::nullopt);
      continue;
    }
    TDB_ASSIGN_OR_RETURN(BitemporalTuple tuple,
                         BitemporalTuple::DecodeFrom(&in));
    // Transaction time must never regress across recovery, even when the
    // checkpoint truncated the WAL records that carried the original
    // timestamps.
    if (tuple.txn.begin().IsFinite()) {
      txn_manager_->ObserveRecoveredTimestamp(tuple.txn.begin());
    }
    if (tuple.txn.end().IsFinite()) {
      txn_manager_->ObserveRecoveredTimestamp(tuple.txn.end());
    }
    store->LoadSlot(std::move(tuple));
  }
  TDB_RETURN_IF_ERROR(store->InstallSealedPartitions(std::move(parts)));
  store->EndLoad();
  return Status::OK();
}

Status Database::ReplayWal(uint64_t from_lsn) {
  // Buffer ops per transaction; apply on commit.  DDL records are applied
  // immediately (they were logged post-commit of the DDL itself).
  std::map<uint64_t, std::vector<std::pair<uint64_t, VersionOp>>> pending;
  uint64_t open_txn = 0;
  return wal_->Replay(from_lsn, [&](const WalRecord& rec) -> Status {
    std::string_view payload = rec.payload;
    switch (rec.type) {
      case kWalTxnBegin: {
        uint64_t txn_id, ts;
        if (!GetFixed64(&payload, &txn_id) || !GetFixed64(&payload, &ts)) {
          return Status::Corruption("WAL: bad txn-begin");
        }
        open_txn = txn_id;
        pending[txn_id].clear();
        txn_manager_->ObserveRecoveredTimestamp(
            Chronon(static_cast<int64_t>(ts)));
        return Status::OK();
      }
      case kWalVersionOp: {
        TDB_ASSIGN_OR_RETURN(auto decoded, DecodeVersionOp(payload));
        pending[open_txn].push_back(std::move(decoded));
        return Status::OK();
      }
      case kWalTxnCommit: {
        uint64_t txn_id;
        if (!GetFixed64(&payload, &txn_id)) {
          return Status::Corruption("WAL: bad txn-commit");
        }
        auto it = pending.find(txn_id);
        if (it == pending.end()) return Status::OK();
        for (const auto& [rel_id, op] : it->second) {
          auto rel_it = relations_by_id_.find(rel_id);
          if (rel_it == relations_by_id_.end()) {
            return Status::Corruption(StringPrintf(
                "WAL references unknown relation id %llu",
                (unsigned long long)rel_id));
          }
          TDB_RETURN_IF_ERROR(rel_it->second->store()->ApplyReplay(op));
        }
        pending.erase(it);
        return Status::OK();
      }
      case kWalCreateRelation: {
        TDB_ASSIGN_OR_RETURN(RelationInfo info, DecodeRelationInfo(payload));
        TDB_ASSIGN_OR_RETURN(
            RelationInfo created,
            catalog_.CreateRelation(info.name, info.schema,
                                    info.temporal_class, info.data_model,
                                    info.persistent));
        (void)created;
        auto rel = MakeStoredRelation(info, options_.store_options);
        StoredRelation* ptr = rel.get();
        relations_[info.name] = std::move(rel);
        relations_by_id_[info.id] = ptr;
        WireObserver(ptr);
        return Status::OK();
      }
      case kWalDropRelation: {
        std::string_view name;
        if (!GetLengthPrefixed(&payload, &name)) {
          return Status::Corruption("WAL: bad drop-relation");
        }
        Result<RelationInfo> info = catalog_.GetRelation(name);
        if (info.ok()) {
          relations_by_id_.erase(info->id);
          relations_.erase(std::string(name));
          // GetRelation just proved the entry exists, and DropRelation's
          // only failure mode is NotFound.
          (void)catalog_.DropRelation(name);
        }
        return Status::OK();
      }
      default:
        return Status::Corruption("WAL: unknown record type");
    }
  });
}

Status Database::LogDdl(uint32_t type, const std::string& payload) {
  if (wal_ == nullptr || replaying_) return Status::OK();
  // The queue rewinds the record on failure (so a later successful sync
  // cannot persist a DDL the caller was told failed) and poisons the log.
  std::vector<WalBatchEntry> batch(1);
  batch[0].type = type;
  batch[0].payload = payload;
  return commit_queue_->Commit(batch, /*sync=*/true);
}

void Database::WireObserver(StoredRelation* rel) {
  uint64_t id = rel->info().id;
  rel->store()->set_observer([this, id](const VersionOp& op) {
    if (wal_ == nullptr || replaying_) return;
    redo_buffer_.emplace_back(id, op);
  });
}

Result<RelationInfo> Database::CreateRelation(const std::string& name,
                                              Schema schema,
                                              TemporalClass temporal_class,
                                              TemporalDataModel data_model) {
  if (!replaying_ &&
      mvcc_.active_snapshots.load(std::memory_order_seq_cst) != 0) {
    return Status::FailedPrecondition(
        "DDL while read snapshots are pinned; release all snapshots first");
  }
  TDB_ASSIGN_OR_RETURN(
      RelationInfo info,
      catalog_.CreateRelation(name, std::move(schema), temporal_class,
                              data_model, !options_.path.empty()));
  auto rel = MakeStoredRelation(info, options_.store_options);
  StoredRelation* ptr = rel.get();
  relations_[name] = std::move(rel);
  relations_by_id_[info.id] = ptr;
  WireObserver(ptr);
  TDB_RETURN_IF_ERROR(LogDdl(kWalCreateRelation, EncodeRelationInfo(info)));
  return info;
}

Status Database::DropRelation(const std::string& name) {
  if (!replaying_ &&
      mvcc_.active_snapshots.load(std::memory_order_seq_cst) != 0) {
    return Status::FailedPrecondition(
        "DDL while read snapshots are pinned; release all snapshots first");
  }
  TDB_ASSIGN_OR_RETURN(RelationInfo info, catalog_.GetRelation(name));
  TDB_RETURN_IF_ERROR(catalog_.DropRelation(name));
  relations_by_id_.erase(info.id);
  relations_.erase(name);
  // Drop any ranges over it.
  for (auto it = ranges_.begin(); it != ranges_.end();) {
    if (it->second == name) {
      it = ranges_.erase(it);
    } else {
      ++it;
    }
  }
  std::string payload;
  PutLengthPrefixed(&payload, name);
  return LogDdl(kWalDropRelation, payload);
}

Result<StoredRelation*> Database::GetRelationInternal(std::string_view name) {
  auto it = relations_.find(std::string(name));
  if (it == relations_.end()) {
    return Status::NotFound("no such relation: " + std::string(name));
  }
  return it->second.get();
}

Result<StoredRelation*> Database::GetRelation(std::string_view name) {
  return GetRelationInternal(name);
}

std::vector<RelationInfo> Database::ListRelations() const {
  return catalog_.ListRelations();
}

Status Database::CreateFromStmt(const tquel::CreateStmt& stmt) {
  std::vector<Attribute> attrs;
  for (const auto& [attr_name, type_name] : stmt.attributes) {
    TDB_ASSIGN_OR_RETURN(Type type, Type::ParseQuelType(type_name));
    attrs.push_back(Attribute{attr_name, type});
  }
  TDB_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(attrs)));
  TDB_ASSIGN_OR_RETURN(RelationInfo info,
                       CreateRelation(stmt.name, std::move(schema),
                                      stmt.temporal_class, stmt.data_model));
  (void)info;
  return Status::OK();
}

tquel::EvalContext Database::MakeEvalContext(Transaction* txn) {
  tquel::EvalContext ctx;
  ctx.get_relation = [this](std::string_view name) {
    return GetRelationInternal(name);
  };
  ctx.create_relation = [this](const tquel::CreateStmt& stmt) {
    return CreateFromStmt(stmt);
  };
  ctx.drop_relation = [this](std::string_view name) {
    return DropRelation(std::string(name));
  };
  ctx.ranges = &ranges_;
  ctx.derived = &derived_;
  ctx.txn_manager = txn_manager_.get();
  ctx.txn = txn;
  return ctx;
}

namespace {

bool IsDml(const tquel::Statement& stmt) {
  return std::holds_alternative<tquel::AppendStmt>(stmt) ||
         std::holds_alternative<tquel::DeleteStmt>(stmt) ||
         std::holds_alternative<tquel::ReplaceStmt>(stmt) ||
         std::holds_alternative<tquel::CorrectStmt>(stmt);
}

}  // namespace

Result<tquel::ExecResult> Database::Execute(std::string_view source) {
  TDB_ASSIGN_OR_RETURN(std::vector<tquel::Statement> stmts,
                       tquel::Parse(source));
  if (stmts.empty()) {
    return Status::InvalidArgument("no statement to execute");
  }
  // A transaction this source began and has not ended yet.  A failing
  // statement stops the source before its `commit`, so that transaction
  // is aborted with it; one opened by an earlier call stays open.
  bool opened = false;
  tquel::ExecResult last;
  for (const tquel::Statement& stmt : stmts) {
    Result<tquel::ExecResult> result = ExecuteStatement(stmt, &opened);
    if (!result.ok()) {
      if (opened && active_txn_ != nullptr) (void)Abort(active_txn_);
      return result.status();
    }
    last = std::move(result).value();
  }
  return last;
}

Result<tquel::ExecResult> Database::ExecuteStatement(
    const tquel::Statement& stmt, bool* opened) {
  tquel::ExecResult last;
  // Transaction control lives here: the facade owns Begin/Commit/Abort.
  if (std::holds_alternative<tquel::BeginTxnStmt>(stmt)) {
    TDB_ASSIGN_OR_RETURN(Transaction * txn, Begin());
    (void)txn;
    *opened = true;
    last.message = "transaction started";
    return last;
  }
  if (std::holds_alternative<tquel::CommitStmt>(stmt)) {
    if (active_txn_ == nullptr) {
      return Status::FailedPrecondition("no active transaction to commit");
    }
    TDB_RETURN_IF_ERROR(Commit(active_txn_));
    *opened = false;
    last.message = "committed";
    return last;
  }
  if (std::holds_alternative<tquel::AbortStmt>(stmt)) {
    if (active_txn_ == nullptr) {
      return Status::FailedPrecondition("no active transaction to abort");
    }
    TDB_RETURN_IF_ERROR(Abort(active_txn_));
    *opened = false;
    last.message = "aborted";
    return last;
  }
  if (IsDml(stmt) && active_txn_ == nullptr) {
    // Auto-commit: the statement is its own transaction.
    TDB_ASSIGN_OR_RETURN(Transaction * txn, Begin());
    tquel::EvalContext ctx = MakeEvalContext(txn);
    Result<tquel::ExecResult> result = tquel::Execute(stmt, ctx);
    if (!result.ok()) {
      // The statement's own error is what the caller must see; a
      // secondary rollback failure would only mask it.
      (void)Abort(txn);
      return result.status();
    }
    TDB_RETURN_IF_ERROR(Commit(txn));
    return result;
  }
  tquel::EvalContext ctx = MakeEvalContext(active_txn_);
  return tquel::Execute(stmt, ctx);
}

Result<Rowset> Database::Query(std::string_view source) {
  TDB_ASSIGN_OR_RETURN(tquel::ExecResult result, Execute(source));
  if (result.kind != tquel::ExecResult::Kind::kRows) {
    return Status::InvalidArgument("statement did not produce rows");
  }
  return std::move(result.rows);
}

Result<Rowset> Database::GetDerived(const std::string& name) const {
  auto it = derived_.find(name);
  if (it == derived_.end()) {
    return Status::NotFound("no derived relation named '" + name + "'");
  }
  return it->second;
}

Result<Transaction*> Database::Begin() {
  TDB_ASSIGN_OR_RETURN(Transaction * txn, txn_manager_->Begin());
  active_txn_ = txn;
  redo_buffer_.clear();
  return txn;
}

Status Database::Commit(Transaction* txn) {
  if (txn != active_txn_) {
    return Status::InvalidArgument("commit of a non-active transaction");
  }
  if (wal_ != nullptr && !redo_buffer_.empty()) {
    // The whole transaction goes to the group-commit queue as one batch:
    // the leader of its barrier appends it contiguously and syncs once for
    // every batch sharing the barrier.  On failure the queue rewinds the
    // barrier (so a later successful sync cannot make these records durable
    // behind the caller's back) and poisons itself — a failed fsync may
    // have persisted an unknown prefix, so nothing more can be trusted
    // until reopen rescans the file.  Here the commit was never
    // acknowledged, so undo the in-memory effects.
    std::vector<WalBatchEntry> batch;
    batch.reserve(redo_buffer_.size() + 2);
    std::string begin_payload;
    PutFixed64(&begin_payload, txn->id());
    PutFixed64(&begin_payload,
               static_cast<uint64_t>(txn->timestamp().days()));
    batch.push_back({kWalTxnBegin, std::move(begin_payload)});
    for (const auto& [rel_id, op] : redo_buffer_) {
      batch.push_back({kWalVersionOp, EncodeVersionOp(rel_id, op)});
    }
    std::string commit_payload;
    PutFixed64(&commit_payload, txn->id());
    batch.push_back({kWalTxnCommit, std::move(commit_payload)});
    Status wal_status = commit_queue_->Commit(batch, options_.sync_commits);
    if (!wal_status.ok()) {
      // Report the WAL failure, not any secondary rollback error: the
      // caller must learn the commit did not become durable.
      (void)txn_manager_->Abort(txn);
      // The undo of any in-place correction has run; lower its fence.
      mvcc_.EndCorrections();
      redo_buffer_.clear();
      active_txn_ = nullptr;
      return wal_status;
    }
  }
  redo_buffer_.clear();
  const Chronon commit_ts = txn->timestamp();
  Status s = txn_manager_->Commit(txn);
  active_txn_ = nullptr;
  if (s.ok()) {
    // The transaction's effects are durable (or this is an in-memory
    // database); publish them to snapshot readers and lower any correction
    // fence it raised.  Unconditional: read-only and DDL-adjacent commits
    // publish too, keeping pins anchored to the latest commit.
    PublishMvcc(commit_ts);
    mvcc_.EndCorrections();
  }
  return s;
}

Status Database::Abort(Transaction* txn) {
  if (txn != active_txn_) {
    return Status::InvalidArgument("abort of a non-active transaction");
  }
  Status s = txn_manager_->Abort(txn);
  // Only after the undo has run: undoing a correction is itself an
  // in-place rewrite, so its fence must stay up until here.
  mvcc_.EndCorrections();
  // Clear after the undo has run: the store observer records the undo's
  // version ops too, and they must not leak into the next transaction.
  redo_buffer_.clear();
  active_txn_ = nullptr;
  return s;
}

Status Database::WithTransaction(
    const std::function<Status(Transaction*)>& fn) {
  TDB_ASSIGN_OR_RETURN(Transaction * txn, Begin());
  Status s = fn(txn);
  if (!s.ok()) {
    // fn's error is the one the caller asked about; the rollback is a
    // best-effort cleanup whose failure would only mask it.
    (void)Abort(txn);
    return s;
  }
  return Commit(txn);
}

Status Database::Checkpoint(bool compact) {
  if (wal_ == nullptr) return Status::OK();
  if (commit_queue_->poisoned()) {
    return Status::FailedPrecondition(kWalPoisonedMessage);
  }
  if (active_txn_ != nullptr && active_txn_->IsActive()) {
    return Status::FailedPrecondition(
        "cannot checkpoint with an active transaction");
  }
  if (compact) {
    // Safe exactly here: no transaction is active and the WAL records that
    // reference the old row ids are truncated below.  Compaction renumbers
    // rows in place, so it additionally requires that no read snapshot is
    // pinned — the correction fence enforces that and keeps new pins out
    // until the rewrite is complete.  Compaction is an opportunistic space
    // optimisation — a relation that declines (e.g. a temporal class that
    // must keep its history) leaves the checkpoint correct, just larger.
    TDB_RETURN_IF_ERROR(mvcc_.BeginCorrection());
    for (const auto& [name, rel] : relations_) {
      (void)rel->store()->CompactTombstones();
    }
    mvcc_.EndCorrections();
  }
  uint64_t seq = checkpoint_seq_ + 1;
  std::string dir_name = StringPrintf("ckpt-%llu", (unsigned long long)seq);
  std::string dir = options_.path + "/" + dir_name;
  TDB_RETURN_IF_ERROR(RemoveDirRecursive(fs_, dir));  // Stale partial attempt.
  TDB_RETURN_IF_ERROR(fs_->MakeDir(dir));
  // Catalog.
  std::string payload;
  catalog_.EncodeTo(&payload);
  std::string blob;
  PutFixed64(&blob, Checksum64(payload.data(), payload.size()));
  blob += payload;
  TDB_RETURN_IF_ERROR(WriteFileDurable(fs_, dir + "/catalog.tdb", blob));
  // Relations: one file each, fsynced here; the SyncDir below persists
  // their directory entries.
  for (const auto& [name, rel] : relations_) {
    TDB_RETURN_IF_ERROR(WriteRelationFile(
        fs_, RelationFilePath(dir, rel->info().id), *rel->store()));
  }
  // Every file inside ckpt-N must be durable *and findable* before CURRENT
  // can name the directory.
  TDB_RETURN_IF_ERROR(fs_->SyncDir(dir));
  // Publish.  CURRENT carries the WAL resume LSN: every record currently
  // in the log is below it, so even if the truncation that follows never
  // reaches the disk, recovery will not replay stale records on top of
  // this checkpoint.
  std::string current = dir_name + "\n" +
                        StringPrintf("%llu", (unsigned long long)
                                     wal_->next_lsn()) + "\n";
  TDB_RETURN_IF_ERROR(
      WriteFileDurable(fs_, options_.path + "/CURRENT", current));
  // Only after CURRENT is durable may the log be emptied; the reverse
  // order would drop committed transactions if the crash landed between.
  TDB_RETURN_IF_ERROR(wal_->Truncate());
  if (checkpoint_seq_ > 0) {
    std::string old_dir = options_.path +
                          StringPrintf("/ckpt-%llu",
                                       (unsigned long long)checkpoint_seq_);
    // Garbage collection of the superseded checkpoint: CURRENT already
    // points at ckpt-N, so a leftover ckpt-(N-1) is unreferenced disk
    // space, not a correctness problem.  The next checkpoint retries.
    (void)RemoveDirRecursive(fs_, old_dir);
  }
  checkpoint_seq_ = seq;
  return Status::OK();
}

uint64_t Database::WalBytes() const {
  if (wal_ == nullptr) return 0;
  Result<uint64_t> size = wal_->SizeBytes();
  return size.ok() ? *size : 0;
}

void Database::PublishMvcc(Chronon ts) {
  // Seqlock write side: odd word while the watermarks are in flux.  A
  // reader capturing a pin retries until it sees one even word across its
  // whole capture, so all watermarks plus commit_seq/last_commit_ts come
  // from the same publication.
  mvcc_.publish_word.fetch_add(1, std::memory_order_seq_cst);
  for (const auto& [name, rel] : relations_) {
    rel->store()->PublishCommittedRows();
  }
  mvcc_.commit_seq.fetch_add(1, std::memory_order_release);
  if (ts.IsFinite()) {
    mvcc_.last_commit_ts.store(ts.days(), std::memory_order_release);
  }
  mvcc_.publish_word.fetch_add(1, std::memory_order_seq_cst);
}

Result<ReadSnapshot> Database::BeginReadSnapshot() {
  // Bounded so a caller on the writer thread, between a correction and its
  // commit, gets an error instead of a deadlock (the fence it is waiting
  // out is its own).
  for (int attempt = 0; attempt < (1 << 16); ++attempt) {
    // Register *before* checking the fence: BeginCorrection raises its flag
    // and then checks this counter, so (seq_cst both sides) at least one of
    // the two always sees the other — a correction and a pin never both
    // proceed.
    mvcc_.active_snapshots.fetch_add(1, std::memory_order_seq_cst);
    if (mvcc_.correcting.load(std::memory_order_seq_cst) != 0) {
      mvcc_.active_snapshots.fetch_sub(1, std::memory_order_seq_cst);
      std::this_thread::yield();
      continue;
    }
    const uint64_t word = mvcc_.publish_word.load(std::memory_order_acquire);
    if ((word & 1) != 0) {  // A commit is publishing right now.
      mvcc_.active_snapshots.fetch_sub(1, std::memory_order_seq_cst);
      std::this_thread::yield();
      continue;
    }
    ReadSnapshot snap;
    snap.mvcc_ = &mvcc_;
    snap.seq_ = mvcc_.commit_seq.load(std::memory_order_acquire);
    snap.ts_ = Chronon(mvcc_.last_commit_ts.load(std::memory_order_acquire));
    for (const auto& [name, rel] : relations_) {
      snap.relations_[name] = rel.get();
      snap.pins_[rel->store()] =
          SnapshotPin{snap.seq_, rel->store()->committed_rows(), snap.ts_};
    }
    snap.ranges_ = ranges_;
    if (mvcc_.publish_word.load(std::memory_order_seq_cst) != word) {
      snap.Release();  // Torn capture: a commit published mid-read.
      std::this_thread::yield();
      continue;
    }
    return snap;
  }
  return Status::FailedPrecondition(
      "could not pin a read snapshot: a correction fence is held (is the "
      "pinning thread the one with the open correcting transaction?)");
}

Result<Rowset> Database::QueryAtSnapshot(const ReadSnapshot& snapshot,
                                         std::string_view source) const {
  if (!snapshot.valid()) {
    return Status::InvalidArgument("snapshot is not pinned");
  }
  TDB_ASSIGN_OR_RETURN(std::vector<tquel::Statement> stmts,
                       tquel::Parse(source));
  if (stmts.size() != 1 ||
      !std::holds_alternative<tquel::RetrieveStmt>(stmts[0])) {
    return Status::InvalidArgument(
        "QueryAtSnapshot evaluates exactly one retrieve statement");
  }
  const auto& stmt = std::get<tquel::RetrieveStmt>(stmts[0]);
  if (stmt.into.has_value()) {
    return Status::InvalidArgument(
        "retrieve into writes session state and cannot run on a snapshot");
  }
  // Everything below is thread-private: analysis and evaluation see only
  // the snapshot's frozen catalog and range table, never this database's
  // live maps (which the writer thread may be mutating).
  const std::map<std::string, std::string> ranges = snapshot.ranges();
  auto get_relation =
      [&snapshot](std::string_view name) -> Result<StoredRelation*> {
    const StoredRelation* rel = snapshot.relation(name);
    if (rel == nullptr) {
      return Status::NotFound("no such relation: " + std::string(name));
    }
    // The evaluator reads it exclusively through snapshot-mode scans; the
    // non-const pointer is an artifact of the shared context shape.
    return const_cast<StoredRelation*>(rel);
  };
  tquel::AnalyzerContext actx;
  actx.get_relation = get_relation;
  actx.ranges = &ranges;
  TDB_ASSIGN_OR_RETURN(tquel::BoundRetrieve bound,
                       tquel::AnalyzeRetrieve(stmt, actx));
  tquel::EvalContext ctx;
  ctx.get_relation = get_relation;
  ctx.snapshot = &snapshot;
  return tquel::EvaluateRetrieve(bound, ctx);
}

}  // namespace temporadb
