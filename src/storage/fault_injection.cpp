#include "storage/fault_injection.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/strings.h"

namespace temporadb {

namespace {
using FileId = uint64_t;
}  // namespace

/// Shared state between the filesystem wrapper and its file handles.
///
/// The model: every file we touch is an "inode" (FileId) whose *durable*
/// content is updated only by a successful `File::Sync`.  Every directory
/// entry we touch has a recorded *durable* state (absent / file+inode /
/// subdir) that is updated eagerly for untracked directories (entries there
/// are assumed durable, e.g. the system temp dir) and only by `SyncDir` for
/// tracked ones (directories created or dir-synced through this
/// filesystem).  `RealizeCrash` rebuilds the base filesystem from exactly
/// those durable records.
struct FaultInjectionFileSystem::Impl {
  struct EntryState {
    enum Kind { kAbsent, kFile, kSubdir };
    Kind kind = kAbsent;
    FileId fid = 0;
  };

  FileSystem* base;
  FileId next_fid = 1;
  std::map<std::string, FileId> live;             // current path -> inode
  std::map<FileId, std::string> durable_content;  // inode -> synced bytes
  // dir -> (entry name -> durable state); only entries we touched.
  std::map<std::string, std::map<std::string, EntryState>> durable_entry;
  std::set<std::string> tracked;  // dirs with sync-gated (deferred) entries
  uint64_t sync_seq = 0;
  uint64_t crash_at_sync = 0;
  uint64_t keep_prefix = 0;
  bool crashed = false;
  FaultFilter filter;

  explicit Impl(FileSystem* b) : base(b) {}

  Status CheckOp(FaultOp op, const std::string& path) {
    if (crashed) {
      return Status::IOError("simulated crash: filesystem is down");
    }
    if (filter && filter(op, path)) {
      return Status::IOError("injected fault (" + path + ")");
    }
    return Status::OK();
  }

  /// Counts the barrier and triggers a planned crash *before* it takes
  /// effect, so the data guarded by this sync is not durable.
  Status SyncBarrier(FaultOp op, const std::string& path) {
    if (crashed) {
      return Status::IOError("simulated crash: filesystem is down");
    }
    ++sync_seq;
    if (crash_at_sync != 0 && sync_seq == crash_at_sync) {
      crashed = true;
      return Status::IOError(
          StringPrintf("simulated crash at sync barrier #%llu (%s)",
                       (unsigned long long)sync_seq, path.c_str()));
    }
    if (filter && filter(op, path)) {
      return Status::IOError("injected sync fault (" + path + ")");
    }
    return Status::OK();
  }

  Result<std::string> ReadAll(const std::string& path) {
    return ReadFileToString(base, path);
  }

  Status WriteAll(const std::string& path, const std::string& content) {
    TDB_ASSIGN_OR_RETURN(std::unique_ptr<File> f,
                         base->OpenFile(path, /*create=*/true));
    TDB_RETURN_IF_ERROR(f->Truncate(0));
    TDB_RETURN_IF_ERROR(f->WriteAt(0, content.data(), content.size()));
    return f->Sync();
  }

  /// Assigns an inode to an existing, not-yet-tracked file; its current
  /// content is assumed durable (we did not write it).
  Result<FileId> EnsureShadow(const std::string& path) {
    auto it = live.find(path);
    if (it != live.end()) return it->second;
    TDB_ASSIGN_OR_RETURN(std::string content, ReadAll(path));
    FileId fid = next_fid++;
    live[path] = fid;
    durable_content[fid] = std::move(content);
    return fid;
  }

  /// Records the pre-op durable state of `dir/name` the first time the
  /// entry is touched in a tracked dir; no-op for later touches (the
  /// durable state only changes at SyncDir).
  Status RecordPreState(const std::string& dir, const std::string& name) {
    auto& entries = durable_entry[dir];
    if (entries.count(name)) return Status::OK();
    std::string full = dir + "/" + name;
    EntryState state;
    if (base->DirExists(full)) {
      state.kind = EntryState::kSubdir;
    } else if (base->FileExists(full)) {
      TDB_ASSIGN_OR_RETURN(state.fid, EnsureShadow(full));
      state.kind = EntryState::kFile;
    }
    entries[name] = state;
    return Status::OK();
  }

  /// Sets the durable state of `dir/name` to its current on-disk state
  /// (used for eager untracked-dir updates and for SyncDir).
  Status RecordCurrentState(const std::string& dir, const std::string& name) {
    std::string full = dir + "/" + name;
    EntryState state;
    if (base->DirExists(full)) {
      state.kind = EntryState::kSubdir;
    } else if (base->FileExists(full)) {
      TDB_ASSIGN_OR_RETURN(state.fid, EnsureShadow(full));
      state.kind = EntryState::kFile;
    }
    durable_entry[dir][name] = state;
    return Status::OK();
  }

  /// Entry bookkeeping around a metadata op: call before the base op for
  /// tracked dirs (captures the durable pre-state), and `Touched` after the
  /// op for untracked dirs (entry immediately durable).
  bool IsTracked(const std::string& dir) const { return tracked.count(dir) != 0; }

  Status TouchBefore(const std::string& path) {
    std::string dir = DirName(path);
    if (IsTracked(dir)) return RecordPreState(dir, BaseName(path));
    return Status::OK();
  }

  Status TouchAfter(const std::string& path) {
    std::string dir = DirName(path);
    if (!IsTracked(dir)) return RecordCurrentState(dir, BaseName(path));
    return Status::OK();
  }

  static std::string BaseName(const std::string& path) {
    size_t slash = path.rfind('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
  }

  /// The content `fid` reverts to at a crash: its durable bytes plus, when
  /// torn tails are enabled, up to `keep_prefix` bytes of the un-synced
  /// appended suffix.
  std::string CrashContent(FileId fid) {
    std::string durable;
    auto dit = durable_content.find(fid);
    if (dit != durable_content.end()) durable = dit->second;
    if (keep_prefix == 0) return durable;
    for (const auto& [path, id] : live) {
      if (id != fid || !base->FileExists(path)) continue;
      Result<std::string> cur = ReadAll(path);
      if (!cur.ok()) break;
      if (cur->size() > durable.size() &&
          cur->compare(0, durable.size(), durable) == 0) {
        durable += cur->substr(durable.size(),
                               std::min<uint64_t>(keep_prefix,
                                                  cur->size() - durable.size()));
      }
      break;
    }
    return durable;
  }

  Status Realize() {
    // 1. Rebuild every touched directory entry to its durable state,
    //    parents before children (map order is lexicographic, so a parent
    //    path sorts before the paths inside it).
    for (const auto& [dir, entries] : durable_entry) {
      if (!base->DirExists(dir)) continue;  // Parent decided: subtree gone.
      for (const auto& [name, state] : entries) {
        std::string full = dir + "/" + name;
        switch (state.kind) {
          case EntryState::kAbsent:
            if (base->DirExists(full)) {
              TDB_RETURN_IF_ERROR(RemoveDirRecursive(base, full));
            } else if (base->FileExists(full)) {
              TDB_RETURN_IF_ERROR(base->RemoveFile(full));
            }
            break;
          case EntryState::kFile:
            if (base->DirExists(full)) {
              TDB_RETURN_IF_ERROR(RemoveDirRecursive(base, full));
            }
            TDB_RETURN_IF_ERROR(WriteAll(full, CrashContent(state.fid)));
            break;
          case EntryState::kSubdir:
            if (base->FileExists(full)) {
              TDB_RETURN_IF_ERROR(base->RemoveFile(full));
            }
            TDB_RETURN_IF_ERROR(base->MakeDir(full));
            break;
        }
      }
    }
    // 2. Revert the content of surviving files whose directory entry was
    //    never touched (pre-existing files we only wrote to).  Paths with
    //    an entry record were already decided in step 1 — a path that
    //    gained a new inode via an un-synced rename must keep the durable
    //    inode's content, not the new one's.
    for (const auto& [path, fid] : live) {
      auto dit = durable_entry.find(DirName(path));
      if (dit != durable_entry.end() && dit->second.count(BaseName(path))) {
        continue;
      }
      if (!base->FileExists(path)) continue;
      Result<std::string> cur = ReadAll(path);
      if (!cur.ok()) return cur.status();
      std::string want = CrashContent(fid);
      if (*cur != want) {
        TDB_RETURN_IF_ERROR(WriteAll(path, want));
      }
    }
    // 3. Reset: everything now on disk is durable; shadowing restarts
    //    lazily as files are reopened.
    live.clear();
    durable_content.clear();
    durable_entry.clear();
    tracked.clear();
    crashed = false;
    crash_at_sync = 0;
    sync_seq = 0;
    return Status::OK();
  }
};

class FaultInjectionFile : public File {
 public:
  FaultInjectionFile(std::shared_ptr<FaultInjectionFileSystem::Impl> impl,
                     std::string path, FileId fid,
                     std::unique_ptr<File> base_file)
      : impl_(std::move(impl)),
        path_(std::move(path)),
        fid_(fid),
        base_(std::move(base_file)) {}

  Result<size_t> ReadAt(uint64_t offset, char* buf, size_t n) override {
    TDB_RETURN_IF_ERROR(impl_->CheckOp(FaultOp::kRead, path_));
    return base_->ReadAt(offset, buf, n);
  }

  Status WriteAt(uint64_t offset, const char* data, size_t n) override {
    if (impl_->crashed) {
      return Status::IOError("simulated crash: filesystem is down");
    }
    if (impl_->filter && impl_->filter(FaultOp::kWrite, path_)) {
      // A torn write: half the buffer lands before the error.
      (void)base_->WriteAt(offset, data, n / 2);
      return Status::IOError("injected short write (" + path_ + ")");
    }
    return base_->WriteAt(offset, data, n);
  }

  Status Truncate(uint64_t size) override {
    TDB_RETURN_IF_ERROR(impl_->CheckOp(FaultOp::kTruncate, path_));
    return base_->Truncate(size);
  }

  Status Sync() override {
    TDB_RETURN_IF_ERROR(impl_->SyncBarrier(FaultOp::kSync, path_));
    TDB_RETURN_IF_ERROR(base_->Sync());
    // The inode's durable image is now its full current content.
    TDB_ASSIGN_OR_RETURN(uint64_t size, base_->Size());
    std::string content(size, '\0');
    TDB_ASSIGN_OR_RETURN(size_t n, base_->ReadAt(0, content.data(), size));
    content.resize(n);
    impl_->durable_content[fid_] = std::move(content);
    return Status::OK();
  }

  Result<uint64_t> Size() override {
    TDB_RETURN_IF_ERROR(impl_->CheckOp(FaultOp::kRead, path_));
    return base_->Size();
  }

 private:
  std::shared_ptr<FaultInjectionFileSystem::Impl> impl_;
  std::string path_;
  FileId fid_;
  std::unique_ptr<File> base_;
};

FaultInjectionFileSystem::FaultInjectionFileSystem(FileSystem* base)
    : impl_(std::make_shared<Impl>(base)) {}

FaultInjectionFileSystem::~FaultInjectionFileSystem() = default;

Result<std::unique_ptr<File>> FaultInjectionFileSystem::OpenFile(
    const std::string& path, bool create) {
  TDB_RETURN_IF_ERROR(impl_->CheckOp(FaultOp::kOpen, path));
  bool existed = impl_->base->FileExists(path);
  FileId fid;
  if (existed) {
    TDB_ASSIGN_OR_RETURN(fid, impl_->EnsureShadow(path));
  } else {
    if (!create) return Status::NotFound("cannot open " + path);
    TDB_RETURN_IF_ERROR(impl_->TouchBefore(path));
  }
  TDB_ASSIGN_OR_RETURN(std::unique_ptr<File> base_file,
                       impl_->base->OpenFile(path, create));
  if (!existed) {
    fid = impl_->next_fid++;
    impl_->live[path] = fid;
    impl_->durable_content[fid] = "";
    TDB_RETURN_IF_ERROR(impl_->TouchAfter(path));
  }
  return std::unique_ptr<File>(
      new FaultInjectionFile(impl_, path, fid, std::move(base_file)));
}

Status FaultInjectionFileSystem::RenameFile(const std::string& from,
                                            const std::string& to) {
  TDB_RETURN_IF_ERROR(impl_->CheckOp(FaultOp::kRename, to));
  TDB_ASSIGN_OR_RETURN(FileId fid, impl_->EnsureShadow(from));
  TDB_RETURN_IF_ERROR(impl_->TouchBefore(from));
  if (impl_->base->FileExists(to)) {
    TDB_RETURN_IF_ERROR(impl_->EnsureShadow(to).status());
  }
  TDB_RETURN_IF_ERROR(impl_->TouchBefore(to));
  TDB_RETURN_IF_ERROR(impl_->base->RenameFile(from, to));
  impl_->live.erase(from);
  impl_->live[to] = fid;
  TDB_RETURN_IF_ERROR(impl_->TouchAfter(from));
  return impl_->TouchAfter(to);
}

Status FaultInjectionFileSystem::RemoveFile(const std::string& path) {
  TDB_RETURN_IF_ERROR(impl_->CheckOp(FaultOp::kRemove, path));
  if (impl_->base->FileExists(path)) {
    TDB_RETURN_IF_ERROR(impl_->EnsureShadow(path).status());
  }
  TDB_RETURN_IF_ERROR(impl_->TouchBefore(path));
  TDB_RETURN_IF_ERROR(impl_->base->RemoveFile(path));
  if (!impl_->IsTracked(DirName(path))) {
    // Entry removal is immediately durable; drop the unreachable inode.
    auto it = impl_->live.find(path);
    if (it != impl_->live.end()) {
      impl_->durable_content.erase(it->second);
      impl_->live.erase(it);
    }
  } else {
    impl_->live.erase(path);  // durable_content stays for crash restore
  }
  return impl_->TouchAfter(path);
}

Status FaultInjectionFileSystem::MakeDir(const std::string& path) {
  TDB_RETURN_IF_ERROR(impl_->CheckOp(FaultOp::kMkdir, path));
  TDB_RETURN_IF_ERROR(impl_->TouchBefore(path));
  TDB_RETURN_IF_ERROR(impl_->base->MakeDir(path));
  impl_->tracked.insert(path);
  return impl_->TouchAfter(path);
}

Status FaultInjectionFileSystem::RemoveDir(const std::string& path) {
  TDB_RETURN_IF_ERROR(impl_->CheckOp(FaultOp::kRmdir, path));
  TDB_RETURN_IF_ERROR(impl_->TouchBefore(path));
  TDB_RETURN_IF_ERROR(impl_->base->RemoveDir(path));
  return impl_->TouchAfter(path);
}

Status FaultInjectionFileSystem::SyncDir(const std::string& path) {
  TDB_RETURN_IF_ERROR(impl_->SyncBarrier(FaultOp::kSyncDir, path));
  TDB_RETURN_IF_ERROR(impl_->base->SyncDir(path));
  impl_->tracked.insert(path);
  auto it = impl_->durable_entry.find(path);
  if (it != impl_->durable_entry.end()) {
    // Every touched entry's current state is now durable.
    std::vector<std::string> names;
    for (const auto& [name, state] : it->second) names.push_back(name);
    for (const std::string& name : names) {
      TDB_RETURN_IF_ERROR(impl_->RecordCurrentState(path, name));
    }
  }
  return Status::OK();
}

Result<std::vector<std::string>> FaultInjectionFileSystem::ListDir(
    const std::string& path) {
  TDB_RETURN_IF_ERROR(impl_->CheckOp(FaultOp::kRead, path));
  return impl_->base->ListDir(path);
}

bool FaultInjectionFileSystem::FileExists(const std::string& path) {
  return !impl_->crashed && impl_->base->FileExists(path);
}

bool FaultInjectionFileSystem::DirExists(const std::string& path) {
  return !impl_->crashed && impl_->base->DirExists(path);
}

void FaultInjectionFileSystem::PlanCrashAtSync(uint64_t k) {
  impl_->crash_at_sync = impl_->sync_seq + k;
}

uint64_t FaultInjectionFileSystem::sync_count() const {
  return impl_->sync_seq;
}

bool FaultInjectionFileSystem::crashed() const { return impl_->crashed; }

void FaultInjectionFileSystem::set_keep_unsynced_prefix(uint64_t bytes) {
  impl_->keep_prefix = bytes;
}

void FaultInjectionFileSystem::set_fault_filter(FaultFilter filter) {
  impl_->filter = std::move(filter);
}

Status FaultInjectionFileSystem::RealizeCrash() { return impl_->Realize(); }

}  // namespace temporadb
