#ifndef TEMPORADB_STORAGE_FAULT_INJECTION_H_
#define TEMPORADB_STORAGE_FAULT_INJECTION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "storage/fs.h"

namespace temporadb {

/// Operation kinds visible to the fault filter.
enum class FaultOp {
  kOpen,
  kRead,
  kWrite,
  kTruncate,
  kSync,
  kRename,
  kRemove,
  kMkdir,
  kRmdir,
  kSyncDir,
};

/// A `FileSystem` that simulates crashes (LevelDB `FaultInjectionTestEnv`
/// style).  It tracks, per file, the content that was durable at the last
/// successful `Sync`, and per directory, the entry operations (create /
/// rename / remove / mkdir) not yet covered by a `SyncDir`.  At a simulated
/// crash every un-synced byte and entry is rolled back on the real
/// filesystem, which is exactly the state a kernel crash could leave behind.
///
/// Usage pattern for systematic crash testing:
///
/// ```cpp
///   FaultInjectionFileSystem fs;            // dry run: count barriers
///   RunWorkload(&fs);                       // N = fs.sync_count()
///   for (uint64_t k = 1; k <= N; ++k) {
///     FaultInjectionFileSystem fs2;
///     fs2.PlanCrashAtSync(k);               // the k-th barrier fails...
///     RunWorkload(&fs2);                    // ...and every later op EIOs
///     ASSERT_TRUE(fs2.RealizeCrash().ok()); // drop un-synced state
///     ReopenAndVerify(&fs2);                // fs2 is pass-through again
///   }
/// ```
///
/// Directory-entry tracking starts at directories created through this
/// filesystem (or explicitly `SyncDir`ed); entries in untracked directories
/// (e.g. the system temp dir) are treated as immediately durable.
///
/// Not thread-safe; the crash-recovery tests are single-threaded by design
/// (determinism is the point).
class FaultInjectionFileSystem : public FileSystem {
 public:
  explicit FaultInjectionFileSystem(FileSystem* base = FileSystem::Default());
  ~FaultInjectionFileSystem() override;

  // --- FileSystem ---------------------------------------------------------
  Result<std::unique_ptr<File>> OpenFile(const std::string& path,
                                         bool create) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status RemoveFile(const std::string& path) override;
  Status MakeDir(const std::string& path) override;
  Status RemoveDir(const std::string& path) override;
  Status SyncDir(const std::string& path) override;
  Result<std::vector<std::string>> ListDir(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  bool DirExists(const std::string& path) override;

  // --- Fault controls -----------------------------------------------------

  /// Crash when the `k`-th sync barrier (File::Sync or SyncDir, 1-based,
  /// counted from construction/`RealizeCrash`) is requested: that sync
  /// fails without making anything durable and every subsequent operation
  /// returns IOError until `RealizeCrash`.
  void PlanCrashAtSync(uint64_t k);

  /// Number of sync barriers (file + directory) requested so far.
  uint64_t sync_count() const;

  bool crashed() const;

  /// At crash realization, keep this many bytes of each file's un-synced
  /// appended suffix instead of dropping it entirely — models a torn tail
  /// that made it partially to the platter.
  void set_keep_unsynced_prefix(uint64_t bytes);

  /// Per-call error injection: when the filter returns true the operation
  /// fails with IOError.  A failed write is *short*: half the buffer is
  /// written before the error, modelling a torn write.  A failed sync makes
  /// nothing durable.
  using FaultFilter = std::function<bool(FaultOp op, const std::string& path)>;
  void set_fault_filter(FaultFilter filter);

  /// Rolls the base filesystem back to the durable state: un-synced entry
  /// operations are undone (in reverse), every tracked file's content
  /// reverts to its last-synced image (plus any configured torn prefix).
  /// Afterwards the filesystem is usable again (pass-through, counters
  /// reset).  All `File` handles from before the crash must be closed
  /// first.
  Status RealizeCrash();

 private:
  struct Impl;
  friend class FaultInjectionFile;
  std::shared_ptr<Impl> impl_;
};

}  // namespace temporadb

#endif  // TEMPORADB_STORAGE_FAULT_INJECTION_H_
