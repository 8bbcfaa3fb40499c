#ifndef TEMPORADB_STORAGE_FS_H_
#define TEMPORADB_STORAGE_FS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace temporadb {

/// A positioned read/write file handle.
///
/// Writes land in the OS cache (or a fault-injection shadow); nothing is
/// durable until `Sync` returns OK.  This is the seam the fault-injection
/// layer interposes on: every byte the storage stack persists flows through
/// a `File`, so a simulated crash knows exactly which bytes were synced.
class File {
 public:
  virtual ~File() = default;

  /// Reads up to `n` bytes at `offset`; returns the count actually read
  /// (short only at end-of-file).
  virtual Result<size_t> ReadAt(uint64_t offset, char* buf, size_t n) = 0;

  /// Writes exactly `n` bytes at `offset`, extending the file if needed.
  virtual Status WriteAt(uint64_t offset, const char* data, size_t n) = 0;

  /// Shrinks (or extends with zeros) the file to `size` bytes.
  virtual Status Truncate(uint64_t size) = 0;

  /// Durability barrier: all preceding writes and truncations survive a
  /// crash once this returns OK.  A failed sync promises nothing.
  virtual Status Sync() = 0;

  virtual Result<uint64_t> Size() = 0;
};

/// Filesystem operations used by the storage stack (WAL, checkpoints).  `Default()` is the real POSIX filesystem; tests wrap it in
/// a `FaultInjectionFileSystem` to prove crash safety.
///
/// Durability contract mirrors POSIX: file data needs `File::Sync`; a
/// created or renamed *directory entry* needs `SyncDir` on the parent before
/// it is guaranteed to survive a crash.
class FileSystem {
 public:
  virtual ~FileSystem() = default;

  /// The process-wide POSIX filesystem.
  static FileSystem* Default();

  /// Opens `path` read-write; creates it when `create` is set.  Missing
  /// file without `create` is NotFound.
  virtual Result<std::unique_ptr<File>> OpenFile(const std::string& path,
                                                 bool create) = 0;

  virtual Status RenameFile(const std::string& from,
                            const std::string& to) = 0;
  virtual Status RemoveFile(const std::string& path) = 0;

  virtual Status MakeDir(const std::string& path) = 0;
  /// Removes an empty directory.
  virtual Status RemoveDir(const std::string& path) = 0;
  /// fsync on the directory: persists entry creations/renames/removals.
  virtual Status SyncDir(const std::string& path) = 0;
  /// Entry names (no "." / ".."); NotFound for a missing directory.
  virtual Result<std::vector<std::string>> ListDir(const std::string& path) = 0;

  virtual bool FileExists(const std::string& path) = 0;
  virtual bool DirExists(const std::string& path) = 0;
};

/// Reads the whole file; NotFound if it does not exist.
Result<std::string> ReadFileToString(FileSystem* fs, const std::string& path);

/// Crash-safe whole-file replace: writes `path + ".tmp"`, fsyncs it, renames
/// over `path`, then fsyncs the parent directory.  After OK, a crash yields
/// either the old content or the new content, never a torn or empty file.
Status WriteFileDurable(FileSystem* fs, const std::string& path,
                        std::string_view content);

/// Removes every entry in `path` and the directory itself.  OK if already
/// gone.
Status RemoveDirRecursive(FileSystem* fs, const std::string& path);

/// The parent directory of `path` ("." when there is no separator).
std::string DirName(const std::string& path);

}  // namespace temporadb

#endif  // TEMPORADB_STORAGE_FS_H_
