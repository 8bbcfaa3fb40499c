// Unit tests for the fault-injection I/O layer itself: un-synced data and
// directory entries vanish at a simulated crash, synced state survives,
// torn tails and per-call faults behave as configured.

#include "storage/fault_injection.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

namespace temporadb {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  FaultInjectionTest() {
    root_ = testing::TempDir() + "/tdb_fault_" + std::to_string(::getpid()) +
            "_" + std::to_string(counter_++);
    std::filesystem::remove_all(root_);
    // Create the root through the fault filesystem so its entries are
    // sync-gated, exactly like a database directory.
    EXPECT_TRUE(fs_.MakeDir(root_).ok());
  }
  ~FaultInjectionTest() override { std::filesystem::remove_all(root_); }

  std::string ReadBase(const std::string& path) {
    Result<std::string> content = ReadFileToString(FileSystem::Default(), path);
    return content.ok() ? *content : "<missing>";
  }

  static int counter_;
  FaultInjectionFileSystem fs_;
  std::string root_;
};

int FaultInjectionTest::counter_ = 0;

TEST_F(FaultInjectionTest, UnsyncedWritesVanishAtCrash) {
  std::string path = root_ + "/f";
  {
    auto file = fs_.OpenFile(path, /*create=*/true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->WriteAt(0, "durable", 7).ok());
    ASSERT_TRUE((*file)->Sync().ok());
    ASSERT_TRUE(fs_.SyncDir(root_).ok());
    ASSERT_TRUE((*file)->WriteAt(7, "-lost", 5).ok());
  }
  ASSERT_TRUE(fs_.RealizeCrash().ok());
  EXPECT_EQ(ReadBase(path), "durable");
}

TEST_F(FaultInjectionTest, TornTailKeepsConfiguredPrefix) {
  std::string path = root_ + "/f";
  {
    auto file = fs_.OpenFile(path, /*create=*/true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->WriteAt(0, "0123456789", 10).ok());
    ASSERT_TRUE((*file)->Sync().ok());
    ASSERT_TRUE(fs_.SyncDir(root_).ok());
    ASSERT_TRUE((*file)->WriteAt(10, "ABCDEF", 6).ok());
  }
  fs_.set_keep_unsynced_prefix(3);
  ASSERT_TRUE(fs_.RealizeCrash().ok());
  // Three bytes of the un-synced suffix made it to the platter.
  EXPECT_EQ(ReadBase(path), "0123456789ABC");
}

TEST_F(FaultInjectionTest, CreatedFileNeedsSyncDirToSurvive) {
  std::string path = root_ + "/f";
  {
    auto file = fs_.OpenFile(path, /*create=*/true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->WriteAt(0, "content", 7).ok());
    // The file's *data* is synced, but its directory entry is not.
    ASSERT_TRUE((*file)->Sync().ok());
  }
  ASSERT_TRUE(fs_.RealizeCrash().ok());
  EXPECT_FALSE(FileSystem::Default()->FileExists(path));
}

TEST_F(FaultInjectionTest, UnsyncedRenameRollsBackToOldContent) {
  std::string target = root_ + "/CURRENT";
  std::string tmp = root_ + "/CURRENT.tmp";
  {
    auto file = fs_.OpenFile(target, /*create=*/true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->WriteAt(0, "old", 3).ok());
    ASSERT_TRUE((*file)->Sync().ok());
  }
  ASSERT_TRUE(fs_.SyncDir(root_).ok());
  {
    auto file = fs_.OpenFile(tmp, /*create=*/true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->WriteAt(0, "new", 3).ok());
    ASSERT_TRUE((*file)->Sync().ok());
  }
  ASSERT_TRUE(fs_.RenameFile(tmp, target).ok());
  // No SyncDir: the rename is metadata that a crash throws away.
  ASSERT_TRUE(fs_.RealizeCrash().ok());
  EXPECT_EQ(ReadBase(target), "old");
  EXPECT_FALSE(FileSystem::Default()->FileExists(tmp));
}

TEST_F(FaultInjectionTest, SyncDirMakesRenameDurable) {
  std::string target = root_ + "/CURRENT";
  std::string tmp = root_ + "/CURRENT.tmp";
  {
    auto file = fs_.OpenFile(target, /*create=*/true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->WriteAt(0, "old", 3).ok());
    ASSERT_TRUE((*file)->Sync().ok());
  }
  ASSERT_TRUE(fs_.SyncDir(root_).ok());
  {
    auto file = fs_.OpenFile(tmp, /*create=*/true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->WriteAt(0, "new", 3).ok());
    ASSERT_TRUE((*file)->Sync().ok());
  }
  ASSERT_TRUE(fs_.RenameFile(tmp, target).ok());
  ASSERT_TRUE(fs_.SyncDir(root_).ok());
  ASSERT_TRUE(fs_.RealizeCrash().ok());
  EXPECT_EQ(ReadBase(target), "new");
  EXPECT_FALSE(FileSystem::Default()->FileExists(tmp));
}

TEST_F(FaultInjectionTest, PlannedCrashFailsTheSyncAndEverythingAfter) {
  std::string path = root_ + "/f";
  auto file = fs_.OpenFile(path, /*create=*/true);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->WriteAt(0, "a", 1).ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE(fs_.SyncDir(root_).ok());
  uint64_t counted = fs_.sync_count();
  EXPECT_GE(counted, 2u);

  fs_.PlanCrashAtSync(1);  // The very next barrier.
  ASSERT_TRUE((*file)->WriteAt(1, "b", 1).ok());
  Status failed_sync = (*file)->Sync();
  EXPECT_TRUE(failed_sync.IsIOError()) << failed_sync.ToString();
  EXPECT_TRUE(fs_.crashed());
  // Every later operation fails until the crash is realized.
  EXPECT_TRUE((*file)->WriteAt(2, "c", 1).IsIOError());
  EXPECT_FALSE(fs_.OpenFile(root_ + "/other", true).ok());

  file->reset();
  ASSERT_TRUE(fs_.RealizeCrash().ok());
  EXPECT_FALSE(fs_.crashed());
  // The write guarded by the failed sync never became durable.
  EXPECT_EQ(ReadBase(path), "a");
  // The filesystem is usable again.
  EXPECT_TRUE(fs_.OpenFile(root_ + "/other", true).ok());
}

TEST_F(FaultInjectionTest, FaultFilterInjectsShortWrites) {
  std::string path = root_ + "/f";
  auto file = fs_.OpenFile(path, /*create=*/true);
  ASSERT_TRUE(file.ok());
  fs_.set_fault_filter([&](FaultOp op, const std::string& p) {
    return op == FaultOp::kWrite && p == path;
  });
  Status torn = (*file)->WriteAt(0, "0123456789", 10);
  EXPECT_TRUE(torn.IsIOError());
  fs_.set_fault_filter(nullptr);
  // Half the buffer landed: a torn write, not an atomic failure.
  Result<uint64_t> size = (*file)->Size();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 5u);
}

}  // namespace
}  // namespace temporadb
