// Durability tests: WAL replay, checkpoints, recovery after "crashes"
// (dropping the Database object without checkpointing), and torn-log
// handling — all through the public Database API.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "core/database.h"
#include "core/paper_scenario.h"
#include "storage/fault_injection.h"

namespace temporadb {
namespace {

class PersistenceTest : public ::testing::Test {
 protected:
  PersistenceTest() {
    dir_ = testing::TempDir() + "/tdb_persist_" + std::to_string(::getpid()) +
           "_" + std::to_string(counter_++);
    std::filesystem::remove_all(dir_);
    clock_.SetDate("01/01/80").ok();
  }
  ~PersistenceTest() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<Database> Open() {
    DatabaseOptions options;
    options.path = dir_;
    options.clock = &clock_;
    Result<std::unique_ptr<Database>> db = Database::Open(options);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return std::move(*db);
  }

  static int counter_;
  std::string dir_;
  ManualClock clock_;
};

int PersistenceTest::counter_ = 0;

TEST_F(PersistenceTest, DdlAndDmlSurviveReopen) {
  {
    auto db = Open();
    ASSERT_TRUE(
        db->Execute("create temporal relation t (name = string)").ok());
    ASSERT_TRUE(db->Execute("append to t (name = \"alpha\")").ok());
    ASSERT_TRUE(db->Execute("append to t (name = \"beta\")").ok());
    EXPECT_GT(db->WalBytes(), 0u);
  }  // "Crash": no checkpoint.
  {
    auto db = Open();
    ASSERT_TRUE(db->Execute("range of x is t").ok());
    Result<Rowset> rows = db->Query("retrieve (x.name)");
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(rows->size(), 2u);
  }
}

TEST_F(PersistenceTest, AbortedTransactionsAreNotReplayed) {
  {
    auto db = Open();
    ASSERT_TRUE(db->Execute("create relation t (n = int)").ok());
    ASSERT_TRUE(db->Execute("append to t (n = 1)").ok());
    Result<Transaction*> txn = db->Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(db->Execute("append to t (n = 2)").ok());
    ASSERT_TRUE(db->Abort(*txn).ok());
  }
  {
    auto db = Open();
    ASSERT_TRUE(db->Execute("range of x is t").ok());
    EXPECT_EQ(db->Query("retrieve (x.n)")->size(), 1u);
  }
}

TEST_F(PersistenceTest, CheckpointTruncatesWalAndSurvives) {
  {
    auto db = Open();
    ASSERT_TRUE(
        db->Execute("create temporal relation t (name = string)").ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(db->Execute("append to t (name = \"n" +
                              std::to_string(i) + "\")")
                      .ok());
    }
    uint64_t wal_before = db->WalBytes();
    ASSERT_TRUE(db->Checkpoint().ok());
    EXPECT_LT(db->WalBytes(), wal_before);
    // Only the log header (carrying the resume LSN) remains.
    EXPECT_EQ(db->WalBytes(), WriteAheadLog::kHeaderSize);
    // Post-checkpoint traffic goes to the fresh WAL.
    ASSERT_TRUE(db->Execute("append to t (name = \"after\")").ok());
  }
  {
    auto db = Open();
    ASSERT_TRUE(db->Execute("range of x is t").ok());
    EXPECT_EQ(db->Query("retrieve (x.name)")->size(), 21u);
  }
}

TEST_F(PersistenceTest, RepeatedCheckpointsGcOldDirectories) {
  auto db = Open();
  ASSERT_TRUE(db->Execute("create relation t (n = int)").ok());
  for (int round = 1; round <= 3; ++round) {
    ASSERT_TRUE(
        db->Execute("append to t (n = " + std::to_string(round) + ")").ok());
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  int ckpt_dirs = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().filename().string().rfind("ckpt-", 0) == 0) {
      ++ckpt_dirs;
    }
  }
  EXPECT_EQ(ckpt_dirs, 1);
  ASSERT_TRUE(db->Execute("range of x is t").ok());
  EXPECT_EQ(db->Query("retrieve (x.n)")->size(), 3u);
}

TEST_F(PersistenceTest, BitemporalSemanticsSurviveCheckpointAndReplay) {
  // The full paper scenario, checkpointed mid-history, crashed, reopened:
  // every as-of answer must be identical.
  {
    auto db = Open();
    ASSERT_TRUE(
        db->Execute("create temporal relation faculty "
                    "(name = string, rank = string)")
            .ok());
    ASSERT_TRUE(db->Execute("range of f is faculty").ok());
    clock_.SetDate("08/25/77").ok();
    ASSERT_TRUE(db->Execute("append to faculty (name = \"Merrie\", "
                            "rank = \"associate\") "
                            "valid from \"09/01/77\" to \"inf\"")
                    .ok());
    ASSERT_TRUE(db->Checkpoint().ok());  // Mid-history checkpoint.
    clock_.SetDate("12/15/82").ok();
    ASSERT_TRUE(db->Execute("replace f (rank = \"full\") "
                            "valid from \"12/01/82\" to \"inf\" "
                            "where f.name = \"Merrie\"")
                    .ok());
  }
  {
    auto db = Open();
    ASSERT_TRUE(db->Execute("range of f is faculty").ok());
    Result<Rowset> before = db->Query(
        "retrieve (f.rank) where f.name = \"Merrie\" as of \"12/10/82\" "
        "when f overlap \"12/05/82\"");
    ASSERT_TRUE(before.ok()) << before.status().ToString();
    ASSERT_EQ(before->size(), 1u);
    EXPECT_EQ(before->rows()[0].values[0].AsString(), "associate");
    Result<Rowset> after = db->Query(
        "retrieve (f.rank) where f.name = \"Merrie\" as of \"12/20/82\" "
        "when f overlap \"12/05/82\"");
    ASSERT_TRUE(after.ok());
    ASSERT_EQ(after->size(), 1u);
    EXPECT_EQ(after->rows()[0].values[0].AsString(), "full");
  }
}

TEST_F(PersistenceTest, HistoricalTombstonesSurvive) {
  {
    auto db = Open();
    ASSERT_TRUE(
        db->Execute("create historical relation h (name = string)").ok());
    ASSERT_TRUE(db->Execute("append to h (name = \"keep\")").ok());
    ASSERT_TRUE(db->Execute("append to h (name = \"erase\")").ok());
    ASSERT_TRUE(db->Execute("range of x is h").ok());
    ASSERT_TRUE(db->Execute("correct x where x.name = \"erase\"").ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    // More traffic referencing post-tombstone row ids.
    ASSERT_TRUE(db->Execute("append to h (name = \"later\")").ok());
  }
  {
    auto db = Open();
    ASSERT_TRUE(db->Execute("range of x is h").ok());
    Result<Rowset> rows = db->Query("retrieve (x.name)");
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->size(), 2u);
  }
}

TEST_F(PersistenceTest, TornWalTailDropsOnlyUncommittedSuffix) {
  {
    auto db = Open();
    ASSERT_TRUE(db->Execute("create relation t (n = int)").ok());
    ASSERT_TRUE(db->Execute("append to t (n = 1)").ok());
    ASSERT_TRUE(db->Execute("append to t (n = 2)").ok());
  }
  // Tear the last few bytes of the WAL, clipping the final commit.
  {
    std::string wal_path = dir_ + "/wal.log";
    std::FILE* f = std::fopen(wal_path.c_str(), "r+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    ASSERT_EQ(::ftruncate(fileno(f), size - 5), 0);
    std::fclose(f);
  }
  {
    auto db = Open();
    ASSERT_TRUE(db->Execute("range of x is t").ok());
    // The second append's commit record was torn: only one row survives.
    EXPECT_EQ(db->Query("retrieve (x.n)")->size(), 1u);
    // The database remains writable.
    ASSERT_TRUE(db->Execute("append to t (n = 3)").ok());
    EXPECT_EQ(db->Query("retrieve (x.n)")->size(), 2u);
  }
}

TEST_F(PersistenceTest, CompactingCheckpointReclaimsTombstones) {
  {
    auto db = Open();
    ASSERT_TRUE(
        db->Execute("create historical relation h (name = string)").ok());
    ASSERT_TRUE(db->Execute("range of x is h").ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(
          db->Execute("append to h (name = \"n" + std::to_string(i) + "\")")
              .ok());
    }
    // Erase most of them, leaving tombstone slots behind.
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(db->Execute("correct x where x.name = \"n" +
                              std::to_string(i) + "\"")
                      .ok());
    }
    Result<StoredRelation*> rel = db->GetRelation("h");
    ASSERT_TRUE(rel.ok());
    EXPECT_EQ((*rel)->store()->version_count(), 10u);
    EXPECT_EQ((*rel)->store()->live_count(), 2u);
    ASSERT_TRUE(db->Checkpoint(/*compact=*/true).ok());
    EXPECT_EQ((*rel)->store()->version_count(), 2u);
    // Post-compaction traffic uses the renumbered ids.
    ASSERT_TRUE(db->Execute("append to h (name = \"after\")").ok());
    ASSERT_TRUE(db->Execute("correct x where x.name = \"n8\"").ok());
  }
  {
    auto db = Open();
    ASSERT_TRUE(db->Execute("range of x is h").ok());
    Result<Rowset> rows = db->Query("retrieve (x.name)");
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(rows->size(), 2u);  // n9 and "after".
    Result<StoredRelation*> rel = db->GetRelation("h");
    ASSERT_TRUE(rel.ok());
    // 2 compacted survivors + 1 append; the post-checkpoint correction
    // tombstoned one of them in the WAL replay.
    EXPECT_EQ((*rel)->store()->version_count(), 3u);
  }
}

TEST_F(PersistenceTest, CompactionPreservesIndexes) {
  auto db = Open();
  ASSERT_TRUE(
      db->Execute("create historical relation h (name = string)").ok());
  ASSERT_TRUE(db->Execute("create index on h (name)").ok());
  ASSERT_TRUE(db->Execute("range of x is h").ok());
  ASSERT_TRUE(db->Execute("append to h (name = \"keep\")").ok());
  ASSERT_TRUE(db->Execute("append to h (name = \"drop\")").ok());
  ASSERT_TRUE(db->Execute("correct x where x.name = \"drop\"").ok());
  ASSERT_TRUE(db->Checkpoint(/*compact=*/true).ok());
  // Index probes still answer correctly after the rebuild.
  Result<Rowset> rows = db->Query("retrieve (x.name) where x.name = \"keep\"");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
  EXPECT_EQ(db->Query("retrieve (x.name) where x.name = \"drop\"")->size(),
            0u);
}

TEST_F(PersistenceTest, DropRelationSurvivesReopen) {
  {
    auto db = Open();
    ASSERT_TRUE(db->Execute("create relation a (n = int)").ok());
    ASSERT_TRUE(db->Execute("create relation b (n = int)").ok());
    ASSERT_TRUE(db->Execute("destroy a").ok());
  }
  {
    auto db = Open();
    EXPECT_TRUE(db->GetRelation("a").status().IsNotFound());
    EXPECT_TRUE(db->GetRelation("b").ok());
  }
}

TEST_F(PersistenceTest, RecoveredClockNeverRegresses) {
  {
    auto db = Open();
    clock_.SetDate("12/15/82").ok();
    ASSERT_TRUE(db->Execute("create rollback relation r (n = int)").ok());
    ASSERT_TRUE(db->Execute("append to r (n = 1)").ok());
  }
  // Reopen with the clock reset to an earlier date; recovered transaction
  // timestamps must clamp it.
  clock_.SetDate("01/01/80").ok();
  {
    auto db = Open();
    ASSERT_TRUE(db->Execute("range of x is r").ok());
    ASSERT_TRUE(db->Execute("append to r (n = 2)").ok());
    Result<StoredRelation*> rel = db->GetRelation("r");
    ASSERT_TRUE(rel.ok());
    Chronon min_allowed = Date::Parse("12/15/82")->chronon();
    (*rel)->store()->ForEach([&](RowId, const BitemporalTuple& t) {
      EXPECT_GE(t.txn.begin(), min_allowed);
    });
  }
}

// Shared workload for the targeted checkpoint-crash tests: one relation,
// five synced commits, then a checkpoint.  Returns the checkpoint status
// and reports the barrier count before/after it.
void RunCheckpointWorkload(FaultInjectionFileSystem* fs,
                           const std::string& dir, ManualClock* clock,
                           uint64_t* barriers_before_checkpoint,
                           Status* checkpoint_status) {
  DatabaseOptions options;
  options.path = dir;
  options.clock = clock;
  options.fs = fs;
  Result<std::unique_ptr<Database>> db = Database::Open(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->Execute("create relation t (n = int)").ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        (*db)->Execute("append to t (n = " + std::to_string(i) + ")").ok());
  }
  *barriers_before_checkpoint = fs->sync_count();
  *checkpoint_status = (*db)->Checkpoint();
}

void ExpectFiveRows(FaultInjectionFileSystem* fs, const std::string& dir,
                    ManualClock* clock, bool expect_writable) {
  DatabaseOptions options;
  options.path = dir;
  options.clock = clock;
  options.fs = fs;
  Result<std::unique_ptr<Database>> db = Database::Open(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->Execute("range of x is t").ok());
  Result<Rowset> rows = (*db)->Query("retrieve (x.n)");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  // Exactly the five acknowledged commits: nothing lost, nothing
  // double-applied.
  EXPECT_EQ(rows->size(), 5u);
  Result<StoredRelation*> rel = (*db)->GetRelation("t");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ((*rel)->store()->version_count(), 5u);
  if (expect_writable) {
    ASSERT_TRUE((*db)->Execute("append to t (n = 99)").ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
    EXPECT_EQ((*db)->Query("retrieve (x.n)")->size(), 6u);
  }
}

TEST_F(PersistenceTest, CrashBetweenCurrentPublishAndWalTruncate) {
  // Dry run: the checkpoint's final barrier is the WAL-truncation fsync.
  uint64_t last_barrier = 0;
  {
    FaultInjectionFileSystem fs;
    uint64_t before = 0;
    Status ckpt;
    RunCheckpointWorkload(&fs, dir_, &clock_, &before, &ckpt);
    ASSERT_TRUE(ckpt.ok()) << ckpt.ToString();
    last_barrier = fs.sync_count();
    ASSERT_GT(last_barrier, before);
  }
  std::filesystem::remove_all(dir_);
  // Crash run: CURRENT (with its resume LSN) is durable, the WAL still
  // holds every pre-checkpoint record.  Recovery must not replay them on
  // top of the checkpoint image.
  FaultInjectionFileSystem fs;
  fs.PlanCrashAtSync(last_barrier);
  {
    uint64_t before = 0;
    Status ckpt;
    RunCheckpointWorkload(&fs, dir_, &clock_, &before, &ckpt);
    EXPECT_FALSE(ckpt.ok());
  }
  ASSERT_TRUE(fs.RealizeCrash().ok());
  ExpectFiveRows(&fs, dir_, &clock_, /*expect_writable=*/true);
}

TEST_F(PersistenceTest, CrashInTheMiddleOfCheckpointKeepsOldState) {
  // Crash at the first barrier inside Checkpoint (the catalog file's
  // fsync): CURRENT still names the old state, the WAL is intact, and
  // recovery must see exactly the pre-checkpoint database.
  uint64_t before = 0;
  {
    FaultInjectionFileSystem fs;
    Status ckpt;
    RunCheckpointWorkload(&fs, dir_, &clock_, &before, &ckpt);
    ASSERT_TRUE(ckpt.ok()) << ckpt.ToString();
  }
  std::filesystem::remove_all(dir_);
  FaultInjectionFileSystem fs;
  fs.PlanCrashAtSync(before + 1);
  {
    uint64_t ignored = 0;
    Status ckpt;
    RunCheckpointWorkload(&fs, dir_, &clock_, &ignored, &ckpt);
    EXPECT_FALSE(ckpt.ok());
  }
  ASSERT_TRUE(fs.RealizeCrash().ok());
  ExpectFiveRows(&fs, dir_, &clock_, /*expect_writable=*/true);
}

TEST_F(PersistenceTest, FailedCommitSyncIsNeverResurrected) {
  // A commit whose fsync fails must not become durable because a *later*
  // fsync succeeded; and after the failed fsync the database refuses
  // further commits until reopened.
  FaultInjectionFileSystem fs;
  {
    DatabaseOptions options;
    options.path = dir_;
    options.clock = &clock_;
    options.fs = &fs;
    Result<std::unique_ptr<Database>> db = Database::Open(options);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Execute("create relation t (n = int)").ok());
    ASSERT_TRUE((*db)->Execute("append to t (n = 1)").ok());
    std::string wal_path = dir_ + "/wal.log";
    fs.set_fault_filter([&](FaultOp op, const std::string& path) {
      return op == FaultOp::kSync && path == wal_path;
    });
    Result<tquel::ExecResult> failed = (*db)->Execute("append to t (n = 2)");
    EXPECT_FALSE(failed.ok());
    fs.set_fault_filter(nullptr);
    // The log is poisoned: further commits fail until reopen.
    Result<tquel::ExecResult> refused = (*db)->Execute("append to t (n = 3)");
    EXPECT_FALSE(refused.ok());
    EXPECT_TRUE(refused.status().IsFailedPrecondition())
        << refused.status().ToString();
  }
  {
    DatabaseOptions options;
    options.path = dir_;
    options.clock = &clock_;
    options.fs = &fs;
    Result<std::unique_ptr<Database>> db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->Execute("range of x is t").ok());
    // Only the acknowledged first append survives.
    EXPECT_EQ((*db)->Query("retrieve (x.n)")->size(), 1u);
    ASSERT_TRUE((*db)->Execute("append to t (n = 4)").ok());
    EXPECT_EQ((*db)->Query("retrieve (x.n)")->size(), 2u);
  }
}

TEST_F(PersistenceTest, TupleLargerThanEightKiBSurvivesCheckpoint) {
  const std::string big(9000, 'x');
  {
    auto db = Open();
    ASSERT_TRUE(
        db->Execute("create temporal relation t (name = string)").ok());
    ASSERT_TRUE(db->Execute("append to t (name = \"" + big + "\")").ok());
    Status ckpt = db->Checkpoint();
    ASSERT_TRUE(ckpt.ok()) << ckpt.ToString();
  }
  {
    auto db = Open();
    ASSERT_TRUE(db->Execute("range of x is t").ok());
    Result<Rowset> rows = db->Query("retrieve (x.name)");
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ASSERT_EQ(rows->size(), 1u);
    EXPECT_EQ(rows->rows()[0].values[0].AsString(), big);
  }
}

TEST_F(PersistenceTest, EmptyRelationRoundTrips) {
  {
    auto db = Open();
    ASSERT_TRUE(db->Execute("create temporal relation t (n = int)").ok());
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  {
    auto db = Open();
    Result<StoredRelation*> rel = db->GetRelation("t");
    ASSERT_TRUE(rel.ok()) << rel.status().ToString();
    EXPECT_EQ((*rel)->store()->version_count(), 0u);
    EXPECT_EQ((*rel)->store()->sealed_partition_count(), 0u);
    ASSERT_TRUE(db->Execute("append to t (n = 1)").ok());
  }
}

// Checkpoints a small relation and returns the path of its checkpoint file.
std::string CheckpointOneRelation(std::unique_ptr<Database> db,
                                  const std::string& dir) {
  EXPECT_TRUE(db->Execute("create relation t (n = int)").ok());
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(
        db->Execute("append to t (n = " + std::to_string(i) + ")").ok());
  }
  EXPECT_TRUE(db->Checkpoint().ok());
  uint64_t id = (*db->GetRelation("t"))->info().id;
  return dir + "/ckpt-1/rel-" + std::to_string(id) + ".tdb";
}

TEST_F(PersistenceTest, CorruptOrTruncatedRelationFileIsCorruption) {
  std::string path = CheckpointOneRelation(Open(), dir_);
  std::string good;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << path;
    good.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(good.size(), 8u);
  auto reopen_with = [&](const std::string& content) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(content.data(), static_cast<std::streamsize>(content.size()));
    }
    DatabaseOptions options;
    options.path = dir_;
    options.clock = &clock_;
    return Database::Open(options).status();
  };
  std::string flipped = good;
  flipped[flipped.size() / 2] ^= 0x01;
  Status s = reopen_with(flipped);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  s = reopen_with(good.substr(0, good.size() - 1));
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  // The intact file still loads.
  s = reopen_with(good);
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST_F(PersistenceTest, RelationFileSpanningSeveralChunksRoundTrips) {
  // The file is written in 64 KiB chunks with the checksum carried across
  // them; ~400 KiB of tuples spans several.
  const std::string pad(2000, 'p');
  std::string path;
  {
    auto db = Open();
    ASSERT_TRUE(db->Execute("create relation t (n = int, s = string)").ok());
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(db->Execute("append to t (n = " + std::to_string(i) +
                              ", s = \"" + pad + std::to_string(i) + "\")")
                      .ok());
    }
    ASSERT_TRUE(db->Checkpoint().ok());
    path = dir_ + "/ckpt-1/rel-" +
           std::to_string((*db->GetRelation("t"))->info().id) + ".tdb";
  }
  std::string good;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << path;
    good.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(good.size(), 8u + 4 * (64u << 10));
  {
    auto db = Open();
    ASSERT_TRUE(db->Execute("range of x is t").ok());
    Result<Rowset> rows = db->Query("retrieve (x.n, x.s)");
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ASSERT_EQ(rows->size(), 200u);
    for (int i = 0; i < 200; ++i) {
      EXPECT_EQ(rows->rows()[i].values[0].AsInt(), i);
      EXPECT_EQ(rows->rows()[i].values[1].AsString(), pad + std::to_string(i));
    }
  }
  // One flipped byte in the last chunk fails the checksum.
  std::string flipped = good;
  flipped[flipped.size() - 2] ^= 0x01;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(flipped.data(), static_cast<std::streamsize>(flipped.size()));
  }
  DatabaseOptions options;
  options.path = dir_;
  options.clock = &clock_;
  Status s = Database::Open(options).status();
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(PersistenceTest, MissingRelationFileIsAnError) {
  // A checkpoint without rel-<id>.tdb (for instance one written in an older
  // on-disk format) is refused with a status, not loaded as empty.
  std::string path = CheckpointOneRelation(Open(), dir_);
  std::filesystem::rename(path, path + ".old");
  DatabaseOptions options;
  options.path = dir_;
  options.clock = &clock_;
  EXPECT_FALSE(Database::Open(options).ok());
}

TEST_F(PersistenceTest, PaperScenarioPersistedEndToEnd) {
  {
    auto db = Open();
    ASSERT_TRUE(paper::Replay(db.get(), &clock_,
                              paper::FacultyScript("temporal")).ok());
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  {
    auto db = Open();
    Result<StoredRelation*> rel = db->GetRelation("faculty");
    ASSERT_TRUE(rel.ok());
    EXPECT_EQ((*rel)->store()->live_count(), 7u);  // Figure 8's seven rows.
  }
}

}  // namespace
}  // namespace temporadb
