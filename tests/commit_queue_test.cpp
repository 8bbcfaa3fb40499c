// WAL group commit under concurrent committers: contiguous, durable
// batches, fsync skipping for unsynced batches, and a barrier-wide fsync
// failure that every committer in the barrier observes.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "storage/fault_injection.h"
#include "storage/wal.h"

namespace temporadb {
namespace {

class CommitQueueTest : public ::testing::Test {
 protected:
  CommitQueueTest()
      : path_(testing::TempDir() + "/tdb_gc_" + std::to_string(::getpid()) +
              "_" +
              std::to_string(reinterpret_cast<uintptr_t>(this) & 0xFFFF) +
              ".log") {
    std::remove(path_.c_str());
  }
  ~CommitQueueTest() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(CommitQueueTest, SingleCommitterRoundTrips) {
  auto wal = WriteAheadLog::Open(path_);
  ASSERT_TRUE(wal.ok());
  CommitQueue queue(wal->get());
  std::vector<WalBatchEntry> batch(3);
  for (uint32_t i = 0; i < 3; ++i) {
    batch[i].type = i + 1;
    batch[i].payload = "r" + std::to_string(i);
  }
  ASSERT_TRUE(queue.Commit(batch, /*sync=*/true).ok());
  EXPECT_EQ(queue.barriers(), 1u);
  EXPECT_FALSE(queue.poisoned());
  std::vector<WalRecord> records;
  ASSERT_TRUE((*wal)
                  ->Replay(0,
                           [&](const WalRecord& rec) -> Status {
                             records.push_back(rec);
                             return Status::OK();
                           })
                  .ok());
  ASSERT_EQ(records.size(), 3u);
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(records[i].type, i + 1);
    EXPECT_EQ(records[i].payload, "r" + std::to_string(i));
  }
}

TEST_F(CommitQueueTest, ConcurrentBatchesAllDurableAndContiguous) {
  auto wal = WriteAheadLog::Open(path_);
  ASSERT_TRUE(wal.ok());
  CommitQueue queue(wal->get());
  constexpr size_t kThreads = 8;
  constexpr size_t kCommits = 25;
  constexpr size_t kRecords = 3;  // Per batch: begin, op, commit.
  std::vector<std::thread> committers;
  std::atomic<int> failures{0};
  for (size_t t = 0; t < kThreads; ++t) {
    committers.emplace_back([&queue, &failures, t] {
      for (size_t c = 0; c < kCommits; ++c) {
        std::vector<WalBatchEntry> batch(kRecords);
        for (size_t r = 0; r < kRecords; ++r) {
          batch[r].type = 1;
          batch[r].payload = "t" + std::to_string(t) + "-c" +
                             std::to_string(c) + "-r" + std::to_string(r);
        }
        if (!queue.Commit(batch, /*sync=*/true).ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& th : committers) th.join();
  EXPECT_EQ(failures.load(), 0);
  // With syncs this frequent at least some coalescing is possible but not
  // guaranteed; what IS guaranteed: one barrier per batch at most.
  EXPECT_GE(queue.barriers(), 1u);
  EXPECT_LE(queue.barriers(), kThreads * kCommits);

  std::vector<std::string> payloads;
  ASSERT_TRUE((*wal)
                  ->Replay(0,
                           [&](const WalRecord& rec) -> Status {
                             payloads.push_back(rec.payload);
                             return Status::OK();
                           })
                  .ok());
  ASSERT_EQ(payloads.size(), kThreads * kCommits * kRecords);
  // Each batch must be contiguous in the log, records in submission order;
  // and each thread's batches must appear in its submission order.
  std::vector<size_t> next_commit(kThreads, 0);
  for (size_t i = 0; i < payloads.size(); i += kRecords) {
    size_t dash = payloads[i].find('-');
    size_t t = std::stoul(payloads[i].substr(1, dash - 1));
    ASSERT_LT(t, kThreads);
    std::string prefix =
        "t" + std::to_string(t) + "-c" + std::to_string(next_commit[t]);
    for (size_t r = 0; r < kRecords; ++r) {
      ASSERT_EQ(payloads[i + r], prefix + "-r" + std::to_string(r))
          << "batch broken up at log position " << i + r;
    }
    ++next_commit[t];
  }
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(next_commit[t], kCommits) << "thread " << t;
  }
}

TEST_F(CommitQueueTest, UnsyncedBatchesSkipTheFsync) {
  FaultInjectionFileSystem fs;
  auto wal = WriteAheadLog::Open(&fs, path_);
  ASSERT_TRUE(wal.ok());
  // Every sync fails; a sync=false batch must not trigger one.
  fs.set_fault_filter(
      [](FaultOp op, const std::string&) { return op == FaultOp::kSync; });
  CommitQueue queue(wal->get());
  std::vector<WalBatchEntry> batch(1);
  batch[0].type = 1;
  batch[0].payload = "x";
  EXPECT_TRUE(queue.Commit(batch, /*sync=*/false).ok());
  EXPECT_FALSE(queue.poisoned());
  EXPECT_FALSE(queue.Commit(batch, /*sync=*/true).ok());
  EXPECT_TRUE(queue.poisoned());
}

TEST_F(CommitQueueTest, FailedBarrierFailsEveryCommitterInIt) {
  FaultInjectionFileSystem fs;
  auto wal = WriteAheadLog::Open(&fs, path_);
  ASSERT_TRUE(wal.ok());
  CommitQueue queue(wal->get());

  // The plan: a pathfinder batch whose (successful) fsync stalls until all
  // four committers are queued behind it, so they form ONE barrier — whose
  // own fsync then fails, and the failure must be observed by all four.
  constexpr int kCommitters = 4;
  std::atomic<int> entered{0};
  std::atomic<int> syncs{0};
  fs.set_fault_filter([&entered, &syncs](FaultOp op, const std::string&) {
    if (op != FaultOp::kSync) return false;
    if (syncs.fetch_add(1) == 0) {
      // Pathfinder's barrier: hold the queue open until every committer
      // announced itself, give the last one time to enqueue, then succeed.
      while (entered.load() < kCommitters) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      return false;
    }
    return true;  // The committers' shared barrier fails.
  });

  std::thread pathfinder([&queue] {
    std::vector<WalBatchEntry> batch(1);
    batch[0].type = 9;
    batch[0].payload = "pathfinder";
    EXPECT_TRUE(queue.Commit(batch, /*sync=*/true).ok());
  });
  // Wait for the pathfinder to become leader and block in its fsync; its
  // records are fully appended by then, so this offset is what a rewind of
  // the next (failing) barrier must restore.
  while (syncs.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const uint64_t durable_offset = (*wal)->append_offset();
  std::vector<std::thread> committers;
  std::vector<Status> results(kCommitters, Status::OK());
  for (int t = 0; t < kCommitters; ++t) {
    committers.emplace_back([&queue, &results, &entered, t] {
      std::vector<WalBatchEntry> batch(2);
      batch[0].type = 1;
      batch[0].payload = "t" + std::to_string(t) + "-begin";
      batch[1].type = 2;
      batch[1].payload = "t" + std::to_string(t) + "-commit";
      entered.fetch_add(1);
      results[t] = queue.Commit(batch, /*sync=*/true);
    });
  }
  pathfinder.join();
  for (std::thread& th : committers) th.join();

  // Every committer shared the one failed barrier: all must see the I/O
  // error itself, none the post-poison FailedPrecondition.
  EXPECT_EQ(queue.barriers(), 2u);
  for (int t = 0; t < kCommitters; ++t) {
    EXPECT_TRUE(results[t].IsIOError())
        << "committer " << t << ": " << results[t].message();
  }
  EXPECT_TRUE(queue.poisoned());
  // The whole barrier was rewound: only the pathfinder's record survives,
  // and nothing of the failed barrier can become durable later.
  EXPECT_EQ((*wal)->append_offset(), durable_offset);
  size_t replayed = 0;
  ASSERT_TRUE((*wal)
                  ->Replay(0,
                           [&](const WalRecord& rec) -> Status {
                             ++replayed;
                             EXPECT_EQ(rec.payload, "pathfinder");
                             return Status::OK();
                           })
                  .ok());
  EXPECT_EQ(replayed, 1u);
  // And the poisoned queue rejects new work with the reopen message.
  std::vector<WalBatchEntry> batch(1);
  batch[0].type = 1;
  batch[0].payload = "late";
  Status late = queue.Commit(batch, /*sync=*/true);
  EXPECT_EQ(late.code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace temporadb
