// Parallel execution: the thread pool, the morsel driver, bit-identical
// parallel version scans across thread counts, and WAL group commit under
// concurrent committers (including a barrier-wide fsync failure).

#include "exec/parallel_scan.h"
#include "exec/thread_pool.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/database.h"
#include "storage/fault_injection.h"
#include "storage/wal.h"
#include "temporal/version_store.h"
#include "txn/clock.h"
#include "txn/txn_manager.h"

namespace temporadb {
namespace {

// --- ThreadPool -----------------------------------------------------------

TEST(ThreadPoolTest, ParallelForVisitsEachIndexExactlyOnce) {
  exec::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> counts(kN);
  pool.ParallelFor(kN, [&](size_t i) { counts[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  exec::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<size_t> sum{0};
  pool.ParallelFor(100, [&](size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(ThreadPoolTest, ZeroClampsToOneThread) {
  exec::ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<int> ran{0};
  pool.ParallelFor(3, [&](size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPoolTest, NestedCallFromWorkerRunsInline) {
  // A worker issuing ParallelFor on its own pool must not deadlock
  // waiting for itself; the nested call runs inline on that worker.
  exec::ThreadPool pool(4);
  std::atomic<size_t> total{0};
  pool.ParallelFor(8, [&](size_t) {
    pool.ParallelFor(100, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 800u);
}

TEST(ThreadPoolTest, ReusableAcrossManyJobs) {
  exec::ThreadPool pool(3);
  for (size_t n : {1u, 7u, 64u, 1000u, 3u, 0u, 257u}) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(n, [&](size_t i) { sum.fetch_add(i + 1); });
    EXPECT_EQ(sum.load(), n * (n + 1) / 2) << "n=" << n;
  }
}

TEST(ThreadPoolTest, ConcurrentCallersSerializeCorrectly) {
  // Multiple threads sharing one pool: each job's indices must go to that
  // job only.
  exec::ThreadPool pool(4);
  std::vector<std::thread> callers;
  std::vector<std::atomic<size_t>> sums(6);
  for (size_t c = 0; c < 6; ++c) {
    callers.emplace_back([&pool, &sums, c] {
      pool.ParallelFor(500, [&sums, c](size_t i) { sums[c].fetch_add(i); });
    });
  }
  for (std::thread& t : callers) t.join();
  for (size_t c = 0; c < 6; ++c) {
    EXPECT_EQ(sums[c].load(), 500u * 499u / 2) << "caller " << c;
  }
}

// --- Morsels --------------------------------------------------------------

TEST(MorselTest, RangesPartitionTheDomain) {
  for (size_t n : {0u, 1u, 2047u, 2048u, 2049u, 10000u}) {
    size_t morsels = exec::MorselCount(n);
    size_t expect_begin = 0;
    for (size_t m = 0; m < morsels; ++m) {
      auto [begin, end] = exec::MorselRange(m, n);
      EXPECT_EQ(begin, expect_begin) << "n=" << n << " m=" << m;
      EXPECT_GT(end, begin);
      expect_begin = end;
    }
    EXPECT_EQ(expect_begin, n) << "n=" << n;
  }
}

TEST(MorselTest, ParallelScanMatchesSequentialProbe) {
  // The generic driver must produce the same sequence with and without a
  // pool, for domains around the morsel-size boundaries.
  auto probe = [](size_t begin, size_t end, std::vector<size_t>* out) {
    for (size_t i = begin; i < end; ++i) {
      if (i % 3 == 0) out->push_back(i * 7);
    }
  };
  exec::ThreadPool pool(4);
  for (size_t n : {0u, 1u, 2048u, 5000u, 9999u}) {
    std::vector<size_t> seq = exec::ParallelScan<size_t>(nullptr, n, probe);
    std::vector<size_t> par = exec::ParallelScan<size_t>(&pool, n, probe);
    EXPECT_EQ(seq, par) << "n=" << n;
  }
}

// --- Bit-identical parallel version scans ---------------------------------

class ParallelVersionScanTest : public ::testing::Test {
 protected:
  ParallelVersionScanTest() : manager_(&clock_) {}

  // A seeded random bitemporal history: appends with random valid periods
  // (half open-ended), interleaved with transaction-time closes of random
  // earlier rows, committed in small transactions.
  void Populate(size_t n_ops, uint64_t seed) {
    Random rng(seed);
    int64_t day = 1000;
    size_t op = 0;
    while (op < n_ops) {
      clock_.SetTime(Chronon(day));
      Transaction* txn = *manager_.Begin();
      size_t batch = 1 + rng.Uniform(50);
      for (size_t i = 0; i < batch && op < n_ops; ++i, ++op) {
        if (store_.version_count() > 10 && rng.OneIn(4)) {
          RowId row = rng.Uniform(store_.version_count());
          // Fails on tombstones/closed rows; that is part of the chaos.
          (void)store_.CloseTxn(txn, row, Chronon(day));
        } else {
          BitemporalTuple t;
          t.values = {Value("e" + std::to_string(rng.Uniform(64))),
                      Value(static_cast<int64_t>(rng.Uniform(100000)))};
          int64_t from = 900 + static_cast<int64_t>(rng.Uniform(400));
          t.valid = rng.OneIn(2)
                        ? Period::From(Chronon(from))
                        : Period(Chronon(from),
                                 Chronon(from + 1 +
                                         static_cast<int64_t>(
                                             rng.Uniform(90))));
          t.txn = Period::From(Chronon(day));
          ASSERT_TRUE(store_.Append(txn, std::move(t)).ok());
        }
      }
      ASSERT_TRUE(manager_.Commit(txn).ok());
      day += 1 + static_cast<int64_t>(rng.Uniform(3));
    }
  }

  static std::vector<std::pair<RowId, BitemporalTuple>> Collect(
      VersionBatchScan scan) {
    std::vector<std::pair<RowId, BitemporalTuple>> out;
    VersionBatch batch;
    while (scan.Next(&batch)) {
      for (size_t i = 0; i < batch.size(); ++i) {
        out.emplace_back(batch.rows[i], *batch.tuples[i]);
      }
    }
    return out;
  }

  // The writer's head-pin scan of the store under `preds`.
  VersionBatchScan Scan(BatchPredicates preds = {}) const {
    return store_.BatchScan(store_.HeadPin(), preds);
  }

  // Runs every probe shape the figures exercise and returns their results
  // concatenated, so one comparison covers the plain sweep, each time
  // predicate alone, and predicates combined.
  std::vector<std::pair<RowId, BitemporalTuple>> RunProbes() {
    std::vector<std::pair<RowId, BitemporalTuple>> all;
    auto append = [&all](std::vector<std::pair<RowId, BitemporalTuple>> v) {
      all.insert(all.end(), v.begin(), v.end());
    };
    BatchPredicates current;
    current.txn_current = true;
    BatchPredicates asof;  // Rollback.
    asof.txn_contains = Chronon(1100);
    BatchPredicates through;
    through.txn_overlaps = Period(Chronon(1050), Chronon(1200));
    BatchPredicates slice;  // Timeslice.
    slice.valid_overlaps = Period(Chronon(1000), Chronon(1060));
    BatchPredicates current_window = current;
    current_window.valid_overlaps = Period(Chronon(950), Chronon(1300));
    BatchPredicates stab;
    stab.valid_overlaps = Period(Chronon(1000), Chronon(1001));
    append(Collect(Scan()));
    append(Collect(Scan(current)));
    append(Collect(Scan(asof)));
    append(Collect(Scan(through)));
    append(Collect(Scan(slice)));
    append(Collect(Scan(current_window)));
    append(Collect(Scan(stab)));
    return all;
  }

  ManualClock clock_;
  TxnManager manager_;
  VersionStore store_;
};

TEST_F(ParallelVersionScanTest, BitIdenticalAcrossThreadCounts) {
  Populate(6000, /*seed=*/42);
  store_.ConfigureParallel(nullptr);
  std::vector<std::pair<RowId, BitemporalTuple>> baseline = RunProbes();
  ASSERT_FALSE(baseline.empty());
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    exec::ThreadPool pool(threads);
    // min_rows=1 forces the morsel path even for tiny stores.
    store_.ConfigureParallel(&pool, /*min_rows=*/1);
    std::vector<std::pair<RowId, BitemporalTuple>> got = RunProbes();
    ASSERT_EQ(got.size(), baseline.size()) << threads << " threads";
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].first, baseline[i].first)
          << threads << " threads, position " << i;
      ASSERT_TRUE(got[i].second == baseline[i].second)
          << threads << " threads, position " << i;
    }
    store_.ConfigureParallel(nullptr);
  }
}

TEST_F(ParallelVersionScanTest, DifferentSeedsStayDeterministic) {
  Populate(3000, /*seed=*/7);
  store_.ConfigureParallel(nullptr);
  std::vector<std::pair<RowId, BitemporalTuple>> baseline = RunProbes();
  exec::ThreadPool pool(4);
  store_.ConfigureParallel(&pool, 1);
  // Repeated parallel runs must agree with each other too (no
  // scheduling-order dependence).
  for (int round = 0; round < 3; ++round) {
    std::vector<std::pair<RowId, BitemporalTuple>> got = RunProbes();
    ASSERT_EQ(got, baseline) << "round " << round;
  }
}

TEST_F(ParallelVersionScanTest, SmallDomainsStaySequential) {
  Populate(200, /*seed=*/3);
  exec::ThreadPool pool(4);
  store_.ConfigureParallel(&pool);  // Default threshold (4096) > 200 rows.
  std::vector<std::pair<RowId, BitemporalTuple>> a = Collect(Scan());
  store_.ConfigureParallel(nullptr);
  std::vector<std::pair<RowId, BitemporalTuple>> b = Collect(Scan());
  EXPECT_EQ(a, b);
}

// Figure 3–8 style probes through the full query stack: the same TQuel
// script and queries against a sequential and a parallel database must
// produce identical rowsets, in identical order (when-join included).
TEST(ParallelDatabaseTest, QueriesMatchSequentialDatabase) {
  auto build = [](ManualClock* clock, bool parallel) {
    DatabaseOptions options;
    options.clock = clock;
    if (parallel) {
      options.store_options.parallel_scan = true;
      options.store_options.parallel_min_rows = 1;
      options.max_threads = 4;
    }
    std::unique_ptr<Database> db = std::move(*Database::Open(options));
    EXPECT_TRUE(db->Execute("create temporal relation faculty "
                            "(name = string, rank = string)")
                    .ok());
    EXPECT_TRUE(db->Execute("create temporal relation committee "
                            "(name = string, chair = string)")
                    .ok());
    Random rng(99);
    const char* ranks[] = {"assistant", "associate", "full"};
    for (int i = 0; i < 120; ++i) {
      clock->SetTime(Chronon(4000 + i * 2));
      int64_t from = 3900 + static_cast<int64_t>(rng.Uniform(300));
      std::string stmt =
          "append to faculty (name = \"f" + std::to_string(i % 20) +
          "\", rank = \"" + ranks[rng.Uniform(3)] + "\") valid from \"" +
          Chronon(from).ToString() + "\" to \"" +
          Chronon(from + 30 + static_cast<int64_t>(rng.Uniform(200)))
              .ToString() +
          "\"";
      EXPECT_TRUE(db->Execute(stmt).ok()) << stmt;
      if (i % 3 == 0) {
        std::string cstmt =
            "append to committee (name = \"f" + std::to_string(i % 20) +
            "\", chair = \"c" + std::to_string(i % 5) + "\") valid from \"" +
            Chronon(from + 10).ToString() + "\" to \"" +
            Chronon(from + 60).ToString() + "\"";
        EXPECT_TRUE(db->Execute(cstmt).ok()) << cstmt;
      }
    }
    EXPECT_TRUE(db->Execute("range of f is faculty").ok());
    EXPECT_TRUE(db->Execute("range of c is committee").ok());
    return db;
  };
  ManualClock clock_seq, clock_par;
  std::unique_ptr<Database> seq = build(&clock_seq, false);
  std::unique_ptr<Database> par = build(&clock_par, true);

  const char* queries[] = {
      "retrieve (f.name, f.rank)",
      "retrieve (f.name) where f.rank = \"full\"",
      "retrieve (f.name, f.rank) when f overlap \"10/01/80\"",
      "retrieve (f.name, f.rank) as of \"12/01/81\"",
      "retrieve (f.name, c.chair) where f.name = c.name when f overlap c",
  };
  for (const char* q : queries) {
    Result<Rowset> a = seq->Query(q);
    Result<Rowset> b = par->Query(q);
    ASSERT_TRUE(a.ok()) << q << ": " << a.status().message();
    ASSERT_TRUE(b.ok()) << q << ": " << b.status().message();
    ASSERT_EQ(a->size(), b->size()) << q;
    for (size_t i = 0; i < a->size(); ++i) {
      ASSERT_TRUE(a->rows()[i] == b->rows()[i]) << q << " row " << i;
    }
  }
}

// --- Group commit ---------------------------------------------------------

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
