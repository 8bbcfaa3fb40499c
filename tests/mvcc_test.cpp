// MVCC read-snapshot tests: pinned readers stay bit-identical during
// concurrent committed writes, chronon columns stay in lock-step with the
// slots across corrections/compaction/reopen, and in-place history rewrites
// are fenced while snapshots are live.
//
// The concurrent tests here also run under TSan in CI (the job's regex
// matches "mvcc"); they are the data-race gate for the snapshot read path.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"

namespace temporadb {
namespace {

// Canonical multiset of (values, valid) — used to compare result sets whose
// transaction periods legitimately differ (a snapshot sees an open version
// where a later `as of` query sees the same version already closed).
std::vector<std::string> ValuesAndValid(const Rowset& rows) {
  std::vector<std::string> out;
  for (const Row& row : rows.rows()) {
    std::string s;
    for (const Value& v : row.values) s += v.ToString() + "|";
    if (row.valid.has_value()) s += row.valid->ToString();
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

class MvccTest : public ::testing::Test {
 protected:
  MvccTest() {
    dir_ = testing::TempDir() + "/tdb_mvcc_" + std::to_string(::getpid()) +
           "_" + std::to_string(counter_++);
    std::filesystem::remove_all(dir_);
    EXPECT_TRUE(clock_.SetDate("01/01/80").ok());
  }
  ~MvccTest() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<Database> Open(DatabaseOptions options = {}) {
    options.clock = &clock_;
    Result<std::unique_ptr<Database>> db = Database::Open(std::move(options));
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return std::move(*db);
  }

  static int counter_;
  std::string dir_;
  ManualClock clock_;
};

int MvccTest::counter_ = 0;

// ---------------------------------------------------------------------------
// Tentpole acceptance: a reader pinned to a snapshot returns bit-identical
// results before, during, and after concurrent committed writes, at reader
// thread counts {2, 4, 8}, and the pinned view equals a quiesced re-run at
// the pin's timestamp.
// ---------------------------------------------------------------------------

TEST_F(MvccTest, PinnedReadersAreBitIdenticalDuringConcurrentCommits) {
  auto db = Open();
  ASSERT_TRUE(db->Execute("create temporal relation emp "
                          "(name = string, rank = string)")
                  .ok());
  ASSERT_TRUE(db->Execute("range of e is emp").ok());
  for (int i = 0; i < 60; ++i) {
    if (i % 10 == 0) clock_.AdvanceDays(1);
    ASSERT_TRUE(db->Execute("append to emp (name = \"s" + std::to_string(i) +
                            "\", rank = \"seed\")")
                    .ok());
  }
  // A few pre-pin closes so the baseline itself contains closed history.
  ASSERT_TRUE(db->Execute("delete e where e.name = \"s0\"").ok());
  ASSERT_TRUE(db->Execute("delete e where e.name = \"s1\"").ok());

  Result<ReadSnapshot> snap = db->BeginReadSnapshot();
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  const std::string query = "retrieve (e.name, e.rank)";
  Result<Rowset> baseline = db->QueryAtSnapshot(*snap, query);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_GT(baseline->size(), 0u);
  const Chronon pin_ts = snap->timestamp();

  // Single writer thread: sustained committed appends and deletes, each
  // commit on a strictly later day than the pin.
  std::atomic<bool> stop{false};
  std::atomic<int> iterations{0};
  std::thread writer([&] {
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      clock_.AdvanceDays(1);
      ASSERT_TRUE(db->Execute("append to emp (name = \"w" +
                              std::to_string(i) + "\", rank = \"new\")")
                      .ok());
      ASSERT_TRUE(
          db->Execute("delete e where e.name = \"s" +
                      std::to_string(2 + (i % 58)) + "\"")
              .ok());
      iterations.store(++i, std::memory_order_relaxed);
    }
  });

  // Reader fleets at 2, 4, and 8 threads, all while the writer churns.
  for (int threads : {2, 4, 8}) {
    // Make sure writes really are interleaving with this fleet.
    const int start_iter = iterations.load(std::memory_order_relaxed);
    std::vector<std::thread> readers;
    std::atomic<int> mismatches{0};
    readers.reserve(threads);
    for (int t = 0; t < threads; ++t) {
      readers.emplace_back([&] {
        for (int round = 0; round < 25; ++round) {
          Result<Rowset> got = db->QueryAtSnapshot(*snap, query);
          if (!got.ok() || !Rowset::SameContent(*got, *baseline)) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
            return;
          }
        }
      });
    }
    for (std::thread& r : readers) r.join();
    EXPECT_EQ(mismatches.load(), 0) << "with " << threads << " readers";
    while (iterations.load(std::memory_order_relaxed) < start_iter + 3) {
      std::this_thread::yield();
    }
  }

  stop.store(true);
  writer.join();
  EXPECT_GT(iterations.load(), 0);

  // Still identical after the writer quiesces...
  Result<Rowset> after = db->QueryAtSnapshot(*snap, query);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(Rowset::SameContent(*after, *baseline));

  // ...and equal to a quiesced re-run `as of` the pin's timestamp (modulo
  // transaction periods: versions open at the pin have since been closed).
  Result<Rowset> asof = db->Query(query + " as of \"" +
                                  Date(pin_ts).ToString() + "\"");
  ASSERT_TRUE(asof.ok()) << asof.status().ToString();
  EXPECT_EQ(ValuesAndValid(*asof), ValuesAndValid(*baseline));

  // Releasing the pin surfaces the writer's world.
  snap->Release();
  Result<Rowset> fresh = db->Query(query);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(Rowset::SameContent(*fresh, *baseline));
}

TEST_F(MvccTest, SameDayCommitsStayInvisibleToAnEarlierPin) {
  // Chronons are day-granular, so visibility cannot ride on timestamps
  // alone: a close committed *after* the pin but on the *same day* must
  // stay invisible.  This is what the close-sequence stamps are for.
  auto db = Open();
  ASSERT_TRUE(
      db->Execute("create temporal relation t (name = string)").ok());
  ASSERT_TRUE(db->Execute("range of x is t").ok());
  ASSERT_TRUE(db->Execute("append to t (name = \"a\")").ok());

  Result<ReadSnapshot> snap = db->BeginReadSnapshot();
  ASSERT_TRUE(snap.ok());
  Result<Rowset> before = db->QueryAtSnapshot(*snap, "retrieve (x.name)");
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->size(), 1u);

  // Same day, post-pin: close "a", append "b".
  ASSERT_TRUE(db->Execute("delete x where x.name = \"a\"").ok());
  ASSERT_TRUE(db->Execute("append to t (name = \"b\")").ok());

  Result<Rowset> pinned = db->QueryAtSnapshot(*snap, "retrieve (x.name)");
  ASSERT_TRUE(pinned.ok());
  EXPECT_TRUE(Rowset::SameContent(*pinned, *before));
  ASSERT_EQ(pinned->size(), 1u);
  EXPECT_EQ(pinned->rows()[0].values[0].ToString(), "a");

  snap->Release();
  Result<Rowset> fresh = db->Query("retrieve (x.name)");
  ASSERT_TRUE(fresh.ok());
  ASSERT_EQ(fresh->size(), 1u);
  EXPECT_EQ(fresh->rows()[0].values[0].ToString(), "b");
}

TEST_F(MvccTest, PinSurvivesSlabAndColumnGrowth) {
  // Growth past the 1024-row slab boundary (and several column-buffer
  // doublings) must not move storage out from under a pinned reader.
  auto db = Open();
  ASSERT_TRUE(
      db->Execute("create temporal relation t (name = string)").ok());
  ASSERT_TRUE(db->Execute("range of x is t").ok());
  ASSERT_TRUE(db->Execute("append to t (name = \"first\")").ok());

  Result<ReadSnapshot> snap = db->BeginReadSnapshot();
  ASSERT_TRUE(snap.ok());
  Result<Rowset> baseline = db->QueryAtSnapshot(*snap, "retrieve (x.name)");
  ASSERT_TRUE(baseline.ok());
  ASSERT_EQ(baseline->size(), 1u);

  clock_.AdvanceDays(1);
  for (int i = 0; i < 2200; ++i) {
    ASSERT_TRUE(db->Execute("append to t (name = \"g" + std::to_string(i) +
                            "\")")
                    .ok());
  }
  Result<Rowset> pinned = db->QueryAtSnapshot(*snap, "retrieve (x.name)");
  ASSERT_TRUE(pinned.ok());
  EXPECT_TRUE(Rowset::SameContent(*pinned, *baseline));
  snap->Release();
  Result<Rowset> fresh = db->Query("retrieve (x.name)");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->size(), 2201u);
}

// ---------------------------------------------------------------------------
// Correction / compaction / DDL fences.
// ---------------------------------------------------------------------------

TEST_F(MvccTest, InPlaceRewritesAreFencedWhileSnapshotsArePinned) {
  DatabaseOptions options;
  options.path = dir_;
  auto db = Open(std::move(options));
  ASSERT_TRUE(
      db->Execute("create historical relation h (name = string)").ok());
  ASSERT_TRUE(db->Execute("range of x is h").ok());
  ASSERT_TRUE(db->Execute("append to h (name = \"keep\")").ok());
  ASSERT_TRUE(db->Execute("append to h (name = \"erase\")").ok());

  Result<ReadSnapshot> snap = db->BeginReadSnapshot();
  ASSERT_TRUE(snap.ok());

  // Historical correction: an in-place rewrite, refused while pinned.
  Result<tquel::ExecResult> correct =
      db->Execute("correct x where x.name = \"erase\"");
  EXPECT_EQ(correct.status().code(), StatusCode::kFailedPrecondition);

  // Compacting checkpoint renumbers rows: refused.  (A plain checkpoint is
  // append-only bookkeeping and stays legal.)
  EXPECT_EQ(db->Checkpoint(/*compact=*/true).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(db->Checkpoint(/*compact=*/false).ok());

  // DDL invalidates the snapshot's frozen catalog: refused.
  EXPECT_EQ(db->Execute("create static relation s2 (v = string)")
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(db->Execute("destroy h").status().code(),
            StatusCode::kFailedPrecondition);

  // The failed correction must not have leaked a raised fence: a fresh pin
  // still succeeds, and after release everything proceeds.
  snap->Release();
  ASSERT_TRUE(db->Execute("correct x where x.name = \"erase\"").ok());
  ASSERT_TRUE(db->Checkpoint(/*compact=*/true).ok());
  ASSERT_TRUE(db->Execute("create static relation s2 (v = string)").ok());
  Result<Rowset> rows = db->Query("retrieve (x.name)");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ(rows->rows()[0].values[0].ToString(), "keep");
}

// ---------------------------------------------------------------------------
// Differential: chronon columns mirror the slots exactly across physical
// corrections, tombstone compaction, and reopen-from-WAL; scans agree at
// every batch size.
// ---------------------------------------------------------------------------

// Asserts every chronon column entry equals the corresponding slot field.
void ExpectColumnsMirrorSlots(const VersionStore* store) {
  const int64_t* vf = store->chronon_valid_from();
  const int64_t* vt = store->chronon_valid_to();
  const int64_t* ts = store->chronon_tt_start();
  const int64_t* te = store->chronon_tt_end();
  const uint8_t* live = store->chronon_live();
  store->ForEachSlot([&](RowId row, const BitemporalTuple* tuple) {
    if (tuple == nullptr) {
      EXPECT_EQ(live[row], 0) << "row " << row;
      return;
    }
    EXPECT_EQ(live[row], 1) << "row " << row;
    EXPECT_EQ(vf[row], tuple->valid.begin().days()) << "row " << row;
    EXPECT_EQ(vt[row], tuple->valid.end().days()) << "row " << row;
    EXPECT_EQ(ts[row], tuple->txn.begin().days()) << "row " << row;
    EXPECT_EQ(te[row], tuple->txn.end().days()) << "row " << row;
  });
}

TEST_F(MvccTest, ColumnsMirrorSlotsAcrossCorrectionsCompactionAndReopen) {
  DatabaseOptions base;
  base.path = dir_;
  {
    auto db = Open(base);
    ASSERT_TRUE(db->Execute("create historical relation h "
                            "(name = string, note = string)")
                    .ok());
    ASSERT_TRUE(db->Execute("create temporal relation t (name = string)")
                    .ok());
    ASSERT_TRUE(db->Execute("range of x is h").ok());
    ASSERT_TRUE(db->Execute("range of y is t").ok());
    for (int i = 0; i < 40; ++i) {
      if (i % 7 == 0) clock_.AdvanceDays(1);
      std::string n = std::to_string(i);
      ASSERT_TRUE(db->Execute("append to h (name = \"h" + n +
                              "\", note = \"x\") valid from \"01/01/7" +
                              std::to_string(i % 10) + "\" to \"inf\"")
                      .ok());
      ASSERT_TRUE(db->Execute("append to t (name = \"t" + n + "\")").ok());
    }
    // Physical corrections punch tombstones into the historical store.
    for (int i = 0; i < 40; i += 3) {
      ASSERT_TRUE(db->Execute("correct x where x.name = \"h" +
                              std::to_string(i) + "\"")
                      .ok());
    }
    // Temporal closes exercise the in-place tt_end path.
    for (int i = 0; i < 40; i += 4) {
      clock_.AdvanceDays(1);
      ASSERT_TRUE(db->Execute("delete y where y.name = \"t" +
                              std::to_string(i) + "\"")
                      .ok());
    }
    ExpectColumnsMirrorSlots((*db->GetRelation("h"))->store());
    ExpectColumnsMirrorSlots((*db->GetRelation("t"))->store());
    // Compaction renumbers rows and must resync every column.
    ASSERT_TRUE(db->Checkpoint(/*compact=*/true).ok());
    ExpectColumnsMirrorSlots((*db->GetRelation("h"))->store());
    // Post-compaction appends land in the WAL for the reopen below.
    clock_.AdvanceDays(1);
    ASSERT_TRUE(db->Execute("append to t (name = \"late\")").ok());
  }  // "Crash": reopen loads the checkpoint and replays the WAL tail.

  // Reopen at batch sizes {7, 1024}, and check that every configuration
  // sees identical content and synced columns.
  std::optional<Rowset> reference_h, reference_t;
  for (size_t batch : {7u, 1024u}) {
    DatabaseOptions options = base;
    options.store_options.batch_rows = batch;
    auto db = Open(options);
    ExpectColumnsMirrorSlots((*db->GetRelation("h"))->store());
    ExpectColumnsMirrorSlots((*db->GetRelation("t"))->store());
    ASSERT_TRUE(db->Execute("range of x is h").ok());
    ASSERT_TRUE(db->Execute("range of y is t").ok());
    Result<Rowset> h = db->Query("retrieve (x.name)");
    Result<Rowset> t = db->Query(
        "retrieve (y.name) as of \"" + Date(clock_.Now()).ToString() +
        "\"");
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    if (!reference_h.has_value()) {
      reference_h = *h;
      reference_t = *t;
      continue;
    }
    EXPECT_TRUE(Rowset::SameContent(*h, *reference_h)) << "batch=" << batch;
    EXPECT_TRUE(Rowset::SameContent(*t, *reference_t)) << "batch=" << batch;
  }
}

// ---------------------------------------------------------------------------
// Store-level parity: with the writer quiesced, a snapshot scan yields
// exactly what a brute-force filter over every live version yields.
// ---------------------------------------------------------------------------

TEST_F(MvccTest, SnapshotScanMatchesBruteForceFilter) {
  auto db = Open();
  ASSERT_TRUE(
      db->Execute("create temporal relation t (name = string)").ok());
  ASSERT_TRUE(db->Execute("range of x is t").ok());
  for (int i = 0; i < 300; ++i) {
    if (i % 50 == 0) clock_.AdvanceDays(1);
    ASSERT_TRUE(
        db->Execute("append to t (name = \"n" + std::to_string(i) + "\")")
            .ok());
  }
  for (int i = 0; i < 300; i += 5) {
    ASSERT_TRUE(db->Execute("delete x where x.name = \"n" +
                            std::to_string(i) + "\"")
                    .ok());
  }
  Result<ReadSnapshot> snap = db->BeginReadSnapshot();
  ASSERT_TRUE(snap.ok());
  const VersionStore* store = (*db->GetRelation("t"))->store();
  SnapshotPin pin = snap->PinFor(store);
  ASSERT_GT(pin.rows, 0u);

  BatchPredicates preds;
  preds.txn_current = true;
  std::vector<const BitemporalTuple*> expected;
  store->ForEach([&](RowId, const BitemporalTuple& t) {
    if (t.IsCurrentState()) expected.push_back(&t);
  });

  std::vector<const BitemporalTuple*> batch_mode;
  VersionBatchScan bscan = store->BatchScan(pin, preds);
  VersionBatch batch;
  while (bscan.Next(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      batch_mode.push_back(batch.tuples[i]);
    }
  }
  EXPECT_EQ(expected, batch_mode);
  // 300 appends + 50 truncated replacement versions (the 10 deletes of
  // rows appended "today" close without a replacement), minus 60 closes.
  EXPECT_EQ(batch_mode.size(), 290u);
}

// ---------------------------------------------------------------------------
// Scan lifetimes: a head-pin scan is bound to the store state it opened on,
// a reader-pin scan to its pin.
// ---------------------------------------------------------------------------

using MvccDeathTest = MvccTest;

// Opens a relation `r` of `kind` holding `rows` committed appends.
StoredRelation* Populate(Database* db, const std::string& kind, int rows) {
  EXPECT_TRUE(
      db->Execute("create " + kind + " relation r (name = string)").ok());
  EXPECT_TRUE(db->Execute("range of x is r").ok());
  for (int i = 0; i < rows; ++i) {
    EXPECT_TRUE(
        db->Execute("append to r (name = \"n" + std::to_string(i) + "\")")
            .ok());
  }
  return *db->GetRelation("r");
}

TEST_F(MvccDeathTest, HeadPinScanAdvancedAfterAppendAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto db = Open();
  StoredRelation* rel = Populate(db.get(), "temporal", 3);
  EXPECT_DEATH(
      {
        VersionBatchScan scan = rel->BatchScan({});
        (void)db->Execute("append to r (name = \"late\")");
        VersionBatch batch;
        (void)scan.Next(&batch);
      },
      "VersionBatchScan advanced after a store mutation");
}

TEST_F(MvccDeathTest, HeadPinScanAdvancedAfterCloseAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  DatabaseOptions options;
  options.store_options.batch_rows = 2;  // Several batches to advance over.
  auto db = Open(options);
  StoredRelation* rel = Populate(db.get(), "rollback", 5);
  EXPECT_DEATH(
      {
        VersionBatchScan scan = rel->BatchScan({});
        VersionBatch batch;
        (void)scan.Next(&batch);
        // A rollback delete only closes transaction periods.
        (void)db->Execute("delete x where x.name = \"n4\"");
        (void)scan.Next(&batch);
      },
      "VersionBatchScan advanced after a store mutation");
}

TEST_F(MvccTest, PinnedScanOpenedBeforeACommitYieldsItsPinnedRows) {
  auto db = Open();
  StoredRelation* rel = Populate(db.get(), "temporal", 6);
  auto drain = [](VersionBatchScan scan) {
    std::vector<std::pair<RowId, std::string>> out;
    VersionBatch batch;
    while (scan.Next(&batch)) {
      for (size_t i = 0; i < batch.size(); ++i) {
        out.emplace_back(batch.rows[i],
                         batch.tuples[i]->values[0].AsString());
      }
    }
    return out;
  };
  const auto before = drain(rel->BatchScan({}));
  ASSERT_EQ(before.size(), 6u);
  Result<ReadSnapshot> snap = db->BeginReadSnapshot();
  ASSERT_TRUE(snap.ok());
  ScanSpec spec;
  spec.snapshot = snap->PinFor(rel->store());
  VersionBatchScan pinned = rel->BatchScan(spec);
  // One commit that appends, closes and supersedes rows under the open scan.
  clock_.AdvanceDays(1);
  ASSERT_TRUE(db->Execute("append to r (name = \"late\")").ok());
  ASSERT_TRUE(db->Execute("delete x where x.name = \"n1\"").ok());
  ASSERT_TRUE(db->Execute("replace x (name = \"m\") where x.name = \"n2\"")
                  .ok());
  EXPECT_NE(drain(rel->BatchScan({})), before);
  EXPECT_EQ(drain(std::move(pinned)), before);
}

}  // namespace
}  // namespace temporadb
