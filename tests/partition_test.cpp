// Epoch-partition differential: a partitioned store (any partition size,
// writer or snapshot scan) must be bit-identical to the unpartitioned
// baseline, which matches a brute-force filter — pruning may
// only skip partitions the pushed-down window provably misses.  Also covers synopsis maintenance across
// corrections straddling a seal boundary, checkpoint/recovery of the
// partition directory, the ScanStats accounting identity (including that
// pruned partitions never form batches), and the key sketch's
// no-false-negative contract.

#include "temporal/partition.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/database.h"
#include "temporal/version_store.h"
#include "txn/clock.h"
#include "txn/txn_manager.h"

namespace temporadb {
namespace {

// --- Store-level differential ---------------------------------------------

// A store plus the machinery to drive it standalone, optionally under MVCC
// publication (mimicking Database::PublishMvcc per commit).
struct Harness {
  ManualClock clock;
  TxnManager manager{&clock};
  MvccState mvcc;
  std::unique_ptr<VersionStore> store;
  bool publish = false;

  explicit Harness(size_t partition_rows, bool with_mvcc = false,
                   size_t batch_rows = 0) {
    VersionStoreOptions options;
    options.partition_rows = partition_rows;
    if (batch_rows > 0) options.batch_rows = batch_rows;
    if (with_mvcc) {
      options.mvcc = &mvcc;
      publish = true;
    }
    store = std::make_unique<VersionStore>(options);
  }

  void Commit(Transaction* txn) {
    ASSERT_TRUE(manager.Commit(txn).ok());
    if (publish) {
      store->PublishCommittedRows();
      mvcc.commit_seq.fetch_add(1, std::memory_order_release);
    }
  }

  SnapshotPin Pin() const {
    return SnapshotPin{mvcc.commit_seq.load(std::memory_order_acquire),
                       store->committed_rows(), clock.Now()};
  }
};

// Seeded chaos: appends (bounded/open valid periods), transaction-time
// closes, and in-place corrections (physical update/delete) that land on
// arbitrary rows — including rows already sealed, so corrections routinely
// straddle partition boundaries at small partition sizes.  Identical op
// sequence for every store configuration (the rng never consults the
// store's partition state).
void Populate(Harness* h, size_t n_ops, uint64_t seed,
              bool corrections = true) {
  Random rng(seed);
  VersionStore& store = *h->store;
  int64_t day = 1000;
  size_t op = 0;
  while (op < n_ops) {
    h->clock.SetTime(Chronon(day));
    Transaction* txn = *h->manager.Begin();
    size_t batch = 1 + rng.Uniform(50);
    for (size_t i = 0; i < batch && op < n_ops; ++i, ++op) {
      const uint64_t pick = rng.Uniform(12);
      if (store.version_count() > 10 && pick < 3) {
        RowId row = rng.Uniform(store.version_count());
        (void)store.CloseTxn(txn, row, Chronon(day));
      } else if (corrections && store.version_count() > 10 && pick == 3) {
        RowId row = rng.Uniform(store.version_count());
        if (rng.OneIn(3)) {
          (void)store.PhysicalDelete(txn, row);
        } else {
          BitemporalTuple t;
          t.values = {Value(static_cast<int64_t>(rng.Uniform(64))),
                      Value("patched")};
          int64_t from = 900 + static_cast<int64_t>(rng.Uniform(400));
          t.valid = Period(Chronon(from), Chronon(from + 30));
          t.txn = Period(Chronon(day - 100), Chronon(day - 50));
          (void)store.PhysicalUpdate(txn, row, std::move(t));
        }
      } else {
        BitemporalTuple t;
        t.values = {Value(static_cast<int64_t>(rng.Uniform(64))),
                    Value(std::string("r") + std::to_string(rng.Uniform(8)))};
        int64_t from = 900 + static_cast<int64_t>(rng.Uniform(400));
        t.valid = rng.OneIn(2)
                      ? Period::From(Chronon(from))
                      : Period(Chronon(from),
                               Chronon(from + 1 +
                                       static_cast<int64_t>(rng.Uniform(90))));
        t.txn = Period::From(Chronon(day));
        ASSERT_TRUE(store.Append(txn, std::move(t)).ok());
      }
    }
    h->Commit(txn);
    if (testing::Test::HasFatalFailure()) return;
    day += 1 + static_cast<int64_t>(rng.Uniform(3));
  }
}

using Sequence = std::vector<std::pair<RowId, BitemporalTuple>>;

// Every live version `keep` accepts, in row order: the brute-force
// expectation of a scan.
Sequence Filter(const VersionStore& store,
                const std::function<bool(const BitemporalTuple&)>& keep) {
  Sequence out;
  store.ForEach([&](RowId row, const BitemporalTuple& t) {
    if (keep(t)) out.emplace_back(row, t);
  });
  return out;
}

// The writer's head-pin scan of `store` under `preds`.
VersionBatchScan Head(const VersionStore& store, BatchPredicates preds = {}) {
  return store.BatchScan(store.HeadPin(), preds);
}

BatchPredicates TxnAt(int64_t t) {
  BatchPredicates preds;
  preds.txn_contains = Chronon(t);
  return preds;
}

BatchPredicates TxnIn(Period q) {
  BatchPredicates preds;
  preds.txn_overlaps = q;
  return preds;
}

BatchPredicates ValidIn(Period q) {
  BatchPredicates preds;
  preds.valid_overlaps = q;
  return preds;
}

Sequence CollectBatches(VersionBatchScan scan) {
  Sequence out;
  VersionBatch batch;
  while (scan.Next(&batch)) {
    EXPECT_FALSE(batch.empty());
    for (size_t i = 0; i < batch.size(); ++i) {
      out.emplace_back(batch.rows[i], *batch.tuples[i]);
    }
  }
  return out;
}

// Probe windows chosen to exercise both prune outcomes: some hit only early
// history, some only late, some everything.  The brute-force expectation
// of RunBatchProbes, probe for probe.
Sequence RunExpectedProbes(const VersionStore& store) {
  Sequence all;
  auto append = [&all](Sequence v) {
    all.insert(all.end(), v.begin(), v.end());
  };
  auto txn_at = [&](int64_t t) {
    return Filter(store, [t](const BitemporalTuple& v) {
      return v.txn.Contains(Chronon(t));
    });
  };
  auto txn_in = [&](Period q) {
    return Filter(store,
                  [q](const BitemporalTuple& v) { return v.txn.Overlaps(q); });
  };
  auto valid_in = [&](Period q) {
    return Filter(
        store, [q](const BitemporalTuple& v) { return v.valid.Overlaps(q); });
  };
  append(Filter(store, [](const BitemporalTuple&) { return true; }));
  append(Filter(store,
                [](const BitemporalTuple& v) { return v.IsCurrentState(); }));
  append(txn_at(1005));
  append(txn_at(1100));
  append(txn_at(100000));
  append(txn_in(Period(Chronon(1050), Chronon(1200))));
  append(txn_in(Period(Chronon(0), Chronon(1002))));
  append(valid_in(Period(Chronon(1000), Chronon(1060))));
  append(valid_in(Period(Chronon(900), Chronon(905))));
  return all;
}

Sequence RunBatchProbes(const VersionStore& store) {
  Sequence all;
  auto append = [&all](Sequence v) {
    all.insert(all.end(), v.begin(), v.end());
  };
  BatchPredicates current;
  current.txn_current = true;
  append(CollectBatches(Head(store)));
  append(CollectBatches(Head(store, current)));
  append(CollectBatches(Head(store, TxnAt(1005))));
  append(CollectBatches(Head(store, TxnAt(1100))));
  append(CollectBatches(Head(store, TxnAt(100000))));
  append(CollectBatches(
      Head(store, TxnIn(Period(Chronon(1050), Chronon(1200))))));
  append(CollectBatches(
      Head(store, TxnIn(Period(Chronon(0), Chronon(1002))))));
  append(CollectBatches(
      Head(store, ValidIn(Period(Chronon(1000), Chronon(1060))))));
  append(CollectBatches(
      Head(store, ValidIn(Period(Chronon(900), Chronon(905))))));
  return all;
}

void ExpectSameSequence(const Sequence& got, const Sequence& want,
                        const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].first, want[i].first) << label << ", position " << i;
    ASSERT_TRUE(got[i].second == want[i].second)
        << label << ", position " << i;
  }
}

TEST(PartitionDifferentialTest, BatchScansMatchUnpartitionedBaseline) {
  Harness baseline(/*partition_rows=*/0);
  Populate(&baseline, 4000, /*seed=*/31);
  ASSERT_EQ(baseline.store->sealed_partition_count(), 0u);
  const Sequence want_batches = RunBatchProbes(*baseline.store);
  ASSERT_FALSE(want_batches.empty());
  ExpectSameSequence(want_batches, RunExpectedProbes(*baseline.store),
                     "baseline batches vs brute force");

  for (size_t partition_rows : {1u, 127u, 4096u}) {
    Harness h(partition_rows);
    Populate(&h, 4000, /*seed=*/31);
    if (partition_rows <= 127) {
      ASSERT_GT(h.store->sealed_partition_count(), 1u);
    }
    const std::string label = std::string("partition_rows=") + std::to_string(partition_rows);
    ExpectSameSequence(RunBatchProbes(*h.store), want_batches,
                       label + " batches");
  }
}

TEST(PartitionDifferentialTest, SnapshotPathMatchesUnpartitionedBaseline) {
  // Identical op script against every store; a pin taken at the same point
  // in the script pins the same (seq, rows) everywhere, so snapshot scans
  // must agree row for row.
  auto drive = [](Harness* h, SnapshotPin* mid_pin) {
    Populate(h, 1500, /*seed=*/47, /*corrections=*/false);
    *mid_pin = h->Pin();
    Populate(h, 1500, /*seed=*/53, /*corrections=*/false);
  };
  auto probe = [](const Harness& h, const SnapshotPin& pin) {
    Sequence all;
    auto append = [&all](Sequence v) {
      all.insert(all.end(), v.begin(), v.end());
    };
    BatchPredicates none;
    append(CollectBatches(h.store->BatchScan(pin, none)));
    BatchPredicates current;
    current.txn_current = true;
    append(CollectBatches(h.store->BatchScan(pin, current)));
    BatchPredicates asof;
    asof.txn_contains = Chronon(1100);
    append(CollectBatches(h.store->BatchScan(pin, asof)));
    BatchPredicates when;
    when.valid_overlaps = Period(Chronon(1000), Chronon(1060));
    append(CollectBatches(h.store->BatchScan(pin, when)));
    return all;
  };

  Harness baseline(/*partition_rows=*/0, /*with_mvcc=*/true);
  SnapshotPin baseline_pin;
  drive(&baseline, &baseline_pin);
  const Sequence want = probe(baseline, baseline_pin);
  ASSERT_FALSE(want.empty());

  for (size_t partition_rows : {1u, 127u, 4096u}) {
    Harness h(partition_rows, /*with_mvcc=*/true);
    SnapshotPin pin;
    drive(&h, &pin);
    ASSERT_EQ(pin.rows, baseline_pin.rows);
    ASSERT_EQ(pin.seq, baseline_pin.seq);
    ExpectSameSequence(
        probe(h, pin), want,
        std::string("snapshot, partition_rows=") +
            std::to_string(partition_rows));
  }
}

// --- Corrections straddling a seal boundary --------------------------------

TEST(PartitionCorrectionTest, StraddlingCorrectionsPatchSynopses) {
  Harness h(/*partition_rows=*/4);
  Harness flat(/*partition_rows=*/0);
  // Ten committed rows: partitions [0,4) and [4,8) seal, rows 8-9 stay hot.
  for (Harness* target : {&h, &flat}) {
    target->clock.SetTime(Chronon(100));
    Transaction* txn = *target->manager.Begin();
    for (int i = 0; i < 10; ++i) {
      BitemporalTuple t;
      t.values = {Value(static_cast<int64_t>(i)), Value("v")};
      t.valid = Period(Chronon(10 * i), Chronon(10 * i + 10));
      t.txn = Period::From(Chronon(100));
      ASSERT_TRUE(target->store->Append(txn, std::move(t)).ok());
    }
    target->Commit(txn);
  }
  ASSERT_EQ(h.store->sealed_partition_count(), 2u);
  ASSERT_EQ(h.store->sealed_partition(1).live_rows, 4u);

  // One correction transaction touching both sides of the row-4 boundary:
  // delete row 3 (partition 0), rewrite row 4 (partition 1).
  for (Harness* target : {&h, &flat}) {
    target->clock.SetTime(Chronon(200));
    Transaction* txn = *target->manager.Begin();
    ASSERT_TRUE(target->store->PhysicalDelete(txn, 3).ok());
    BitemporalTuple patched;
    patched.values = {Value(static_cast<int64_t>(400)), Value("patched")};
    patched.valid = Period(Chronon(500), Chronon(600));
    patched.txn = Period::From(Chronon(100));
    ASSERT_TRUE(target->store->PhysicalUpdate(txn, 4, patched).ok());
    target->Commit(txn);
  }
  // Synopses repatched exactly: partition 0 lost a live row, partition 1's
  // valid bounds now cover the rewritten period (row 4 went from [40,50)
  // to [500,600), so min moves up to row 5's 50 and max jumps to 600) and
  // its sketch holds the new key.
  EXPECT_EQ(h.store->sealed_partition(0).live_rows, 3u);
  EXPECT_EQ(h.store->sealed_partition(1).live_rows, 4u);
  EXPECT_EQ(h.store->sealed_partition(1).min_valid_from, 50);
  EXPECT_EQ(h.store->sealed_partition(1).max_valid_to, 600);
  EXPECT_TRUE(h.store->SealedPartitionMayContain(1, 0, Value(int64_t{400})));

  // An aborted straddling correction must leave the synopses equivalent to
  // never having happened (the undo repatches).
  {
    h.clock.SetTime(Chronon(300));
    Transaction* txn = *h.manager.Begin();
    ASSERT_TRUE(h.store->PhysicalDelete(txn, 2).ok());
    ASSERT_TRUE(h.store->PhysicalDelete(txn, 5).ok());
    ASSERT_TRUE(h.manager.Abort(txn).ok());
  }
  EXPECT_EQ(h.store->sealed_partition(0).live_rows, 3u);
  EXPECT_EQ(h.store->sealed_partition(1).live_rows, 4u);

  // And the partitioned store still reads bit-identically to the flat one.
  ExpectSameSequence(RunBatchProbes(*h.store), RunBatchProbes(*flat.store),
                     "straddling corrections, batches");
  ExpectSameSequence(RunBatchProbes(*h.store), RunExpectedProbes(*flat.store),
                     "straddling corrections, brute force");

  // A transaction-time close of a sealed row maintains the mutable trio
  // incrementally: partition 1 loses a current row and gains a finite end.
  const uint64_t before = h.store->sealed_partition(1).current_rows;
  for (Harness* target : {&h, &flat}) {
    target->clock.SetTime(Chronon(400));
    Transaction* txn = *target->manager.Begin();
    ASSERT_TRUE(target->store->CloseTxn(txn, 5, Chronon(400)).ok());
    target->Commit(txn);
  }
  EXPECT_EQ(h.store->sealed_partition(1).current_rows, before - 1);
  EXPECT_GE(h.store->sealed_partition(1).max_finite_tt_end, 400);
  ExpectSameSequence(RunBatchProbes(*h.store), RunBatchProbes(*flat.store),
                     "sealed close, batches");
}

// --- Checkpoint / recovery -------------------------------------------------

class PartitionPersistenceTest : public ::testing::Test {
 protected:
  PartitionPersistenceTest() {
    dir_ = testing::TempDir() + "/tdb_part_" + std::to_string(::getpid()) +
           "_" + std::to_string(counter_++);
    std::filesystem::remove_all(dir_);
    EXPECT_TRUE(clock_.SetDate("01/01/80").ok());
  }
  ~PartitionPersistenceTest() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<Database> Open(size_t partition_rows) {
    DatabaseOptions options;
    options.path = dir_;
    options.clock = &clock_;
    options.store_options.partition_rows = partition_rows;
    Result<std::unique_ptr<Database>> db = Database::Open(options);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return std::move(*db);
  }

  static int counter_;
  std::string dir_;
  ManualClock clock_;
};

int PartitionPersistenceTest::counter_ = 0;

TEST_F(PartitionPersistenceTest, SealedPartitionsSurviveCheckpointAndWal) {
  std::vector<std::string> want;
  size_t sealed_before = 0;
  uint64_t rel_id = 0;
  {
    auto db = Open(/*partition_rows=*/32);
    ASSERT_TRUE(db->Execute("create temporal relation t "
                            "(name = string, n = int)")
                    .ok());
    for (int i = 0; i < 150; ++i) {
      if (i % 7 == 0) clock_.AdvanceDays(1);
      ASSERT_TRUE(db->Execute(std::string("append to t (name = \"e") +
                              std::to_string(i % 13) + "\", n = " +
                              std::to_string(i) + ")")
                      .ok());
    }
    ASSERT_TRUE(db->Checkpoint().ok());
    // Post-checkpoint WAL tail, replayed (not loaded) at recovery.
    for (int i = 0; i < 40; ++i) {
      clock_.AdvanceDays(1);
      ASSERT_TRUE(db->Execute(std::string("append to t (name = \"tail") +
                              std::to_string(i) + "\", n = " +
                              std::to_string(1000 + i) + ")")
                      .ok());
    }
    StoredRelation* rel = *db->GetRelation("t");
    rel_id = rel->info().id;
    sealed_before = rel->store()->sealed_partition_count();
    ASSERT_GT(sealed_before, 2u);
    ASSERT_TRUE(db->Execute("range of x is t").ok());
    Result<Rowset> rows = db->Query("retrieve (x.name, x.n)");
    ASSERT_TRUE(rows.ok());
    for (const Row& r : rows->rows()) {
      want.push_back(r.values[0].ToString() + "|" + r.values[1].ToString());
    }
  }  // "Crash": WAL tail not checkpointed.
  // The sealed directory travels inside the relation's checkpoint file.
  ASSERT_TRUE(std::filesystem::exists(dir_ + "/ckpt-1/rel-" +
                                      std::to_string(rel_id) + ".tdb"));
  {
    auto db = Open(/*partition_rows=*/32);
    StoredRelation* rel = *db->GetRelation("t");
    // Recovery reinstalled the checkpoint's sealed partitions and resealed
    // the replayed tail at the end-of-recovery publication.
    EXPECT_EQ(rel->store()->sealed_partition_count(), sealed_before);
    EXPECT_GT(rel->store()->sealed_rows(), 0u);
    ASSERT_TRUE(db->Execute("range of x is t").ok());
    Result<Rowset> rows = db->Query("retrieve (x.name, x.n)");
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(rows->rows()[i].values[0].ToString() + "|" +
                    rows->rows()[i].values[1].ToString(),
                want[i])
          << "row " << i;
    }
  }
}

TEST_F(PartitionPersistenceTest, RecoveredSynopsesKeepPruningSound) {
  // Differential across a restart: the recovered, partition-pruned store
  // answers every probe exactly like a fresh unpartitioned database built
  // from the same history.
  auto build = [](Database* db, ManualClock* clock) {
    ASSERT_TRUE(db->Execute("create historical relation h "
                            "(name = string, n = int)")
                    .ok());
    Random rng(7);
    for (int i = 0; i < 120; ++i) {
      if (i % 5 == 0) clock->AdvanceDays(2);
      int64_t from = 3650 + static_cast<int64_t>(rng.Uniform(60));
      ASSERT_TRUE(db->Execute(std::string("append to h (name = \"e") +
                              std::to_string(i % 9) + "\", n = " +
                              std::to_string(i) + ") valid from \"" +
                              Chronon(from).ToString() + "\" to \"" +
                              Chronon(from + 10).ToString() + "\"")
                      .ok());
    }
    ASSERT_TRUE(db->Execute("range of x is h").ok());
  };
  const std::string query = std::string("retrieve (x.name, x.n) when x overlap \"") +
                            Chronon(3655).ToString() + "\"";
  std::vector<std::string> want;
  {
    auto db = Open(/*partition_rows=*/16);
    build(db.get(), &clock_);
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  {
    // Rebuild the same history in-memory, unpartitioned, with its own clock
    // stepped through the identical script.
    ManualClock flat_clock;
    ASSERT_TRUE(flat_clock.SetDate("01/01/80").ok());
    DatabaseOptions options;
    options.clock = &flat_clock;
    options.store_options.partition_rows = 0;
    auto flat = std::move(*Database::Open(options));
    build(flat.get(), &flat_clock);
    Result<Rowset> rows = flat->Query(query);
    ASSERT_TRUE(rows.ok());
    for (const Row& r : rows->rows()) {
      want.push_back(r.values[0].ToString() + "|" + r.values[1].ToString());
    }
  }
  {
    auto db = Open(/*partition_rows=*/16);
    StoredRelation* rel = *db->GetRelation("h");
    ASSERT_GT(rel->store()->sealed_partition_count(), 2u);
    ASSERT_TRUE(db->Execute("range of x is h").ok());
    Result<Rowset> rows = db->Query(query);
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(rows->rows()[i].values[0].ToString() + "|" +
                    rows->rows()[i].values[1].ToString(),
                want[i]);
    }
  }
}

// --- ScanStats -------------------------------------------------------------

TEST(PartitionStatsTest, AccountingIdentityAndMorselSuppression) {
  // 64 committed rows in 8 aligned epochs; batch_rows == partition_rows so
  // one surviving epoch is exactly one batch.  Row i: valid [10i, 10i+5),
  // tt [i, ∞); rows 0-31 then closed at day 200.  `flat` holds the same
  // history unpartitioned: nothing to prune.
  auto build = [](Harness* h) {
    h->clock.SetTime(Chronon(100));
    Transaction* txn = *h->manager.Begin();
    for (int i = 0; i < 64; ++i) {
      BitemporalTuple t;
      t.values = {Value(static_cast<int64_t>(i)), Value("v")};
      t.valid = Period(Chronon(10 * i), Chronon(10 * i + 5));
      t.txn = Period::From(Chronon(i));
      ASSERT_TRUE(h->store->Append(txn, std::move(t)).ok());
    }
    h->Commit(txn);
    h->clock.SetTime(Chronon(200));
    txn = *h->manager.Begin();
    for (RowId row = 0; row < 32; ++row) {
      ASSERT_TRUE(h->store->CloseTxn(txn, row, Chronon(200)).ok());
    }
    h->Commit(txn);
  };
  Harness h(/*partition_rows=*/8, /*with_mvcc=*/false, /*batch_rows=*/8);
  build(&h);
  Harness flat(/*partition_rows=*/0, /*with_mvcc=*/false, /*batch_rows=*/8);
  build(&flat);
  ASSERT_EQ(h.store->sealed_partition_count(), 8u);
  ASSERT_EQ(flat.store->sealed_partition_count(), 0u);
  ScanStats stats;
  h.store->set_scan_stats(&stats);

  // Valid-time window [100, 120): only epoch 1 (rows 8-15, valid reach
  // [80, 155)) can intersect — epoch 0 tops out at 75, epoch 2 starts at
  // 160.  The matches are rows 10-11; the single surviving epoch is one
  // 8-row range = exactly 1 batch, and the 7 pruned epochs form none.
  Sequence got = CollectBatches(
      Head(*h.store, ValidIn(Period(Chronon(100), Chronon(120)))));
  EXPECT_EQ(got.size(), 2u);
  EXPECT_EQ(stats.considered(), 8u);
  EXPECT_EQ(stats.pruned_vt(), 7u);
  EXPECT_EQ(stats.pruned_tt(), 0u);
  EXPECT_EQ(stats.scanned(), 1u);
  EXPECT_EQ(stats.rows(), 8u);
  EXPECT_EQ(stats.morsels(), 1u);
  EXPECT_EQ(stats.considered(), stats.pruned_tt() + stats.pruned_vt() +
                                    stats.pruned_snapshot() + stats.scanned());

  // The flat twin has no synopsis to consult, so the same scan forms the
  // full 8 batches.
  stats.Reset();
  flat.store->set_scan_stats(&stats);
  Sequence off = CollectBatches(
      Head(*flat.store, ValidIn(Period(Chronon(100), Chronon(120)))));
  ExpectSameSequence(off, got, "flat twin");
  EXPECT_EQ(stats.considered(), 0u);  // Synopsis walk skipped entirely.
  EXPECT_EQ(stats.morsels(), 8u);
  flat.store->set_scan_stats(nullptr);

  // As-of below every tt_start: all 8 epochs prune on transaction time and
  // no batch forms at all.
  stats.Reset();
  got = CollectBatches(Head(*h.store, TxnAt(-5)));
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(stats.pruned_tt(), 8u);
  EXPECT_EQ(stats.scanned(), 0u);
  EXPECT_EQ(stats.rows(), 0u);
  EXPECT_EQ(stats.morsels(), 0u);

  // As-of after every close: the 4 fully-closed epochs prune (finite tt
  // upper bound), the 4 epochs holding current rows cannot.
  stats.Reset();
  got = CollectBatches(Head(*h.store, TxnAt(500)));
  EXPECT_EQ(got.size(), 32u);
  EXPECT_EQ(stats.pruned_tt(), 4u);
  EXPECT_EQ(stats.scanned(), 4u);
  EXPECT_EQ(stats.morsels(), 4u);
  h.store->set_scan_stats(nullptr);
}

TEST(PartitionStatsTest, SnapshotScansSkipPartitionsSealedAboveThePin) {
  Harness h(/*partition_rows=*/8, /*with_mvcc=*/true);
  auto append_epoch = [&h](int base) {
    h.clock.SetTime(Chronon(base));
    Transaction* txn = *h.manager.Begin();
    for (int i = 0; i < 8; ++i) {
      BitemporalTuple t;
      t.values = {Value(static_cast<int64_t>(base + i)), Value("v")};
      t.valid = Period(Chronon(base), Chronon(base + 5));
      t.txn = Period::From(Chronon(base));
      EXPECT_TRUE(h.store->Append(txn, std::move(t)).ok());
    }
    h.Commit(txn);
  };
  append_epoch(100);
  append_epoch(110);
  const SnapshotPin pin = h.Pin();
  append_epoch(120);
  append_epoch(130);
  ASSERT_EQ(h.store->sealed_partition_count(), 4u);

  ScanStats stats;
  h.store->set_scan_stats(&stats);
  BatchPredicates none;
  Sequence got = CollectBatches(h.store->BatchScan(pin, none));
  EXPECT_EQ(got.size(), 16u);  // Only the pinned prefix.
  EXPECT_EQ(stats.considered(), 4u);
  EXPECT_EQ(stats.pruned_snapshot(), 2u);
  EXPECT_EQ(stats.scanned(), 2u);
  EXPECT_EQ(stats.morsels(), 1u);  // Two adjacent epochs merge into one
                                   // range; batch_rows (1024) covers it.
  EXPECT_EQ(stats.considered(), stats.pruned_tt() + stats.pruned_vt() +
                                    stats.pruned_snapshot() + stats.scanned());
  h.store->set_scan_stats(nullptr);
}

// `rows_scanned` counts every row a sweep reads, also when there is nothing
// to prune: a head-pin sweep of a static relation has no window, and a store
// with no sealed partition has no synopsis.  The writer and a reader pin
// over the same rows report the same count, unpartitioned and partitioned.
TEST(PartitionStatsTest, HeadAndReaderPinSweepsCountTheSameRows) {
  for (size_t partition_rows : {size_t{0}, size_t{8}}) {
    SCOPED_TRACE("partition_rows " + std::to_string(partition_rows));
    ManualClock clock;
    ScanStats stats;
    DatabaseOptions options;
    options.clock = &clock;
    options.store_options.partition_rows = partition_rows;
    options.store_options.scan_stats = &stats;
    std::unique_ptr<Database> db = std::move(*Database::Open(options));
    clock.SetTime(Chronon(100));
    ASSERT_TRUE(db->Execute("create static relation s (n = int)").ok());
    ASSERT_TRUE(db->Execute("range of x is s").ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(
          db->Execute("append to s (n = " + std::to_string(i) + ")").ok());
    }
    ASSERT_TRUE(db->Execute("delete x where x.n = 3").ok());
    const StoredRelation* rel = *db->GetRelation("s");
    EXPECT_EQ(rel->store()->sealed_partition_count(),
              partition_rows == 0 ? 0u : 2u);

    const auto sweep = [&](const ScanSpec& spec) {
      stats.Reset();
      Sequence got = CollectBatches(rel->BatchScan(spec));
      EXPECT_EQ(got.size(), 19u);
      return stats.rows();
    };
    const uint64_t head = sweep(ScanSpec{});
    Result<ReadSnapshot> snap = db->BeginReadSnapshot();
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    ScanSpec at_pin;
    at_pin.snapshot = snap->PinFor(rel->store());
    const uint64_t pinned = sweep(at_pin);
    EXPECT_EQ(head, 20u);  // The deleted row's slot is swept too.
    EXPECT_EQ(pinned, head);
  }
}

// --- Key sketch and synopsis codec ----------------------------------------

TEST(KeySketchTest, NoFalseNegatives) {
  KeySketch sketch;
  Random rng(99);
  std::vector<int64_t> ints;
  std::vector<std::string> strings;
  for (int i = 0; i < 500; ++i) {
    if (rng.OneIn(2)) {
      ints.push_back(static_cast<int64_t>(rng.Uniform(1000000)));
    } else {
      strings.push_back("k" + std::to_string(rng.Uniform(1000000)));
    }
  }
  for (int64_t k : ints) sketch.Add(Value(k));
  for (const std::string& k : strings) sketch.Add(Value(k));
  for (int64_t k : ints) EXPECT_TRUE(sketch.MayContain(Value(k))) << k;
  for (const std::string& k : strings) {
    EXPECT_TRUE(sketch.MayContain(Value(k))) << k;
  }
}

TEST(KeySketchTest, EmptyAndRangeNegatives) {
  KeySketch empty;
  EXPECT_FALSE(empty.MayContain(Value(int64_t{7})));
  KeySketch ints;
  for (int64_t v = 100; v < 200; ++v) ints.Add(Value(v));
  // Outside the int min/max: definite negative regardless of bloom state.
  EXPECT_FALSE(ints.MayContain(Value(int64_t{99})));
  EXPECT_FALSE(ints.MayContain(Value(int64_t{200})));
  EXPECT_TRUE(ints.MayContain(Value(int64_t{150})));
}

TEST(PartitionSynopsisTest, EncodeDecodeRoundTrip) {
  PartitionSynopsis s;
  s.begin_row = 4096;
  s.end_row = 8192;
  s.min_valid_from = -100;
  s.max_valid_to = 1'000'000;
  s.min_tt_start = 42;
  s.max_finite_tt_end = 77;
  s.current_rows = 12;
  s.last_close_seq = 9;
  s.live_rows = 4000;
  s.sketches[0].Add(Value(int64_t{5}));
  s.sketches[1].Add(Value("key"));
  std::string blob;
  s.EncodeTo(&blob);
  std::string_view in = blob;
  PartitionSynopsis d;
  ASSERT_TRUE(PartitionSynopsis::DecodeFrom(&in, &d));
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(d.begin_row, s.begin_row);
  EXPECT_EQ(d.end_row, s.end_row);
  EXPECT_EQ(d.min_valid_from, s.min_valid_from);
  EXPECT_EQ(d.max_valid_to, s.max_valid_to);
  EXPECT_EQ(d.min_tt_start, s.min_tt_start);
  EXPECT_EQ(d.max_finite_tt_end, s.max_finite_tt_end);
  EXPECT_EQ(d.current_rows, s.current_rows);
  EXPECT_EQ(d.last_close_seq, s.last_close_seq);
  EXPECT_EQ(d.live_rows, s.live_rows);
  EXPECT_TRUE(d.sketches[0].MayContain(Value(int64_t{5})));
  EXPECT_TRUE(d.sketches[1].MayContain(Value("key")));
  EXPECT_FALSE(d.sketches[1].MayContain(Value("other")));
  // Truncated input fails cleanly.
  std::string_view short_in(blob.data(), blob.size() - 1);
  PartitionSynopsis e;
  EXPECT_FALSE(PartitionSynopsis::DecodeFrom(&short_in, &e));
}

// --- Four relation classes through the query stack -------------------------

std::unique_ptr<Database> BuildFourClassDb(ManualClock* clock,
                                           const VersionStoreOptions& store) {
  DatabaseOptions options;
  options.clock = clock;
  options.store_options = store;
  std::unique_ptr<Database> db = std::move(*Database::Open(options));
  EXPECT_TRUE(
      db->Execute("create relation snap (name = string, n = int)").ok());
  EXPECT_TRUE(
      db->Execute("create rollback relation roll (name = string, n = int)")
          .ok());
  EXPECT_TRUE(
      db->Execute("create historical relation hist (name = string, n = int)")
          .ok());
  EXPECT_TRUE(
      db->Execute("create temporal relation bitemp (name = string, n = int)")
          .ok());
  Random rng(777);
  const char* relations[] = {"snap", "roll", "hist", "bitemp"};
  const bool has_valid[] = {false, false, true, true};
  for (int i = 0; i < 200; ++i) {
    clock->SetTime(Chronon(4000 + i * 2));
    size_t which = rng.Uniform(4);
    const std::string rel = relations[which];
    const std::string name = std::string("e") + std::to_string(rng.Uniform(12));
    if (rng.OneIn(5) && i > 20) {
      (void)db->Execute(std::string("delete ") + rel + " where " + rel + ".name = \"" +
                        name + "\"");
      continue;
    }
    std::string stmt = std::string("append to ") + rel + " (name = \"" + name +
                       "\", n = " +
                       std::to_string(static_cast<int64_t>(rng.Uniform(1000))) +
                       ")";
    if (has_valid[which]) {
      int64_t from = 3900 + static_cast<int64_t>(rng.Uniform(300));
      stmt += std::string(" valid from \"") + Chronon(from).ToString() +
              "\" to \"" +
              Chronon(from + 20 + static_cast<int64_t>(rng.Uniform(150)))
                  .ToString() +
              "\"";
    }
    EXPECT_TRUE(db->Execute(stmt).ok()) << stmt;
  }
  for (const char* rel : relations) {
    std::string range = "range of ";
    range += rel[0];
    range += " is ";
    range += rel;
    EXPECT_TRUE(db->Execute(range).ok()) << range;
  }
  return db;
}

std::vector<std::string> FourClassQueries() {
  const std::string kWhen =
      std::string(" when $ overlap \"") + Chronon(4010).ToString() + "\"";
  const std::string kAsOf =
      std::string(" as of \"") + Chronon(4100).ToString() + "\"";
  const std::string kWhere = " where $.n < 500";
  std::vector<std::string> queries;
  auto add = [&queries](char var, const std::string& clauses) {
    std::string q = "retrieve ($.name, $.n)" + clauses;
    std::string out;
    for (char c : q) {
      if (c == '$') {
        out += var;
      } else {
        out += c;
      }
    }
    queries.push_back(out);
  };
  add('s', "");
  add('s', kWhere);
  add('r', "");
  add('r', kAsOf);
  add('r', kWhere + kAsOf);
  add('h', "");
  add('h', kWhen);
  add('h', kWhere + kWhen);
  add('b', "");
  add('b', kAsOf);
  add('b', kWhen + kAsOf);
  add('b', kWhere + kWhen + kAsOf);
  return queries;
}

TEST(PartitionDatabaseTest, FourClassesMatchAcrossPartitionSizes) {
  // Baseline: unpartitioned.
  ManualClock base_clock;
  VersionStoreOptions base_options;
  base_options.partition_rows = 0;
  std::unique_ptr<Database> base_db =
      BuildFourClassDb(&base_clock, base_options);
  const std::vector<std::string> queries = FourClassQueries();
  std::vector<Rowset> baseline;
  size_t nonempty = 0;
  for (const std::string& q : queries) {
    Result<Rowset> r = base_db->Query(q);
    ASSERT_TRUE(r.ok()) << q << ": " << r.status().message();
    if (r->size() > 0) ++nonempty;
    baseline.push_back(std::move(*r));
  }
  ASSERT_GT(nonempty, queries.size() / 2);

  for (size_t partition_rows : {1u, 127u, 4096u}) {
    ManualClock clock;
    VersionStoreOptions options;
    options.partition_rows = partition_rows;
    std::unique_ptr<Database> db = BuildFourClassDb(&clock, options);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const std::string& q = queries[qi];
      Result<Rowset> got = db->Query(q);
      ASSERT_TRUE(got.ok()) << q << ": " << got.status().message();
      ASSERT_EQ(got->size(), baseline[qi].size())
          << q << " (partition_rows=" << partition_rows << ")";
      for (size_t i = 0; i < got->size(); ++i) {
        ASSERT_TRUE(got->rows()[i] == baseline[qi].rows()[i])
            << q << " row " << i << " (partition_rows=" << partition_rows
            << ")";
      }
    }
  }
}

}  // namespace
}  // namespace temporadb
