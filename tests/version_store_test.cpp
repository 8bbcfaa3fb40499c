#include "temporal/version_store.h"

#include <gtest/gtest.h>

#include "common/date.h"
#include "tests/relation_test_util.h"
#include "txn/clock.h"
#include "txn/txn_manager.h"

namespace temporadb {
namespace {

BitemporalTuple Tuple(const char* name, int64_t txn_start) {
  BitemporalTuple t;
  t.values = {Value(name)};
  t.valid = Period::All();
  t.txn = Period::From(Chronon(txn_start));
  return t;
}

using testutil::CurrentStateRows;

// The rows of the stored state as of transaction time `t`: the head-pin
// sweep with a transaction-time containment predicate.
std::vector<RowId> AsOfRows(const VersionStore& store, int64_t t) {
  BatchPredicates preds;
  preds.txn_contains = Chronon(t);
  return testutil::HeadPinRows(store, preds);
}

class VersionStoreTest : public ::testing::Test {
 protected:
  VersionStoreTest() : manager_(&clock_) {}

  Transaction* BeginAt(int64_t day) {
    clock_.SetTime(Chronon(day));
    Result<Transaction*> txn = manager_.Begin();
    EXPECT_TRUE(txn.ok());
    return *txn;
  }

  ManualClock clock_;
  TxnManager manager_;
  VersionStore store_;
};

TEST_F(VersionStoreTest, AppendAssignsDenseRowIds) {
  Transaction* txn = BeginAt(10);
  EXPECT_EQ(*store_.Append(txn, Tuple("a", 10)), 0u);
  EXPECT_EQ(*store_.Append(txn, Tuple("b", 10)), 1u);
  ASSERT_TRUE(manager_.Commit(txn).ok());
  EXPECT_EQ(store_.live_count(), 2u);
  EXPECT_EQ(CurrentStateRows(store_), (std::vector<RowId>{0, 1}));
  EXPECT_EQ((*store_.Get(0))->values[0].AsString(), "a");
}

TEST_F(VersionStoreTest, MutationsRequireActiveTransaction) {
  EXPECT_FALSE(store_.Append(nullptr, Tuple("a", 1)).ok());
  Transaction* txn = BeginAt(10);
  ASSERT_TRUE(manager_.Commit(txn).ok());
  EXPECT_FALSE(store_.Append(txn, Tuple("a", 1)).ok());
}

TEST_F(VersionStoreTest, CloseTxnEndsCurrentState) {
  Transaction* t1 = BeginAt(10);
  RowId row = *store_.Append(t1, Tuple("a", 10));
  ASSERT_TRUE(manager_.Commit(t1).ok());
  Transaction* t2 = BeginAt(20);
  ASSERT_TRUE(store_.CloseTxn(t2, row, Chronon(20)).ok());
  ASSERT_TRUE(manager_.Commit(t2).ok());
  EXPECT_TRUE(CurrentStateRows(store_).empty());
  EXPECT_EQ((*store_.Get(row))->txn, Period(Chronon(10), Chronon(20)));
  // Double close fails.
  Transaction* t3 = BeginAt(30);
  EXPECT_EQ(store_.CloseTxn(t3, row, Chronon(30)).code(),
            StatusCode::kFailedPrecondition);
  // A close before the version's start fails and leaves it current.
  RowId later = *store_.Append(t3, Tuple("b", 30));
  EXPECT_TRUE(store_.CloseTxn(t3, later, Chronon(25)).IsInvalidArgument());
  EXPECT_EQ(CurrentStateRows(store_), std::vector<RowId>{later});
  ASSERT_TRUE(manager_.Abort(t3).ok());
}

TEST_F(VersionStoreTest, AbortUndoesAppend) {
  Transaction* txn = BeginAt(10);
  ASSERT_TRUE(store_.Append(txn, Tuple("a", 10)).ok());
  ASSERT_TRUE(store_.Append(txn, Tuple("b", 10)).ok());
  ASSERT_TRUE(manager_.Abort(txn).ok());
  EXPECT_EQ(store_.live_count(), 0u);
  EXPECT_EQ(store_.version_count(), 0u);
  EXPECT_TRUE(AsOfRows(store_, 10).empty());
  // A fresh append reuses row id 0.
  Transaction* t2 = BeginAt(20);
  EXPECT_EQ(*store_.Append(t2, Tuple("c", 20)), 0u);
  ASSERT_TRUE(manager_.Commit(t2).ok());
}

TEST_F(VersionStoreTest, AbortUndoesCloseTxn) {
  Transaction* t1 = BeginAt(10);
  RowId row = *store_.Append(t1, Tuple("a", 10));
  ASSERT_TRUE(manager_.Commit(t1).ok());
  Transaction* t2 = BeginAt(20);
  ASSERT_TRUE(store_.CloseTxn(t2, row, Chronon(20)).ok());
  ASSERT_TRUE(manager_.Abort(t2).ok());
  EXPECT_EQ(CurrentStateRows(store_), std::vector<RowId>{row});
  EXPECT_TRUE((*store_.Get(row))->IsCurrentState());
  EXPECT_EQ(AsOfRows(store_, 25).size(), 1u);
}

TEST_F(VersionStoreTest, AbortUndoesPhysicalDeleteAndUpdate) {
  Transaction* t1 = BeginAt(10);
  RowId row = *store_.Append(t1, Tuple("a", 10));
  ASSERT_TRUE(manager_.Commit(t1).ok());

  Transaction* t2 = BeginAt(20);
  BitemporalTuple updated = Tuple("a2", 10);
  ASSERT_TRUE(store_.PhysicalUpdate(t2, row, updated).ok());
  ASSERT_TRUE(store_.PhysicalDelete(t2, row).ok());
  ASSERT_TRUE(manager_.Abort(t2).ok());
  ASSERT_TRUE(store_.Get(row).ok());
  EXPECT_EQ((*store_.Get(row))->values[0].AsString(), "a");
  EXPECT_EQ(store_.live_count(), 1u);
}

TEST_F(VersionStoreTest, PhysicalDeleteTombstones) {
  Transaction* t1 = BeginAt(10);
  RowId a = *store_.Append(t1, Tuple("a", 10));
  RowId b = *store_.Append(t1, Tuple("b", 10));
  ASSERT_TRUE(store_.PhysicalDelete(t1, a).ok());
  ASSERT_TRUE(manager_.Commit(t1).ok());
  EXPECT_TRUE(store_.Get(a).status().IsNotFound());
  EXPECT_TRUE(store_.Get(b).ok());
  EXPECT_EQ(store_.live_count(), 1u);
  EXPECT_EQ(store_.version_count(), 2u);  // Slot preserved.
  // Row ids remain stable: a fresh append takes a new id.
  Transaction* t2 = BeginAt(20);
  EXPECT_EQ(*store_.Append(t2, Tuple("c", 20)), 2u);
  ASSERT_TRUE(manager_.Commit(t2).ok());
}

TEST_F(VersionStoreTest, AsOfScanAndCurrentState) {
  Transaction* t1 = BeginAt(10);
  RowId a = *store_.Append(t1, Tuple("a", 10));
  ASSERT_TRUE(manager_.Commit(t1).ok());
  Transaction* t2 = BeginAt(20);
  ASSERT_TRUE(store_.CloseTxn(t2, a, Chronon(20)).ok());
  ASSERT_TRUE(store_.Append(t2, Tuple("b", 20)).ok());
  ASSERT_TRUE(manager_.Commit(t2).ok());

  EXPECT_EQ(AsOfRows(store_, 15), std::vector<RowId>{a});
  EXPECT_EQ(AsOfRows(store_, 25), std::vector<RowId>{1});
  EXPECT_TRUE(AsOfRows(store_, 5).empty());
  EXPECT_EQ(CurrentStateRows(store_), std::vector<RowId>{1});
}

TEST_F(VersionStoreTest, AsOfScanFollowsPaperTimeline) {
  // Figure 4's transaction periods: Merrie associate [08/25/77, 12/15/82),
  // Tom from 12/07/82, Merrie full from 12/15/82, Mike
  // [01/10/83, 02/25/84).
  auto day = [](const char* d) { return Date::Parse(d)->chronon().days(); };
  Transaction* t1 = BeginAt(day("08/25/77"));
  RowId merrie = *store_.Append(t1, Tuple("merrie", day("08/25/77")));
  ASSERT_TRUE(manager_.Commit(t1).ok());
  Transaction* t2 = BeginAt(day("12/07/82"));
  ASSERT_TRUE(store_.Append(t2, Tuple("tom", day("12/07/82"))).ok());
  ASSERT_TRUE(manager_.Commit(t2).ok());
  Transaction* t3 = BeginAt(day("12/15/82"));
  ASSERT_TRUE(store_.CloseTxn(t3, merrie, Chronon(day("12/15/82"))).ok());
  ASSERT_TRUE(store_.Append(t3, Tuple("merrie", day("12/15/82"))).ok());
  ASSERT_TRUE(manager_.Commit(t3).ok());
  Transaction* t4 = BeginAt(day("01/10/83"));
  RowId mike = *store_.Append(t4, Tuple("mike", day("01/10/83")));
  ASSERT_TRUE(manager_.Commit(t4).ok());
  Transaction* t5 = BeginAt(day("02/25/84"));
  ASSERT_TRUE(store_.CloseTxn(t5, mike, Chronon(day("02/25/84"))).ok());
  ASSERT_TRUE(manager_.Commit(t5).ok());

  EXPECT_EQ(AsOfRows(store_, day("12/10/82")), (std::vector<RowId>{0, 1}));
  EXPECT_EQ(AsOfRows(store_, day("12/20/82")), (std::vector<RowId>{1, 2}));
  EXPECT_EQ(AsOfRows(store_, day("06/01/83")), (std::vector<RowId>{1, 2, 3}));
  EXPECT_EQ(AsOfRows(store_, day("03/01/84")), (std::vector<RowId>{1, 2}));
}

TEST_F(VersionStoreTest, ObserverSeesCommittedMutationShapes) {
  std::vector<VersionOp::Kind> kinds;
  store_.set_observer(
      [&](const VersionOp& op) { kinds.push_back(op.kind); });
  Transaction* txn = BeginAt(10);
  RowId row = *store_.Append(txn, Tuple("a", 10));
  ASSERT_TRUE(store_.CloseTxn(txn, row, Chronon(10)).ok());
  ASSERT_TRUE(manager_.Commit(txn).ok());
  ASSERT_EQ(kinds.size(), 2u);
  EXPECT_EQ(kinds[0], VersionOp::Kind::kAppend);
  EXPECT_EQ(kinds[1], VersionOp::Kind::kCloseTxn);
}

TEST_F(VersionStoreTest, ApplyReplayReproducesState) {
  // Record ops from a live store, replay into a fresh one, compare.
  std::vector<VersionOp> ops;
  store_.set_observer([&](const VersionOp& op) { ops.push_back(op); });
  Transaction* t1 = BeginAt(10);
  RowId a = *store_.Append(t1, Tuple("a", 10));
  ASSERT_TRUE(store_.Append(t1, Tuple("b", 10)).ok());
  ASSERT_TRUE(manager_.Commit(t1).ok());
  Transaction* t2 = BeginAt(20);
  ASSERT_TRUE(store_.CloseTxn(t2, a, Chronon(20)).ok());
  ASSERT_TRUE(store_.Append(t2, Tuple("c", 20)).ok());
  ASSERT_TRUE(manager_.Commit(t2).ok());

  VersionStore replica;
  for (const VersionOp& op : ops) {
    ASSERT_TRUE(replica.ApplyReplay(op).ok());
  }
  EXPECT_EQ(replica.version_count(), store_.version_count());
  EXPECT_EQ(CurrentStateRows(replica), CurrentStateRows(store_));
  for (RowId row = 0; row < store_.version_count(); ++row) {
    EXPECT_EQ(**replica.Get(row), **store_.Get(row)) << row;
  }
}

TEST_F(VersionStoreTest, LoadSlotPreservesTombstones) {
  VersionStore store;
  EXPECT_EQ(store.LoadSlot(Tuple("a", 1)), 0u);
  EXPECT_EQ(store.LoadSlot(std::nullopt), 1u);
  EXPECT_EQ(store.LoadSlot(Tuple("c", 3)), 2u);
  EXPECT_EQ(store.live_count(), 2u);
  EXPECT_EQ(store.version_count(), 3u);
  EXPECT_TRUE(store.Get(1).status().IsNotFound());
  EXPECT_EQ((*store.Get(2))->values[0].AsString(), "c");
}

TEST_F(VersionStoreTest, LoadSlotKeepsClosedVersions) {
  VersionStore store;
  BitemporalTuple closed = Tuple("old", 10);
  closed.txn = Period(Chronon(10), Chronon(20));
  store.LoadSlot(closed);
  store.LoadSlot(Tuple("cur", 20));
  EXPECT_EQ(AsOfRows(store, 15), std::vector<RowId>{0});
  EXPECT_EQ(AsOfRows(store, 25), std::vector<RowId>{1});
  EXPECT_EQ(CurrentStateRows(store), std::vector<RowId>{1});
}

TEST_F(VersionStoreTest, ApproximateBytesGrows) {
  size_t before = store_.ApproximateBytes();
  Transaction* txn = BeginAt(10);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store_.Append(txn, Tuple("some-name", 10)).ok());
  }
  ASSERT_TRUE(manager_.Commit(txn).ok());
  EXPECT_GT(store_.ApproximateBytes(), before);
}

}  // namespace
}  // namespace temporadb
