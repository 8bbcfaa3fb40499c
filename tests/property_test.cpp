// Cross-kind property tests: the taxonomy's semantic identities checked
// over randomized update streams.
//
//  P1  The state as of t of a rollback relation == the static relation
//      obtained by replaying the transaction prefix <= t.
//  P2  The current state of a temporal relation == the historical relation
//      produced by the same stream.
//  P3  The historical state as of t of a temporal relation == the
//      historical relation produced by replaying the prefix <= t.
//  P4  Append-only: committed versions of rollback/temporal relations never
//      mutate; version counts never shrink.

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>

#include "common/random.h"
#include "temporal/coalesce.h"
#include "tests/relation_test_util.h"

namespace temporadb {
namespace {

// One random DML operation.
struct Op {
  enum class Kind { kInsert, kDelete, kReplace } kind;
  std::string name;
  std::string rank;
  int64_t txn_day;
  // Valid period, used only by kinds with valid time.
  int64_t valid_from;
  int64_t valid_to;  // INT64_MAX => open.
};

std::vector<Op> RandomStream(uint64_t seed, int n) {
  Random rng(seed);
  std::vector<Op> ops;
  const char* names[] = {"ann", "bob", "cam", "dee", "eli"};
  const char* ranks[] = {"assistant", "associate", "full"};
  int64_t day = 1000;
  for (int i = 0; i < n; ++i) {
    Op op;
    uint64_t pick = rng.Uniform(10);
    op.kind = pick < 5 ? Op::Kind::kInsert
                       : (pick < 8 ? Op::Kind::kReplace : Op::Kind::kDelete);
    op.name = names[rng.Uniform(5)];
    op.rank = ranks[rng.Uniform(3)];
    day += 1 + static_cast<int64_t>(rng.Uniform(5));
    op.txn_day = day;
    // Valid periods scatter retroactive/postactive around the txn day.
    op.valid_from = day - 20 + static_cast<int64_t>(rng.Uniform(40));
    op.valid_to = rng.OneIn(2)
                      ? std::numeric_limits<int64_t>::max()
                      : op.valid_from + 1 + static_cast<int64_t>(rng.Uniform(30));
    ops.push_back(op);
  }
  return ops;
}

Period ValidOf(const Op& op) {
  Chronon end = op.valid_to == std::numeric_limits<int64_t>::max()
                    ? Chronon::Forever()
                    : Chronon(op.valid_to);
  return Period(Chronon(op.valid_from), end);
}

// Applies one op to a relation inside its own transaction.  `use_valid`
// passes the op's valid period (valid-time kinds only).
Status ApplyOp(StoredRelation* rel, TxnManager* manager, ManualClock* clock,
               const Op& op, bool use_valid) {
  clock->SetTime(Chronon(op.txn_day));
  Result<Transaction*> txn = manager->Begin();
  if (!txn.ok()) return txn.status();
  std::optional<Period> valid;
  if (use_valid) valid = ValidOf(op);
  Status s;
  switch (op.kind) {
    case Op::Kind::kInsert:
      s = rel->Append(*txn, {Value(op.name), Value(op.rank)}, valid);
      break;
    case Op::Kind::kDelete:
      s = testutil::UpdateEqual(rel, *txn, 0, Value(op.name), std::nullopt,
                                valid)
              .status();
      break;
    case Op::Kind::kReplace:
      s = testutil::UpdateEqual(rel, *txn, 0, Value(op.name),
                                std::pair<size_t, Value>{1, Value(op.rank)},
                                valid)
              .status();
      break;
  }
  if (!s.ok()) {
    EXPECT_TRUE(manager->Abort(*txn).ok());
    return s;
  }
  return manager->Commit(*txn);
}

RelationInfo Info(TemporalClass cls) {
  RelationInfo info;
  info.id = 1;
  info.name = "r";
  info.schema = *Schema::Make({Attribute{"name", Type::String()},
                               Attribute{"rank", Type::String()}});
  info.temporal_class = cls;
  return info;
}

// Canonical form of a relation's live content for comparison: coalesced,
// sorted tuples.
std::vector<BitemporalTuple> CanonicalContent(const VersionStore& store,
                                              bool only_current,
                                              bool strip_txn) {
  std::vector<BitemporalTuple> tuples;
  store.ForEach([&](RowId, const BitemporalTuple& t) {
    if (only_current && !t.IsCurrentState()) return;
    BitemporalTuple copy = t;
    if (strip_txn) copy.txn = Period::All();
    tuples.push_back(std::move(copy));
  });
  return Coalesce(std::move(tuples));
}

class StreamPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StreamPropertyTest, P1RollbackEqualsReplayedPrefix) {
  std::vector<Op> ops = RandomStream(GetParam(), 60);
  ManualClock clock;
  TxnManager manager(&clock);
  auto rollback = MakeStoredRelation(Info(TemporalClass::kRollback));
  for (const Op& op : ops) {
    ASSERT_TRUE(
        ApplyOp(rollback.get(), &manager, &clock, op, false).ok());
  }
  // For several probe instants, replay the prefix into a static relation
  // and compare contents.
  for (size_t prefix : {size_t{0}, ops.size() / 3, ops.size() / 2,
                        ops.size() - 1}) {
    int64_t probe = ops[prefix].txn_day;
    ManualClock clock2;
    TxnManager manager2(&clock2);
    auto replay = MakeStoredRelation(Info(TemporalClass::kStatic));
    for (const Op& op : ops) {
      if (op.txn_day > probe) break;
      ASSERT_TRUE(ApplyOp(replay.get(), &manager2, &clock2, op, false).ok());
    }
    std::vector<std::vector<Value>> slice;
    for (const BitemporalTuple& t :
         testutil::ScanSorted(*rollback, testutil::AsOf(Chronon(probe)))) {
      slice.push_back(t.values);
    }
    std::vector<std::vector<Value>> replay_rows;
    replay->store()->ForEach([&](RowId, const BitemporalTuple& t) {
      replay_rows.push_back(t.values);
    });
    std::sort(replay_rows.begin(), replay_rows.end());
    EXPECT_EQ(slice, replay_rows) << "probe day " << probe;
  }
}

TEST_P(StreamPropertyTest, P2TemporalCurrentStateEqualsHistorical) {
  std::vector<Op> ops = RandomStream(GetParam() + 1000, 60);
  ManualClock clock;
  TxnManager manager(&clock);
  auto temporal = MakeStoredRelation(Info(TemporalClass::kTemporal));
  ManualClock clock2;
  TxnManager manager2(&clock2);
  auto historical = MakeStoredRelation(Info(TemporalClass::kHistorical));
  for (const Op& op : ops) {
    ASSERT_TRUE(ApplyOp(temporal.get(), &manager, &clock, op, true).ok());
    ASSERT_TRUE(
        ApplyOp(historical.get(), &manager2, &clock2, op, true).ok());
  }
  EXPECT_EQ(CanonicalContent(*temporal->store(), /*only_current=*/true,
                             /*strip_txn=*/true),
            CanonicalContent(*historical->store(), false, true));
}

TEST_P(StreamPropertyTest, P3TemporalRollbackEqualsReplayedHistorical) {
  std::vector<Op> ops = RandomStream(GetParam() + 2000, 50);
  ManualClock clock;
  TxnManager manager(&clock);
  auto temporal = MakeStoredRelation(Info(TemporalClass::kTemporal));
  for (const Op& op : ops) {
    ASSERT_TRUE(ApplyOp(temporal.get(), &manager, &clock, op, true).ok());
  }
  for (size_t prefix : {ops.size() / 4, ops.size() / 2, ops.size() - 1}) {
    int64_t probe = ops[prefix].txn_day;
    ManualClock clock2;
    TxnManager manager2(&clock2);
    auto replay = MakeStoredRelation(Info(TemporalClass::kHistorical));
    for (const Op& op : ops) {
      if (op.txn_day > probe) break;
      ASSERT_TRUE(ApplyOp(replay.get(), &manager2, &clock2, op, true).ok());
    }
    // The temporal relation's historical state as of `probe`...
    std::vector<BitemporalTuple> got =
        testutil::ScanSorted(*temporal, testutil::AsOf(Chronon(probe)));
    for (BitemporalTuple& t : got) t.txn = Period::All();
    got = Coalesce(std::move(got));
    // ...equals the historical relation built from the prefix.
    EXPECT_EQ(got, CanonicalContent(*replay->store(), false, true))
        << "probe day " << probe;
  }
}

TEST_P(StreamPropertyTest, P4CommittedVersionsNeverMutate) {
  std::vector<Op> ops = RandomStream(GetParam() + 3000, 50);
  ManualClock clock;
  TxnManager manager(&clock);
  auto temporal = MakeStoredRelation(Info(TemporalClass::kTemporal));
  // Snapshot of closed versions after each transaction.
  std::map<RowId, BitemporalTuple> closed;
  size_t last_version_count = 0;
  for (const Op& op : ops) {
    ASSERT_TRUE(ApplyOp(temporal.get(), &manager, &clock, op, true).ok());
    // Version count is monotone (append-only storage).
    EXPECT_GE(temporal->store()->version_count(), last_version_count);
    last_version_count = temporal->store()->version_count();
    // Previously closed versions are bit-identical.
    temporal->store()->ForEach([&](RowId row, const BitemporalTuple& t) {
      auto it = closed.find(row);
      if (it != closed.end()) {
        EXPECT_EQ(it->second, t) << "closed version " << row << " mutated";
      } else if (!t.IsCurrentState()) {
        closed.emplace(row, t);
      }
    });
  }
  EXPECT_GT(closed.size(), 0u);
}

TEST_P(StreamPropertyTest, P5TimesliceConsistency) {
  // For every probe chronon: the valid timeslice of the historical relation
  // equals the set of live tuples whose period contains the probe.
  std::vector<Op> ops = RandomStream(GetParam() + 4000, 40);
  ManualClock clock;
  TxnManager manager(&clock);
  auto historical = MakeStoredRelation(Info(TemporalClass::kHistorical));
  for (const Op& op : ops) {
    ASSERT_TRUE(ApplyOp(historical.get(), &manager, &clock, op, true).ok());
  }
  for (int64_t probe = 980; probe < 1400; probe += 13) {
    std::vector<std::vector<Value>> slice;
    for (const BitemporalTuple& t : testutil::ScanSorted(
             *historical, testutil::ValidAt(Chronon(probe)))) {
      slice.push_back(t.values);
    }
    std::vector<std::vector<Value>> expected;
    historical->store()->ForEach([&](RowId, const BitemporalTuple& t) {
      if (t.valid.Contains(Chronon(probe))) expected.push_back(t.values);
    });
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(slice, expected) << "probe " << probe;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace temporadb
