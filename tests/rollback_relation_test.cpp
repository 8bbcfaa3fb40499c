#include "temporal/rollback_relation.h"

#include <gtest/gtest.h>

#include <memory>

#include "tests/relation_test_util.h"

namespace temporadb {
namespace {

class RollbackRelationTest : public testutil::RelationFixture {
 protected:
  RollbackRelationTest() { MakeRelation(TemporalClass::kRollback); }

  std::vector<BitemporalTuple> StateAsOf(const char* date) {
    return testutil::ScanSorted(*relation_, testutil::AsOf(Day(date)));
  }

  std::vector<std::string> NamesAsOf(const char* date) {
    std::vector<std::string> names;
    for (const BitemporalTuple& t : StateAsOf(date)) {
      names.push_back(t.values[0].AsString());
    }
    return names;
  }
};

TEST_F(RollbackRelationTest, AppendStampsTransactionTime) {
  ASSERT_TRUE(Append("08/25/77", "Merrie", "associate").ok());
  auto versions = VersionsOf("Merrie");
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions[0].txn, Since("08/25/77"));
  EXPECT_EQ(versions[0].valid, Period::All());  // No valid-time semantics.
}

TEST_F(RollbackRelationTest, ValidClauseRejected) {
  EXPECT_TRUE(Append("01/01/80", "Ann", "full", Since("01/01/79"))
                  .IsNotSupported());
  ASSERT_TRUE(Append("01/01/80", "Ann", "full").ok());
  EXPECT_TRUE(
      Delete("02/01/80", "Ann", Since("01/01/79")).status().IsNotSupported());
  EXPECT_TRUE(Replace("02/01/80", "Ann", "emeritus", Since("01/01/79"))
                  .status()
                  .IsNotSupported());
}

TEST_F(RollbackRelationTest, DeleteClosesButNeverForgets) {
  ASSERT_TRUE(Append("01/10/83", "Mike", "assistant").ok());
  Result<size_t> deleted = Delete("02/25/84", "Mike");
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(*deleted, 1u);
  auto versions = VersionsOf("Mike");
  ASSERT_EQ(versions.size(), 1u);  // Still stored!
  EXPECT_EQ(versions[0].txn, Between("01/10/83", "02/25/84"));
  // Errors "can sometimes be overridden ... but they cannot be forgotten".
  EXPECT_EQ(NamesAsOf("06/01/83"), std::vector<std::string>{"Mike"});
  EXPECT_TRUE(NamesAsOf("03/01/84").empty());
}

TEST_F(RollbackRelationTest, ReplaceAppendsNewStaticState) {
  ASSERT_TRUE(Append("08/25/77", "Merrie", "associate").ok());
  Result<size_t> replaced = Replace("12/15/82", "Merrie", "full");
  ASSERT_TRUE(replaced.ok());
  auto versions = VersionsOf("Merrie");
  ASSERT_EQ(versions.size(), 2u);
  EXPECT_EQ(versions[0].values[1].AsString(), "associate");
  EXPECT_EQ(versions[0].txn, Between("08/25/77", "12/15/82"));
  EXPECT_EQ(versions[1].values[1].AsString(), "full");
  EXPECT_EQ(versions[1].txn, Since("12/15/82"));
}

TEST_F(RollbackRelationTest, RollbackToIncorrectPastState) {
  // "Static rollback DBMS's can rollback to an incorrect previous static
  // relation" — the error stays visible at its historical position.
  ASSERT_TRUE(Append("12/01/82", "Tom", "full").ok());  // Wrong rank.
  ASSERT_TRUE(Replace("12/07/82", "Tom", "associate").ok());
  std::vector<BitemporalTuple> before = StateAsOf("12/03/82");
  ASSERT_EQ(before.size(), 1u);
  EXPECT_EQ(before[0].values[1].AsString(), "full");  // The error, preserved.
  std::vector<BitemporalTuple> after = StateAsOf("12/08/82");
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].values[1].AsString(), "associate");
}

TEST_F(RollbackRelationTest, CommittedVersionsAreImmutable) {
  ASSERT_TRUE(Append("01/01/80", "Ann", "full").ok());
  ASSERT_TRUE(Delete("02/01/80", "Ann").status().ok());
  // Deleting again finds nothing current.
  Result<size_t> again = Delete("03/01/80", "Ann");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 0u);
  // The closed version still has its original period.
  EXPECT_EQ(VersionsOf("Ann")[0].txn, Between("01/01/80", "02/01/80"));
}

TEST_F(RollbackRelationTest, SequenceOfStaticStates) {
  ASSERT_TRUE(Append("01/01/80", "a", "1").ok());
  ASSERT_TRUE(Append("02/01/80", "b", "2").ok());
  ASSERT_TRUE(Delete("03/01/80", "a").status().ok());
  EXPECT_EQ(StateAsOf("01/01/80").size(), 1u);
  EXPECT_EQ(StateAsOf("02/01/80").size(), 2u);
  EXPECT_EQ(NamesAsOf("03/01/80"), std::vector<std::string>{"b"});
}

TEST_F(RollbackRelationTest, SameDayInsertAndDeleteInvisible) {
  ASSERT_TRUE(Append("05/05/80", "Flash", "gone").ok());
  ASSERT_TRUE(Delete("05/05/80", "Flash").status().ok());
  // The version never covered a stored-state chronon.
  EXPECT_TRUE(NamesAsOf("05/05/80").empty());
  EXPECT_TRUE(NamesAsOf("05/06/80").empty());
}

TEST_F(RollbackRelationTest, AbortLeavesNoTrace) {
  ASSERT_TRUE(Append("01/01/80", "Ann", "full").ok());
  clock_.SetDate("02/01/80").ok();
  Result<Transaction*> txn = manager_.Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(DeleteIn(*txn, "Ann").ok());
  ASSERT_TRUE(relation_->Append(*txn, {Value("Bob"), Value("new")},
                                std::nullopt)
                  .ok());
  ASSERT_TRUE(manager_.Abort(*txn).ok());
  EXPECT_EQ(VersionsOf("Ann")[0].txn, Since("01/01/80"));
  EXPECT_TRUE(VersionsOf("Bob").empty());
  EXPECT_EQ(NamesAsOf("03/01/80"), std::vector<std::string>{"Ann"});
}

// --- The same reads as TQuel statements -----------------------------------

// `as of t` reads the static state a replay of the transactions up to `t`
// leaves, as a static relation; before the first transaction it is empty.
TEST(RollbackStatements, AsOfEqualsReplayedPrefix) {
  ManualClock clock;
  std::unique_ptr<Database> db = testutil::Replayed(
      &clock,
      {{"", "create rollback relation r (name = string, rank = string)"},
       {"", "range of x is r"},
       {"01/01/80", "append to r (name = \"a\", rank = \"1\")"},
       {"02/01/80", "append to r (name = \"b\", rank = \"2\")"},
       {"03/01/80", "replace x (rank = \"3\") where x.name = \"a\""},
       {"04/01/80", "delete x where x.name = \"b\""}});
  const auto as_of = [&](const char* date) {
    return testutil::SortedRows(
        db.get(), "retrieve (x.name, x.rank) as of \"" + std::string(date) +
                      "\"");
  };

  std::vector<Row> s1 = as_of("01/15/80");
  ASSERT_EQ(s1.size(), 1u);
  EXPECT_EQ(s1[0].values[1].AsString(), "1");
  EXPECT_EQ(as_of("03/15/80").size(), 2u);
  std::vector<Row> s4 = as_of("04/15/80");
  ASSERT_EQ(s4.size(), 1u);
  EXPECT_EQ(s4[0].values[0].AsString(), "a");
  EXPECT_EQ(s4[0].values[1].AsString(), "3");
  EXPECT_TRUE(as_of("01/01/79").empty());
  // Rollback of a rollback relation is a pure static relation (§4.2).
  Result<Rowset> state =
      db->Query("retrieve (x.name, x.rank) as of \"06/01/80\"");
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_EQ(state->temporal_class(), TemporalClass::kStatic);
  EXPECT_FALSE(state->rows()[0].txn.has_value());
}

// A replace computes the new values from the old version's, which stays
// in the state it belonged to.
TEST(RollbackStatements, ReplaceComputedFromOldValues) {
  ManualClock clock;
  std::unique_ptr<Database> db = testutil::Replayed(
      &clock, {{"", "create rollback relation r (name = string, n = int)"},
               {"", "range of x is r"},
               {"01/01/80", "append to r (name = \"Ann\", n = 1)"},
               {"02/01/80", "replace x (n = x.n + 1) where x.name = \"Ann\""}});
  Result<tquel::ExecResult> show = db->Execute("show r");
  ASSERT_TRUE(show.ok()) << show.status().ToString();
  ASSERT_EQ(show->rows.size(), 2u);
  EXPECT_EQ(show->rows.rows()[1].values[1], Value(int64_t{2}));
  std::vector<Row> before =
      testutil::SortedRows(db.get(), "retrieve (x.n) as of \"01/15/80\"");
  ASSERT_EQ(before.size(), 1u);
  EXPECT_EQ(before[0].values[0], Value(int64_t{1}));
}

}  // namespace
}  // namespace temporadb
