#include "temporal/static_relation.h"

#include <gtest/gtest.h>

#include "tests/relation_test_util.h"

namespace temporadb {
namespace {

class StaticRelationTest : public testutil::RelationFixture {
 protected:
  StaticRelationTest() { MakeRelation(TemporalClass::kStatic); }
};

TEST_F(StaticRelationTest, AppendStoresDegeneratePeriods) {
  ASSERT_TRUE(Append("01/01/80", "Merrie", "full").ok());
  auto versions = VersionsOf("Merrie");
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions[0].valid, Period::All());
  EXPECT_EQ(versions[0].txn, Period::All());
}

TEST_F(StaticRelationTest, ValidClauseRejected) {
  // "retroactive change" on a static relation is the taxonomy violation.
  Status s = Append("01/01/80", "Merrie", "full", Since("01/01/79"));
  EXPECT_TRUE(s.IsNotSupported());
  Result<size_t> del = Delete("01/01/80", "Merrie", Since("01/01/79"));
  EXPECT_TRUE(del.status().IsNotSupported());
  Result<size_t> rep = Replace("01/01/80", "Merrie", "full",
                               Since("01/01/79"));
  EXPECT_TRUE(rep.status().IsNotSupported());
}

TEST_F(StaticRelationTest, DeleteDestroysPast) {
  ASSERT_TRUE(Append("01/01/80", "Merrie", "associate").ok());
  ASSERT_TRUE(Append("01/01/80", "Tom", "associate").ok());
  Result<size_t> deleted = Delete("02/01/80", "Merrie");
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(*deleted, 1u);
  EXPECT_EQ(LiveCount(), 1u);
  // "past states of the database ... are discarded and forgotten
  // completely": no trace of Merrie remains.
  EXPECT_TRUE(VersionsOf("Merrie").empty());
}

TEST_F(StaticRelationTest, ReplaceOverwritesInPlace) {
  ASSERT_TRUE(Append("01/01/80", "Merrie", "associate").ok());
  Result<size_t> replaced = Replace("02/01/80", "Merrie", "full");
  ASSERT_TRUE(replaced.ok());
  EXPECT_EQ(*replaced, 1u);
  auto versions = VersionsOf("Merrie");
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions[0].values[1].AsString(), "full");
  EXPECT_EQ(LiveCount(), 1u);  // No history kept.
}

TEST_F(StaticRelationTest, DeleteMatchingNone) {
  ASSERT_TRUE(Append("01/01/80", "Merrie", "full").ok());
  Result<size_t> deleted = Delete("02/01/80", "Nobody");
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(*deleted, 0u);
  EXPECT_EQ(LiveCount(), 1u);
}

TEST_F(StaticRelationTest, SchemaViolationsRejected) {
  Status wrong_arity = AtDate("01/01/80", [&](Transaction* txn) {
    return relation_->Append(txn, {Value("only-one")}, std::nullopt);
  });
  EXPECT_TRUE(wrong_arity.IsInvalidArgument());
  Status wrong_type = AtDate("01/01/80", [&](Transaction* txn) {
    return relation_->Append(txn, {Value("n"), Value(int64_t{7})},
                             std::nullopt);
  });
  EXPECT_TRUE(wrong_type.IsInvalidArgument());
}

TEST_F(StaticRelationTest, AbortRestoresPriorState) {
  ASSERT_TRUE(Append("01/01/80", "Merrie", "associate").ok());
  clock_.SetDate("02/01/80").ok();
  Result<Transaction*> txn = manager_.Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(relation_->Append(*txn, {Value("Tom"), Value("full")},
                                std::nullopt)
                  .ok());
  Result<size_t> deleted = DeleteIn(*txn, "Merrie");
  ASSERT_TRUE(deleted.ok());
  ASSERT_TRUE(manager_.Abort(*txn).ok());
  EXPECT_EQ(VersionsOf("Merrie").size(), 1u);
  EXPECT_TRUE(VersionsOf("Tom").empty());
}

// --- DML as TQuel statements --------------------------------------------

// A replace computes the new values from each victim's old ones.
TEST(StaticStatements, ComputedReplace) {
  ManualClock clock;
  std::unique_ptr<Database> db = testutil::Replayed(
      &clock, {{"", "create static relation r (name = string, n = int)"},
               {"", "range of x is r"},
               {"01/01/80", "append to r (name = \"Merrie\", n = 1)"},
               {"02/01/80", "replace x (n = x.n * 10 + 1) "
                            "where x.name = \"Merrie\""}});
  std::vector<Row> rows = testutil::SortedRows(db.get(), "retrieve (x.n)");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].values[0], Value(int64_t{11}));
}

// Only a historical relation can be corrected.
TEST(StaticStatements, CorrectNotSupported) {
  ManualClock clock;
  std::unique_ptr<Database> db = testutil::Replayed(
      &clock, {{"", "create static relation r (name = string)"},
               {"", "range of x is r"},
               {"01/01/80", "append to r (name = \"x\")"}});
  EXPECT_TRUE(
      db->Execute("correct x where x.name = \"x\"").status().IsNotSupported());
  EXPECT_EQ(testutil::SortedRows(db.get(), "retrieve (x.name)").size(), 1u);
}

}  // namespace
}  // namespace temporadb
