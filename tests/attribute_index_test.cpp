// Secondary attribute indexes: version-store maintenance across the whole
// mutation/undo/replay surface, the `create index` TQuel statement, and the
// evaluator's equality fast path (which must be invisible semantically).

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/database.h"
#include "core/paper_scenario.h"
#include "temporal/historical_relation.h"
#include "tests/relation_test_util.h"

namespace temporadb {
namespace {

class AttributeIndexStoreTest : public testutil::RelationFixture {
 protected:
  AttributeIndexStoreTest() { MakeRelation(TemporalClass::kTemporal); }

  std::vector<RowId> Lookup(const char* name) {
    return testutil::IndexRows(*relation_->store(), 0, Value(name));
  }
};

TEST_F(AttributeIndexStoreTest, BackfillsExistingRows) {
  ASSERT_TRUE(Append("01/01/80", "a", "1").ok());
  ASSERT_TRUE(Append("01/01/80", "b", "2").ok());
  ASSERT_TRUE(relation_->CreateIndex("name").ok());
  EXPECT_EQ(Lookup("a").size(), 1u);
  EXPECT_EQ(Lookup("b").size(), 1u);
  EXPECT_TRUE(Lookup("zzz").empty());
}

TEST_F(AttributeIndexStoreTest, CreateIndexValidation) {
  EXPECT_TRUE(relation_->CreateIndex("nope").IsInvalidArgument());
  ASSERT_TRUE(relation_->CreateIndex("name").ok());
  EXPECT_EQ(relation_->CreateIndex("name").code(),
            StatusCode::kAlreadyExists);
  EXPECT_NE(relation_->store()->AttributeIndex(0), nullptr);
  EXPECT_EQ(relation_->store()->AttributeIndex(1), nullptr);
}

TEST_F(AttributeIndexStoreTest, MaintainedAcrossMutations) {
  ASSERT_TRUE(relation_->CreateIndex("name").ok());
  ASSERT_TRUE(Append("01/01/80", "a", "1").ok());
  // A temporal replace closes and appends new versions; all versions of
  // "a" stay indexed (the index is over live versions, not current ones).
  ASSERT_TRUE(Replace("02/01/80", "a", "2", Since("01/01/80")).ok());
  EXPECT_EQ(Lookup("a").size(), 2u);
}

TEST_F(AttributeIndexStoreTest, UndoRestoresIndex) {
  ASSERT_TRUE(relation_->CreateIndex("name").ok());
  ASSERT_TRUE(Append("01/01/80", "a", "1").ok());
  clock_.SetDate("02/01/80").ok();
  Result<Transaction*> txn = manager_.Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(relation_->Append(*txn, {Value("b"), Value("2")},
                                std::nullopt)
                  .ok());
  ASSERT_TRUE(DeleteIn(*txn, "a", Period::All()).ok());
  ASSERT_TRUE(manager_.Abort(*txn).ok());
  EXPECT_EQ(Lookup("a").size(), 1u);
  EXPECT_TRUE(Lookup("b").empty());
}

TEST_F(AttributeIndexStoreTest, HistoricalPhysicalOpsMaintainIndex) {
  MakeRelation(TemporalClass::kHistorical);
  ASSERT_TRUE(relation_->CreateIndex("name").ok());
  ASSERT_TRUE(Append("01/01/80", "a", "1",
                     Between("01/01/80", "01/01/85")).ok());
  // Mid-period delete: in-place update + append (split).
  ASSERT_TRUE(
      Delete("06/01/80", "a", Between("01/01/82", "01/01/83")).ok());
  EXPECT_EQ(Lookup("a").size(), 2u);
  // Physical erase drops both fragments.
  size_t count = 0;
  ASSERT_TRUE(AtDate("07/01/80", [&](Transaction* txn) -> Status {
                TDB_ASSIGN_OR_RETURN(
                    testutil::Selection sel,
                    testutil::SelectEqual(*relation_, txn, 0, Value("a"),
                                          std::nullopt));
                count = sel.victims.size();
                return static_cast<HistoricalRelation*>(relation_.get())
                    ->CorrectErase(txn, sel.victims);
              }).ok());
  EXPECT_EQ(count, 2u);
  EXPECT_TRUE(Lookup("a").empty());
}

class AttributeIndexQueryTest : public ::testing::Test {
 protected:
  AttributeIndexQueryTest() {
    DatabaseOptions options;
    options.clock = &clock_;
    db_ = std::move(*Database::Open(options));
  }

  ManualClock clock_;
  std::unique_ptr<Database> db_;
};

TEST_F(AttributeIndexQueryTest, CreateIndexStatement) {
  ASSERT_TRUE(db_->Execute("create relation t (name = string)").ok());
  Result<tquel::ExecResult> r = db_->Execute("create index on t (name)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->message.find("indexed"), std::string::npos);
  EXPECT_TRUE(db_->Execute("create index on t (name)").status().code() ==
              StatusCode::kAlreadyExists);
  EXPECT_TRUE(
      db_->Execute("create index on t (nope)").status().IsInvalidArgument());
  EXPECT_TRUE(
      db_->Execute("create index on missing (x)").status().IsNotFound());
}

TEST_F(AttributeIndexQueryTest, PaperQueriesIdenticalWithAndWithoutIndex) {
  // Build the paper's temporal faculty twice — indexed and not — and check
  // the bitemporal query answers are identical.
  auto run = [&](bool indexed) -> std::string {
    ManualClock clock;
    DatabaseOptions options;
    options.clock = &clock;
    auto db = std::move(*Database::Open(options));
    EXPECT_TRUE(paper::Replay(db.get(), &clock,
                              paper::FacultyScript("temporal")).ok());
    if (indexed) {
      EXPECT_TRUE(db->Execute("create index on faculty (name)").ok());
    }
    EXPECT_TRUE(db->Execute("range of f1 is faculty").ok());
    EXPECT_TRUE(db->Execute("range of f2 is faculty").ok());
    Result<Rowset> rows = db->Query(
        "retrieve (f1.rank) where f1.name = \"Merrie\" and "
        "f2.name = \"Tom\" when f1 overlap start of f2 as of \"12/10/82\"");
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    return rows.ok() ? rows->Render() : "error";
  };
  EXPECT_EQ(run(false), run(true));
}

TEST_F(AttributeIndexQueryTest, VisibilityRespectedThroughIndexProbe) {
  clock_.SetDate("01/01/80").ok();
  ASSERT_TRUE(
      db_->Execute("create rollback relation r (name = string)").ok());
  ASSERT_TRUE(db_->Execute("create index on r (name)").ok());
  ASSERT_TRUE(db_->Execute("append to r (name = \"x\")").ok());
  ASSERT_TRUE(db_->Execute("range of v is r").ok());
  clock_.SetDate("02/01/80").ok();
  ASSERT_TRUE(db_->Execute("delete v where v.name = \"x\"").ok());
  // The index still holds the closed version; the current-state query must
  // not see it...
  EXPECT_EQ(db_->Query("retrieve (v.name) where v.name = \"x\"")->size(),
            0u);
  // ...while rollback does.
  EXPECT_EQ(db_->Query("retrieve (v.name) where v.name = \"x\" "
                       "as of \"01/15/80\"")
                ->size(),
            1u);
}

TEST_F(AttributeIndexQueryTest, IntAndDateKeys) {
  clock_.SetDate("01/01/80").ok();
  ASSERT_TRUE(db_->Execute(
                    "create relation t (n = int, d = date, s = string)")
                  .ok());
  ASSERT_TRUE(db_->Execute("create index on t (n)").ok());
  ASSERT_TRUE(db_->Execute("create index on t (d)").ok());
  ASSERT_TRUE(db_->Execute(
                    "append to t (n = 7, d = \"12/15/82\", s = \"a\")")
                  .ok());
  ASSERT_TRUE(db_->Execute(
                    "append to t (n = 8, d = \"01/01/83\", s = \"b\")")
                  .ok());
  ASSERT_TRUE(db_->Execute("range of x is t").ok());
  EXPECT_EQ(db_->Query("retrieve (x.s) where x.n = 7")->size(), 1u);
  // Date equality against a string literal goes through coercion and still
  // probes the index.
  Result<Rowset> by_date =
      db_->Query("retrieve (x.s) where x.d = \"01/01/83\"");
  ASSERT_TRUE(by_date.ok()) << by_date.status().ToString();
  ASSERT_EQ(by_date->size(), 1u);
  EXPECT_EQ(by_date->rows()[0].values[0].AsString(), "b");
}

// A stored NaN equals no number: `=` against 2.0 finds the one 2.0 row on
// the walk, through an index maintained while the NaN was written, and
// through one built after it.
TEST(AttributeIndexNaNTest, NaNKeyEqualsNoNumber) {
  const char* query = "retrieve (r.x) where r.x = 2.0";
  for (bool index_first : {false, true}) {
    SCOPED_TRACE(index_first ? "index maintained" : "walk, then backfill");
    ManualClock clock;
    DatabaseOptions options;
    options.clock = &clock;
    std::unique_ptr<Database> db = std::move(*Database::Open(options));
    ASSERT_TRUE(
        db->Execute("create static relation t (x = float, n = int)").ok());
    if (index_first) {
      ASSERT_TRUE(db->Execute("create index on t (x)").ok());
    }
    ASSERT_TRUE(db->Execute("range of r is t").ok());
    ASSERT_TRUE(db->Execute("append to t (x = 1.0, n = 1)").ok());
    ASSERT_TRUE(db->Execute("append to t (x = 2.0, n = 2)").ok());
    const std::string big = "1" + std::string(200, '0') + ".0";  // 1e200
    ASSERT_TRUE(db->Execute("replace r (x = r.x * " + big + " * " + big +
                            ") where r.n = 1")
                    .ok());
    ASSERT_TRUE(db->Execute("replace r (x = r.x - r.x) where r.n = 1")
                    .ok());  // inf - inf
    Result<Rowset> nan = db->Query("retrieve (r.x) where r.n = 1");
    ASSERT_TRUE(nan.ok()) << nan.status().ToString();
    ASSERT_EQ(nan->size(), 1u);
    EXPECT_TRUE(std::isnan(nan->rows()[0].values[0].AsFloat()));

    Result<Rowset> first = db->Query(query);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    EXPECT_EQ(first->size(), 1u);
    if (!index_first) {
      ASSERT_TRUE(db->Execute("create index on t (x)").ok());
      Result<Rowset> probe = db->Query(query);
      ASSERT_TRUE(probe.ok()) << probe.status().ToString();
      EXPECT_EQ(probe->size(), 1u);
    }
  }
}

TEST_F(AttributeIndexQueryTest, NonEqualityPredicatesUnaffected) {
  clock_.SetDate("01/01/80").ok();
  ASSERT_TRUE(db_->Execute("create relation t (n = int)").ok());
  ASSERT_TRUE(db_->Execute("create index on t (n)").ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        db_->Execute("append to t (n = " + std::to_string(i) + ")").ok());
  }
  ASSERT_TRUE(db_->Execute("range of x is t").ok());
  EXPECT_EQ(db_->Query("retrieve (x.n) where x.n > 6")->size(), 3u);
  EXPECT_EQ(db_->Query("retrieve (x.n) where x.n = 3 or x.n = 5")->size(),
            2u);
}

}  // namespace
}  // namespace temporadb
