#include "core/database.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace temporadb {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  DatabaseTest() {
    DatabaseOptions options;
    options.clock = &clock_;
    db_ = std::move(*Database::Open(options));
    clock_.SetDate("01/01/80").ok();
  }

  ManualClock clock_;
  std::unique_ptr<Database> db_;
};

TEST_F(DatabaseTest, ProgrammaticDdl) {
  Schema schema = *Schema::Make({Attribute{"name", Type::String()}});
  Result<RelationInfo> info =
      db_->CreateRelation("t", schema, TemporalClass::kTemporal);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(db_->GetRelation("t").ok());
  EXPECT_EQ(db_->ListRelations().size(), 1u);
  ASSERT_TRUE(db_->DropRelation("t").ok());
  EXPECT_TRUE(db_->GetRelation("t").status().IsNotFound());
  EXPECT_TRUE(db_->DropRelation("t").IsNotFound());
}

TEST_F(DatabaseTest, DuplicateRelationRejected) {
  Schema schema = *Schema::Make({Attribute{"name", Type::String()}});
  ASSERT_TRUE(db_->CreateRelation("t", schema, TemporalClass::kStatic).ok());
  EXPECT_EQ(db_->CreateRelation("t", schema, TemporalClass::kStatic)
                .status()
                .code(),
            StatusCode::kAlreadyExists);
}

TEST_F(DatabaseTest, ExplicitTransactionSpansStatements) {
  ASSERT_TRUE(db_->Execute("create relation t (n = int)").ok());
  Result<Transaction*> txn = db_->Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(db_->Execute("append to t (n = 1)").ok());
  ASSERT_TRUE(db_->Execute("append to t (n = 2)").ok());
  ASSERT_TRUE(db_->Commit(*txn).ok());
  ASSERT_TRUE(db_->Execute("range of x is t").ok());
  EXPECT_EQ(db_->Query("retrieve (x.n)")->size(), 2u);
}

TEST_F(DatabaseTest, ExplicitAbortUndoesAllStatements) {
  ASSERT_TRUE(db_->Execute("create relation t (n = int)").ok());
  ASSERT_TRUE(db_->Execute("append to t (n = 1)").ok());
  ASSERT_TRUE(db_->Execute("range of x is t").ok());
  Result<Transaction*> txn = db_->Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(db_->Execute("append to t (n = 2)").ok());
  ASSERT_TRUE(db_->Execute("delete x where x.n = 1").ok());
  ASSERT_TRUE(db_->Abort(*txn).ok());
  Result<Rowset> rows = db_->Query("retrieve (x.n)");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ(rows->rows()[0].values[0].AsInt(), 1);
}

TEST_F(DatabaseTest, WithTransactionCommitsOnOk) {
  ASSERT_TRUE(db_->Execute("create relation t (n = int)").ok());
  Status s = db_->WithTransaction([&](Transaction*) -> Status {
    Result<tquel::ExecResult> r = db_->Execute("append to t (n = 7)");
    return r.ok() ? Status::OK() : r.status();
  });
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(db_->Execute("range of x is t").ok());
  EXPECT_EQ(db_->Query("retrieve (x.n)")->size(), 1u);
}

TEST_F(DatabaseTest, WithTransactionAbortsOnError) {
  ASSERT_TRUE(db_->Execute("create relation t (n = int)").ok());
  Status s = db_->WithTransaction([&](Transaction*) -> Status {
    Result<tquel::ExecResult> r = db_->Execute("append to t (n = 7)");
    EXPECT_TRUE(r.ok());
    return Status::Aborted("change of heart");
  });
  EXPECT_EQ(s.code(), StatusCode::kAborted);
  ASSERT_TRUE(db_->Execute("range of x is t").ok());
  EXPECT_EQ(db_->Query("retrieve (x.n)")->size(), 0u);
}

TEST_F(DatabaseTest, MultiStatementExecuteReturnsLastResult) {
  Result<tquel::ExecResult> r = db_->Execute(
      "create relation t (n = int); append to t (n = 1); "
      "range of x is t; retrieve (x.n)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->kind, tquel::ExecResult::Kind::kRows);
  EXPECT_EQ(r->rows.size(), 1u);
}

TEST_F(DatabaseTest, NowFollowsClock) {
  clock_.SetDate("12/15/82").ok();
  EXPECT_EQ(db_->Now(), Date::Parse("12/15/82")->chronon());
}

TEST_F(DatabaseTest, QueryRejectsNonRowStatements) {
  ASSERT_TRUE(db_->Execute("create relation t (n = int)").ok());
  EXPECT_FALSE(db_->Query("append to t (n = 1)").ok());
}

TEST_F(DatabaseTest, EmptySourceRejected) {
  EXPECT_FALSE(db_->Execute("").ok());
  EXPECT_FALSE(db_->Execute("   -- just a comment").ok());
}

TEST_F(DatabaseTest, InMemoryDatabaseHasNoWal) {
  EXPECT_EQ(db_->WalBytes(), 0u);
  EXPECT_TRUE(db_->Checkpoint().ok());  // No-op.
}

TEST_F(DatabaseTest, DeleteKeepsAsOfStateAndRemnant) {
  ASSERT_TRUE(db_->Execute("create temporal relation t (name = string)").ok());
  ASSERT_TRUE(db_->Execute("append to t (name = \"a\")").ok());
  clock_.SetDate("01/01/81").ok();
  ASSERT_TRUE(db_->Execute("range of x is t").ok());
  ASSERT_TRUE(db_->Execute("delete x").ok());
  Result<Rowset> asof = db_->Query("retrieve (x.name) as of \"06/01/80\"");
  ASSERT_TRUE(asof.ok());
  EXPECT_EQ(asof->size(), 1u);
  // The current state keeps the remnant fact "a was valid over
  // [01/01/80, 01/01/81)"; its validity must end at the deletion.
  Result<Rowset> now = db_->Query("retrieve (x.name)");
  ASSERT_TRUE(now.ok());
  ASSERT_EQ(now->size(), 1u);
  EXPECT_EQ(now->rows()[0].valid->end(), Date::Parse("01/01/81")->chronon());
  // And the fact is gone from any timeslice at or after the deletion.
  Result<Rowset> later =
      db_->Query("retrieve (x.name) when x overlap \"06/01/81\"");
  ASSERT_TRUE(later.ok());
  EXPECT_EQ(later->size(), 0u);
}

// "name:n" per row, sorted: a set view of a two-column answer.
std::vector<std::string> Facts(const Result<Rowset>& rows) {
  std::vector<std::string> out;
  if (!rows.ok()) {
    out.push_back("error: " + rows.status().ToString());
    return out;
  }
  for (const Row& row : rows->rows()) {
    out.push_back(row.values[0].AsString() + ":" +
                  std::to_string(row.values[1].AsInt()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Writer reads run at the head pin, which includes the open transaction's
// own appends and closes: inside `Begin()`, a query sees the versions the
// transaction wrote and not the ones it superseded, a read snapshot taken
// before `Begin()` sees none of it, and after `Abort` the writer reads the
// state from before the transaction.
TEST_F(DatabaseTest, ReadYourWritesInsideATransaction) {
  const char* kKinds[] = {"", "rollback ", "historical ", "temporal "};
  for (const char* kind : kKinds) {
    SCOPED_TRACE(std::string("kind: ") + kind);
    ManualClock clock;
    ASSERT_TRUE(clock.SetDate("01/01/80").ok());
    DatabaseOptions options;
    options.clock = &clock;
    std::unique_ptr<Database> db = std::move(*Database::Open(options));
    ASSERT_TRUE(db->Execute(std::string("create ") + kind +
                            "relation r (name = string, n = int)")
                    .ok());
    StoredRelation* rel = *db->GetRelation("r");
    const bool txn_time = SupportsTransactionTime(rel->temporal_class());
    const bool valid_time = SupportsValidTime(rel->temporal_class());
    ASSERT_TRUE(db->Execute("range of x is r").ok());
    ASSERT_TRUE(db->Execute("append to r (name = \"a\", n = 1)").ok());
    ASSERT_TRUE(db->Execute("append to r (name = \"b\", n = 2)").ok());
    ASSERT_TRUE(clock.SetDate("01/01/81").ok());

    // With valid time, superseded facts leave remnants valid before the
    // change; the state valid on the transaction's day is the one to check.
    const std::string at_now =
        valid_time ? " when x overlap \"01/01/81\"" : "";
    const std::string now_query = "retrieve (x.name, x.n)" + at_now;
    const std::vector<std::string> before = {"a:1", "b:2"};
    const std::vector<std::string> after = {"a:10", "c:3"};

    Result<ReadSnapshot> snap = db->BeginReadSnapshot();
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    Result<Transaction*> txn = db->Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(db->Execute("append to r (name = \"c\", n = 3)").ok());
    if (!txn_time) {
      // In-place corrections are fenced off while a snapshot is pinned.
      EXPECT_EQ(Facts(db->QueryAtSnapshot(*snap, now_query)), before);
      snap->Release();
    }
    ASSERT_TRUE(
        db->Execute("replace x (n = 10) where x.name = \"a\"").ok());
    ASSERT_TRUE(db->Execute("delete x where x.name = \"b\"").ok());

    EXPECT_EQ(Facts(db->Query(now_query)), after);
    if (txn_time) {
      // The transaction's own state is the one as of its timestamp; the
      // state as of the day before is the one it superseded.
      EXPECT_EQ(Facts(db->Query("retrieve (x.name, x.n) as of \"01/01/81\"" +
                                at_now)),
                after);
      EXPECT_EQ(Facts(db->Query("retrieve (x.name, x.n) as of \"12/31/80\"" +
                                at_now)),
                before);
      EXPECT_EQ(Facts(db->QueryAtSnapshot(*snap, now_query)), before);
    }

    ASSERT_TRUE(db->Abort(*txn).ok());
    EXPECT_EQ(Facts(db->Query(now_query)), before);
    EXPECT_EQ(Facts(db->Query("retrieve (x.name, x.n)")), before);
  }
}

}  // namespace
}  // namespace temporadb
