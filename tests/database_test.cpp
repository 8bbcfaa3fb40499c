#include "core/database.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <string>
#include <vector>

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

// A one-line source whose failing statement stops it before its `commit`
// aborts the transaction it began: a later auto-commit append is its own
// transaction, and a later `begin transaction` succeeds.
TEST_F(DatabaseTest, FailingStatementAbortsTheTransactionItsSourceBegan) {
  ASSERT_TRUE(db_->Execute("create relation u (k = int, n = int)").ok());
  ASSERT_TRUE(db_->Execute("append to u (k = 1, n = 0)").ok());
  ASSERT_TRUE(db_->Execute("range of u is u").ok());
  EXPECT_FALSE(db_->Execute("begin transaction; append to u (k = 2, n = 1); "
                            "delete u where 10 / u.n > 1; "
                            "commit transaction")
                   .ok());
  // The source's own append went with its transaction.
  EXPECT_EQ(db_->Query("retrieve (u.k)")->size(), 1u);
  ASSERT_TRUE(db_->Execute("append to u (k = 3, n = 1)").ok());
  EXPECT_EQ(db_->Query("retrieve (u.k)")->size(), 2u);
  ASSERT_TRUE(db_->Execute("begin transaction").ok());
  ASSERT_TRUE(db_->Execute("abort transaction").ok());
}

// A transaction begun by an earlier call outlives a failing statement of a
// later one, as it always has: the caller still owns it.
TEST_F(DatabaseTest, FailingStatementKeepsAnEarlierCallsTransaction) {
  ASSERT_TRUE(db_->Execute("create relation u (k = int, n = int)").ok());
  ASSERT_TRUE(db_->Execute("append to u (k = 1, n = 0)").ok());
  ASSERT_TRUE(db_->Execute("range of u is u").ok());
  ASSERT_TRUE(db_->Execute("begin transaction").ok());
  ASSERT_TRUE(db_->Execute("append to u (k = 2, n = 1)").ok());
  EXPECT_FALSE(
      db_->Execute("append to u (k = 3, n = 1); delete u where 10 / u.n > 1")
          .ok());
  EXPECT_FALSE(db_->Execute("begin transaction").ok());
  ASSERT_TRUE(db_->Execute("commit transaction").ok());
  EXPECT_EQ(db_->Query("retrieve (u.k)")->size(), 3u);
}

// `append` turns a date-string literal into a date and leaves the type
// check and the int-to-float widening to the relation (`CheckValues`).
TEST_F(DatabaseTest, AppendCoercesThroughTheRelation) {
  ASSERT_TRUE(
      db_->Execute("create relation p (d = date, f = float, s = string)")
          .ok());
  ASSERT_TRUE(db_->Execute("range of p is p").ok());
  ASSERT_TRUE(
      db_->Execute("append to p (d = \"09/01/77\", f = 3, s = \"x\")").ok());
  Result<Rowset> rows = db_->Query("retrieve (p.d, p.f)");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ(rows->Get(0, 0), Value(*Date::Parse("09/01/77")));
  EXPECT_EQ(rows->Get(0, 1).type(), ValueType::kFloat);
  EXPECT_EQ(rows->Get(0, 1), Value(3.0));
  Result<tquel::ExecResult> wrong = db_->Execute("append to p (s = 5)");
  EXPECT_TRUE(wrong.status().IsInvalidArgument());
  EXPECT_EQ(wrong.status().message(),
            "cannot store int value in string attribute");
  EXPECT_FALSE(db_->Execute("append to p (d = \"13/45/77\")").ok());
  EXPECT_EQ(db_->Query("retrieve (p.s)")->size(), 1u);
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

// --- Statement atomicity ---------------------------------------------------

// A DML statement that fails changes nothing, also inside an explicit
// transaction that commits after it: the committed state, and the state
// reopened from the WAL, equal the state before the statement.  Each kind
// gets three failures: a `where` that fails on some candidates, a `replace`
// assignment that fails on a later victim, and a failing `when` (for kinds
// without valid time, a `when` is itself the error).
class StatementAtomicityTest : public ::testing::TestWithParam<const char*> {
 protected:
  ~StatementAtomicityTest() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<Database> Open() {
    DatabaseOptions options;
    options.path = dir_;
    options.clock = &clock_;
    Result<std::unique_ptr<Database>> db = Database::Open(options);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return db.ok() ? std::move(*db) : nullptr;
  }

  // Every stored version of `u`, as `show` lists it.
  static std::vector<Row> Show(Database* db) {
    Result<tquel::ExecResult> r = db->Execute("show u");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return {};
    return std::vector<Row>(r->rows.rows().begin(), r->rows.rows().end());
  }

  // Creates `u (k, n)` holding `rows` (k, n, valid from), runs `stmt` in an
  // explicit transaction, expects it to fail, commits, and checks the
  // state before and after reopening.
  void ExpectNoChange(const std::vector<std::array<int64_t, 2>>& rows,
                      const std::string& stmt) {
    SCOPED_TRACE(stmt);
    const std::string kind = GetParam();
    const bool valid_time = kind == "historical" || kind == "temporal";
    // A fresh database directory per statement.
    std::filesystem::remove_all(dir_);
    dir_ = testing::TempDir() + "/tdb_atomic_" + std::to_string(::getpid()) +
           "_" + std::to_string(counter_++);
    std::filesystem::remove_all(dir_);
    std::vector<Row> before;
    {
      std::unique_ptr<Database> db = Open();
      ASSERT_NE(db, nullptr);
      clock_.SetDate("01/01/84").ok();
      ASSERT_TRUE(db->Execute("create " + kind +
                              " relation u (k = int, n = int)")
                      .ok());
      for (size_t i = 0; i < rows.size(); ++i) {
        // Valid from 01/01/80, 01/01/81, ...: one begin per row.
        const std::string from = "\"01/01/8" + std::to_string(i) + "\"";
        ASSERT_TRUE(db->Execute("append to u (k = " +
                                std::to_string(rows[i][0]) +
                                ", n = " + std::to_string(rows[i][1]) + ")" +
                                (valid_time ? " valid from " + from +
                                                  " to \"inf\""
                                            : ""))
                        .ok());
      }
      before = Show(db.get());
      ASSERT_EQ(before.size(), rows.size());
      clock_.SetDate("01/01/85").ok();
      ASSERT_TRUE(db->Execute("range of u is u").ok());
      ASSERT_TRUE(db->Execute("begin transaction").ok());
      EXPECT_FALSE(db->Execute(stmt).ok());
      ASSERT_TRUE(db->Execute("commit transaction").ok());
      EXPECT_EQ(Show(db.get()), before) << "after commit";
    }
    std::unique_ptr<Database> db = Open();
    ASSERT_NE(db, nullptr);
    EXPECT_EQ(Show(db.get()), before) << "after reopening";
  }

  static int counter_;
  std::string dir_;
  ManualClock clock_;
};

int StatementAtomicityTest::counter_ = 0;

TEST_P(StatementAtomicityTest, FailingWhereChangesNothing) {
  // The first candidate fails; the second would be selected.
  ExpectNoChange({{1, 0}, {2, 1}}, "delete u where 10 / u.n > 1");
  ExpectNoChange({{1, 0}, {2, 1}}, "replace u (n = 5) where 10 / u.n > 1");
}

TEST_P(StatementAtomicityTest, FailingAssignmentChangesNothing) {
  // The first victim computes, the second divides by zero.
  ExpectNoChange({{1, 1}, {2, 0}}, "replace u (n = 10 / u.n)");
}

TEST_P(StatementAtomicityTest, FailingWhenChangesNothing) {
  // `begin of` an empty overlap: only the first candidate's validity
  // (from 01/01/80) contains 06/01/80, so the second fails.
  const std::string when =
      " when begin of (u overlap \"06/01/80\") precede \"01/01/90\"";
  ExpectNoChange({{1, 1}, {2, 1}}, "delete u" + when);
  ExpectNoChange({{1, 1}, {2, 1}}, "replace u (n = 7)" + when);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, StatementAtomicityTest,
                         ::testing::Values("static", "rollback", "historical",
                                           "temporal"));

}  // namespace
}  // namespace temporadb
