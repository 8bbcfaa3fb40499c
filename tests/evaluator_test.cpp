// Evaluator tests drive TQuel text through a real Database (the evaluator's
// natural habitat), covering statement kinds and evaluation corner cases
// that the paper-scenario test doesn't reach.

#include "tquel/evaluator.h"

#include <gtest/gtest.h>

#include "core/database.h"
#include "tquel/printer.h"

namespace temporadb {
namespace {

class EvaluatorTest : public ::testing::Test {
 protected:
  EvaluatorTest() {
    DatabaseOptions options;
    options.clock = &clock_;
    db_ = std::move(*Database::Open(options));
    clock_.SetDate("01/01/80").ok();
  }

  Result<tquel::ExecResult> Exec(const std::string& src) {
    return db_->Execute(src);
  }
  Status ExecOk(const std::string& src) {
    Result<tquel::ExecResult> r = Exec(src);
    return r.ok() ? Status::OK() : r.status();
  }

  ManualClock clock_;
  std::unique_ptr<Database> db_;
};

TEST_F(EvaluatorTest, CreateAppendRetrieve) {
  ASSERT_TRUE(ExecOk("create relation t (name = string, n = int)").ok());
  ASSERT_TRUE(ExecOk("append to t (name = \"a\", n = 1)").ok());
  ASSERT_TRUE(ExecOk("append to t (name = \"b\", n = 2)").ok());
  ASSERT_TRUE(ExecOk("range of x is t").ok());
  Result<Rowset> rows = db_->Query("retrieve (x.name) where x.n > 1");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ(rows->rows()[0].values[0].AsString(), "b");
}

TEST_F(EvaluatorTest, AppendFillsMissingAttributesWithNull) {
  ASSERT_TRUE(ExecOk("create relation t (name = string, n = int)").ok());
  ASSERT_TRUE(ExecOk("append to t (name = \"only\")").ok());
  ASSERT_TRUE(ExecOk("range of x is t").ok());
  Result<Rowset> rows = db_->Query("retrieve (x.name, x.n)");
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->rows()[0].values[1].is_null());
}

TEST_F(EvaluatorTest, AppendRejectsUnknownAttribute) {
  ASSERT_TRUE(ExecOk("create relation t (name = string)").ok());
  Result<tquel::ExecResult> r = Exec("append to t (nope = \"x\")");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST_F(EvaluatorTest, AppendCoercesDateStrings) {
  ASSERT_TRUE(ExecOk("create relation t (d = date)").ok());
  ASSERT_TRUE(ExecOk("append to t (d = \"12/15/82\")").ok());
  ASSERT_TRUE(ExecOk("range of x is t").ok());
  Result<Rowset> rows = db_->Query("retrieve (x.d)");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows()[0].values[0].AsDate(), *Date::Parse("12/15/82"));
}

TEST_F(EvaluatorTest, ReplaceComputedExpression) {
  ASSERT_TRUE(ExecOk("create relation emp (name = string, salary = int)")
                  .ok());
  ASSERT_TRUE(ExecOk("append to emp (name = \"a\", salary = 1000)").ok());
  ASSERT_TRUE(ExecOk("range of e is emp").ok());
  Result<tquel::ExecResult> r =
      Exec("replace e (salary = e.salary * 2) where e.name = \"a\"");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->count, 1u);
  Result<Rowset> rows = db_->Query("retrieve (e.salary)");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows()[0].values[0].AsInt(), 2000);
}

TEST_F(EvaluatorTest, DeleteWithoutWhereDeletesAll) {
  ASSERT_TRUE(ExecOk("create relation t (n = int)").ok());
  ASSERT_TRUE(ExecOk("append to t (n = 1)").ok());
  ASSERT_TRUE(ExecOk("append to t (n = 2)").ok());
  ASSERT_TRUE(ExecOk("range of x is t").ok());
  Result<tquel::ExecResult> r = Exec("delete x");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->count, 2u);
  EXPECT_EQ(db_->Query("retrieve (x.n)")->size(), 0u);
}

TEST_F(EvaluatorTest, JoinViaTwoRangeVariables) {
  ASSERT_TRUE(ExecOk("create relation emp (name = string, dept = int)")
                  .ok());
  ASSERT_TRUE(
      ExecOk("create relation dept (dname = string, did = int)").ok());
  ASSERT_TRUE(ExecOk("append to emp (name = \"a\", dept = 1)").ok());
  ASSERT_TRUE(ExecOk("append to emp (name = \"b\", dept = 2)").ok());
  ASSERT_TRUE(ExecOk("append to dept (dname = \"cs\", did = 1)").ok());
  ASSERT_TRUE(ExecOk("range of e is emp").ok());
  ASSERT_TRUE(ExecOk("range of d is dept").ok());
  Result<Rowset> rows =
      db_->Query("retrieve (e.name, d.dname) where e.dept = d.did");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ(rows->rows()[0].values[0].AsString(), "a");
  EXPECT_EQ(rows->rows()[0].values[1].AsString(), "cs");
}

TEST_F(EvaluatorTest, RetrieveIntoStoresDerived) {
  ASSERT_TRUE(ExecOk("create relation t (n = int)").ok());
  ASSERT_TRUE(ExecOk("append to t (n = 5)").ok());
  ASSERT_TRUE(ExecOk("range of x is t").ok());
  ASSERT_TRUE(ExecOk("retrieve into snapshot (x.n)").ok());
  Result<Rowset> derived = db_->GetDerived("snapshot");
  ASSERT_TRUE(derived.ok());
  EXPECT_EQ(derived->size(), 1u);
  EXPECT_TRUE(db_->GetDerived("missing").status().IsNotFound());
}

// Each result column holds one type, its schema's: computed bool and float
// targets, a null, a join's computed targets, and aggregate inputs of
// another type than the aggregate's.
TEST_F(EvaluatorTest, ComputedTargetsAreTypedColumns) {
  ASSERT_TRUE(ExecOk("create relation t (name = string, n = int, f = float, "
                     "b = bool, d = date)")
                  .ok());
  ASSERT_TRUE(ExecOk("append to t (name = \"a\", n = 9007199254740993, "
                     "f = 2, b = 1 > 0, d = \"09/01/77\")")
                  .ok());
  ASSERT_TRUE(ExecOk("append to t (name = \"b\", n = 0 - 3, f = 0.5)").ok());
  ASSERT_TRUE(ExecOk("range of x is t").ok());
  ASSERT_TRUE(ExecOk("range of y is t").ok());

  Result<Rowset> rows = db_->Query(
      "retrieve (x.name, big = x.n > 0, half = x.n * 0.5, twice = x.f * 2, "
      "next = x.n + 1, x.b, x.d)");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  const std::vector<ValueType> types = {
      ValueType::kString, ValueType::kBool, ValueType::kFloat,
      ValueType::kFloat,  ValueType::kInt,  ValueType::kBool,
      ValueType::kDate};
  ASSERT_EQ(rows->schema().size(), types.size());
  for (size_t c = 0; c < types.size(); ++c) {
    EXPECT_EQ(rows->schema().at(c).type.value_type(), types[c]) << c;
  }
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ(rows->Get(0, 1), Value(true));
  EXPECT_EQ(rows->Get(1, 1), Value(false));
  EXPECT_EQ(rows->Get(0, 2), Value(9007199254740993.0 * 0.5));
  EXPECT_EQ(rows->Get(1, 3), Value(1.0));
  EXPECT_EQ(rows->Get(0, 4), Value(int64_t{9007199254740994}));
  EXPECT_EQ(rows->Get(0, 6), Value(*Date::Parse("09/01/77")));
  EXPECT_TRUE(rows->Get(1, 5).is_null());
  EXPECT_TRUE(rows->Get(1, 6).is_null());

  Result<Rowset> joined = db_->Query(
      "retrieve (x.name, other = y.name, same = x.n = y.n, both = x.f + y.f) "
      "where x.name <= y.name");
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  ASSERT_EQ(joined->size(), 3u);
  EXPECT_EQ(joined->schema().at(2).type.value_type(), ValueType::kBool);
  EXPECT_EQ(joined->schema().at(3).type.value_type(), ValueType::kFloat);
  EXPECT_EQ(joined->rows()[1].values,
            (std::vector<Value>{Value("a"), Value("b"), Value(false),
                                Value(2.5)}));

  Result<Rowset> agg = db_->Query(
      "retrieve (total = sum(x.f), c = count(x.name), mean = avg(x.n), "
      "top = max(x.name))");
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  ASSERT_EQ(agg->size(), 1u);
  EXPECT_EQ(agg->rows()[0].values,
            (std::vector<Value>{
                Value(2.5), Value(int64_t{2}),
                Value((9007199254740993.0 - 3) / 2), Value("b")}));
}

// `retrieve into` keeps the typed answer: the derived relation equals the
// query's rows, values and periods.
TEST_F(EvaluatorTest, RetrieveIntoKeepsTypedColumns) {
  ASSERT_TRUE(ExecOk("create historical relation t (name = string, "
                     "f = float, d = date)")
                  .ok());
  ASSERT_TRUE(ExecOk("append to t (name = \"a long name, past any small "
                     "buffer\", f = 1.5, d = \"09/01/77\") valid from "
                     "\"01/01/79\" to \"inf\"")
                  .ok());
  ASSERT_TRUE(ExecOk("append to t (name = \"\")").ok());
  ASSERT_TRUE(ExecOk("range of x is t").ok());
  const std::string targets = "(x.name, x.f, x.d, g = x.f > 1.0)";
  ASSERT_TRUE(ExecOk("retrieve into kept " + targets).ok());
  Result<Rowset> derived = db_->GetDerived("kept");
  Result<Rowset> direct = db_->Query("retrieve " + targets);
  ASSERT_TRUE(derived.ok());
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  ASSERT_EQ(derived->size(), 2u);
  EXPECT_TRUE(Rowset::SameContent(*derived, *direct));
  EXPECT_EQ(std::vector<Row>(derived->rows().begin(), derived->rows().end()),
            std::vector<Row>(direct->rows().begin(), direct->rows().end()));
  EXPECT_EQ(derived->Get(0, 0).AsString(),
            "a long name, past any small buffer");
  EXPECT_EQ(derived->Get(1, 0).AsString(), "");
  EXPECT_EQ(derived->valid(0),
            Period::From(Date::Parse("01/01/79")->chronon()));
}

TEST_F(EvaluatorTest, ShowRendersStoredRepresentation) {
  ASSERT_TRUE(
      ExecOk("create temporal relation t (name = string, r = string)").ok());
  ASSERT_TRUE(ExecOk("append to t (name = \"a\", r = \"x\")").ok());
  Result<tquel::ExecResult> r = Exec("show t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->kind, tquel::ExecResult::Kind::kRows);
  std::string rendered = tquel::FormatResult(*r);
  EXPECT_NE(rendered.find("valid time"), std::string::npos);
  EXPECT_NE(rendered.find("transaction time"), std::string::npos);
  EXPECT_NE(rendered.find("temporal relation"), std::string::npos);
}

TEST_F(EvaluatorTest, ValidClauseOverridesResultPeriod) {
  ASSERT_TRUE(
      ExecOk("create historical relation h (name = string)").ok());
  ASSERT_TRUE(ExecOk("append to h (name = \"a\") "
                     "valid from \"01/01/80\" to \"01/01/85\"")
                  .ok());
  ASSERT_TRUE(ExecOk("range of x is h").ok());
  // Default: the tuple's own period.
  Result<Rowset> def = db_->Query("retrieve (x.name)");
  ASSERT_TRUE(def.ok());
  EXPECT_EQ(*def->rows()[0].valid,
            Period(Date::Parse("01/01/80")->chronon(),
                   Date::Parse("01/01/85")->chronon()));
  // Explicit: clipped to the clause.
  Result<Rowset> explicit_period = db_->Query(
      "retrieve (x.name) valid from \"06/01/81\" to \"06/01/82\"");
  ASSERT_TRUE(explicit_period.ok());
  EXPECT_EQ(*explicit_period->rows()[0].valid,
            Period(Date::Parse("06/01/81")->chronon(),
                   Date::Parse("06/01/82")->chronon()));
  // From begin of x to end of x reconstructs the default.
  Result<Rowset> endpoints = db_->Query(
      "retrieve (x.name) valid from begin of x to end of x");
  ASSERT_TRUE(endpoints.ok()) << endpoints.status().ToString();
  EXPECT_EQ(*endpoints->rows()[0].valid, *def->rows()[0].valid);
}

TEST_F(EvaluatorTest, ValidAtProducesEventResult) {
  ASSERT_TRUE(ExecOk("create historical relation h (name = string)").ok());
  ASSERT_TRUE(ExecOk("append to h (name = \"a\")").ok());
  ASSERT_TRUE(ExecOk("range of x is h").ok());
  Result<Rowset> rows =
      db_->Query("retrieve (x.name) valid at begin of x");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->data_model(), TemporalDataModel::kEvent);
  EXPECT_TRUE(rows->rows()[0].valid->IsInstant());
}

TEST_F(EvaluatorTest, EmptyDefaultValidIntersectionDropsRow) {
  ASSERT_TRUE(ExecOk("create historical relation h (name = string)").ok());
  ASSERT_TRUE(ExecOk("append to h (name = \"early\") "
                     "valid from \"01/01/80\" to \"01/01/81\"")
                  .ok());
  ASSERT_TRUE(ExecOk("append to h (name = \"late\") "
                     "valid from \"01/01/82\" to \"01/01/83\"")
                  .ok());
  ASSERT_TRUE(ExecOk("range of a is h").ok());
  ASSERT_TRUE(ExecOk("range of b is h").ok());
  // Pairs whose valid periods are disjoint vanish from the result.
  Result<Rowset> rows = db_->Query(
      "retrieve (n1 = a.name, n2 = b.name) where a.name != b.name");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 0u);
}

TEST_F(EvaluatorTest, AsOfThroughSelectsVersionRange) {
  ASSERT_TRUE(
      ExecOk("create rollback relation r (name = string)").ok());
  clock_.SetDate("01/01/80").ok();
  ASSERT_TRUE(ExecOk("append to r (name = \"v1\")").ok());
  ASSERT_TRUE(ExecOk("range of x is r").ok());
  clock_.SetDate("01/01/81").ok();
  ASSERT_TRUE(ExecOk("replace x (name = \"v2\")").ok());
  clock_.SetDate("01/01/82").ok();
  ASSERT_TRUE(ExecOk("replace x (name = \"v3\")").ok());
  // A single as-of sees one version; through spans several.
  EXPECT_EQ(db_->Query("retrieve (x.name) as of \"06/01/80\"")->size(), 1u);
  Result<Rowset> range = db_->Query(
      "retrieve (x.name) as of \"06/01/80\" through \"06/01/81\"");
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  EXPECT_EQ(range->size(), 2u);
}

TEST_F(EvaluatorTest, DmlErrorsInsidePredicatesPropagate) {
  ASSERT_TRUE(ExecOk("create relation t (name = string, n = int)").ok());
  ASSERT_TRUE(ExecOk("append to t (name = \"a\", n = 1)").ok());
  ASSERT_TRUE(ExecOk("range of x is t").ok());
  // Comparing a string attribute to an int is a type error at evaluation.
  Result<tquel::ExecResult> r = Exec("delete x where x.name = 3");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  // The failed statement must not have deleted anything (auto-abort).
  EXPECT_EQ(db_->Query("retrieve (x.n)")->size(), 1u);
}

TEST_F(EvaluatorTest, CorrectStatementOnHistorical) {
  ASSERT_TRUE(ExecOk("create historical relation h (name = string)").ok());
  ASSERT_TRUE(ExecOk("append to h (name = \"err\")").ok());
  ASSERT_TRUE(ExecOk("range of x is h").ok());
  Result<tquel::ExecResult> r = Exec("correct x where x.name = \"err\"");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->count, 1u);
  EXPECT_EQ(db_->Query("retrieve (x.name)")->size(), 0u);
}

TEST_F(EvaluatorTest, RangeOverUnknownRelationFails) {
  Result<tquel::ExecResult> r = Exec("range of x is nothing");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST_F(EvaluatorTest, DestroyDropsRangesToo) {
  ASSERT_TRUE(ExecOk("create relation t (n = int)").ok());
  ASSERT_TRUE(ExecOk("range of x is t").ok());
  ASSERT_TRUE(ExecOk("destroy t").ok());
  EXPECT_FALSE(Exec("retrieve (x.n)").ok());
}

TEST_F(EvaluatorTest, FormatResultForCounts) {
  ASSERT_TRUE(ExecOk("create relation t (n = int)").ok());
  Result<tquel::ExecResult> r = Exec("append to t (n = 1)");
  ASSERT_TRUE(r.ok());
  std::string rendered = tquel::FormatResult(*r);
  EXPECT_NE(rendered.find("appended 1 tuple"), std::string::npos);
}

}  // namespace
}  // namespace temporadb
