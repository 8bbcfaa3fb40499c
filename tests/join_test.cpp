#include "rel/join.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "rel/operators.h"

namespace temporadb {
namespace {

Schema NV(const char* a, const char* b) {
  return *Schema::Make({Attribute{a, Type::String()},
                        Attribute{b, Type::Int()}});
}

Rowset Employees() {
  Rowset out(NV("name", "dept"), TemporalClass::kStatic);
  for (auto& [n, d] : std::vector<std::pair<const char*, int64_t>>{
           {"merrie", 1}, {"tom", 1}, {"mike", 2}, {"ann", 3}}) {
    Row row;
    row.values = {Value(n), Value(d)};
    EXPECT_TRUE(out.AddRow(std::move(row)).ok());
  }
  return out;
}

Rowset Departments() {
  Rowset out(NV("dname", "did"), TemporalClass::kStatic);
  for (auto& [n, d] : std::vector<std::pair<const char*, int64_t>>{
           {"cs", 1}, {"math", 2}}) {
    Row row;
    row.values = {Value(n), Value(d)};
    EXPECT_TRUE(out.AddRow(std::move(row)).ok());
  }
  return out;
}

TEST(Join, HashEquiJoinBasic) {
  Result<Rowset> out = HashEquiJoin(Employees(), Departments(), {1}, {1});
  ASSERT_TRUE(out.ok());
  // merrie,tom -> cs; mike -> math; ann unmatched.
  EXPECT_EQ(out->size(), 3u);
  EXPECT_EQ(out->schema().size(), 4u);
  for (const Row& row : out->rows()) {
    EXPECT_EQ(row.values[1].AsInt(), row.values[3].AsInt());
  }
}

TEST(Join, HashEquiJoinValidatesKeys) {
  EXPECT_FALSE(HashEquiJoin(Employees(), Departments(), {}, {}).ok());
  EXPECT_FALSE(HashEquiJoin(Employees(), Departments(), {9}, {1}).ok());
  EXPECT_FALSE(HashEquiJoin(Employees(), Departments(), {1}, {9}).ok());
  EXPECT_FALSE(HashEquiJoin(Employees(), Departments(), {0, 1}, {1}).ok());
}

TEST(Join, NestedLoopEquivalentToHashJoin) {
  ExprPtr pred = MakeCompare(CompareOp::kEq, MakeColumnRef(1, "dept"),
                             MakeColumnRef(3, "did"));
  Result<Rowset> nl = NestedLoopJoin(Employees(), Departments(), *pred);
  Result<Rowset> hash = HashEquiJoin(Employees(), Departments(), {1}, {1});
  ASSERT_TRUE(nl.ok());
  ASSERT_TRUE(hash.ok());
  EXPECT_TRUE(Rowset::SameContent(*nl, *hash));
}

TEST(Join, TemporalJoinIntersectsPeriods) {
  // Two historical rowsets: employment and project assignment.
  Rowset emp(NV("name", "x"), TemporalClass::kHistorical);
  Row e;
  e.values = {Value("merrie"), Value(int64_t{1})};
  e.valid = Period(Chronon(0), Chronon(100));
  ASSERT_TRUE(emp.AddRow(e).ok());

  Rowset proj(NV("pname", "y"), TemporalClass::kHistorical);
  Row p1;
  p1.values = {Value("merrie"), Value(int64_t{1})};
  p1.valid = Period(Chronon(50), Chronon(150));
  ASSERT_TRUE(proj.AddRow(p1).ok());
  Row p2;
  p2.values = {Value("merrie"), Value(int64_t{1})};
  p2.valid = Period(Chronon(200), Chronon(300));  // After employment.
  ASSERT_TRUE(proj.AddRow(p2).ok());

  Result<Rowset> out = HashEquiJoin(emp, proj, {0}, {0});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);  // The disjoint pair is dropped.
  EXPECT_EQ(*out->rows()[0].valid, Period(Chronon(50), Chronon(100)));
  EXPECT_EQ(out->temporal_class(), TemporalClass::kHistorical);
}

TEST(Join, RandomizedHashMatchesNestedLoop) {
  Random rng(123);
  auto make = [&](int n, const char* c0, const char* c1) {
    Rowset out(NV(c0, c1), TemporalClass::kStatic);
    for (int i = 0; i < n; ++i) {
      Row row;
      row.values = {Value(rng.NextName(1)),
                    Value(static_cast<int64_t>(rng.Uniform(8)))};
      EXPECT_TRUE(out.AddRow(std::move(row)).ok());
    }
    return out;
  };
  Rowset a = make(60, "an", "ak");
  Rowset b = make(40, "bn", "bk");
  ExprPtr pred = MakeCompare(CompareOp::kEq, MakeColumnRef(1, "ak"),
                             MakeColumnRef(3, "bk"));
  Result<Rowset> nl = NestedLoopJoin(a, b, *pred);
  Result<Rowset> hash = HashEquiJoin(a, b, {1}, {1});
  ASSERT_TRUE(nl.ok());
  ASSERT_TRUE(hash.ok());
  EXPECT_GT(nl->size(), 0u);
  EXPECT_TRUE(Rowset::SameContent(*nl, *hash));
}

TEST(Join, HashEquiJoinRejectsClassesWithoutMeet) {
  // Rollback keeps only transaction time, historical only valid time: no
  // class keeps either, so the join is refused as CrossProduct refuses it.
  Rowset r(NV("name", "k"), TemporalClass::kRollback);
  Row rr;
  rr.values = {Value("a"), Value(int64_t{1})};
  rr.txn = Period(Chronon(0), Chronon(10));
  ASSERT_TRUE(r.AddRow(rr).ok());
  Rowset h(NV("name", "k"), TemporalClass::kHistorical);
  Row hr;
  hr.values = {Value("b"), Value(int64_t{1})};
  hr.valid = Period(Chronon(5), Chronon(25));
  ASSERT_TRUE(h.AddRow(hr).ok());
  for (const auto& [a, b] : {std::pair(&r, &h), std::pair(&h, &r)}) {
    Result<Rowset> out = HashEquiJoin(*a, *b, {1}, {1});
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(Join, MultiKeyJoin) {
  Rowset a(NV("n", "k"), TemporalClass::kStatic);
  Rowset b(NV("m", "j"), TemporalClass::kStatic);
  Row r1;
  r1.values = {Value("x"), Value(int64_t{1})};
  ASSERT_TRUE(a.AddRow(r1).ok());
  ASSERT_TRUE(b.AddRow(r1).ok());
  Row r2;
  r2.values = {Value("x"), Value(int64_t{2})};
  ASSERT_TRUE(b.AddRow(r2).ok());
  Result<Rowset> out = HashEquiJoin(a, b, {0, 1}, {0, 1});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 1u);
}

}  // namespace
}  // namespace temporadb
