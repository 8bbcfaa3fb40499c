#include "rel/operators.h"

#include <gtest/gtest.h>

namespace temporadb {
namespace {

Schema NV() {
  return *Schema::Make({Attribute{"name", Type::String()},
                        Attribute{"value", Type::Int()}});
}

Rowset MakeStatic(std::vector<std::pair<const char*, int64_t>> rows) {
  Rowset out(NV(), TemporalClass::kStatic);
  for (auto& [name, value] : rows) {
    Row row;
    row.values = {Value(name), Value(value)};
    EXPECT_TRUE(out.AddRow(std::move(row)).ok());
  }
  return out;
}

Rowset MakeHistorical(
    std::vector<std::tuple<const char*, int64_t, int64_t, int64_t>> rows) {
  Rowset out(NV(), TemporalClass::kHistorical);
  for (auto& [name, value, from, to] : rows) {
    Row row;
    row.values = {Value(name), Value(value)};
    row.valid = Period(Chronon(from), Chronon(to));
    EXPECT_TRUE(out.AddRow(std::move(row)).ok());
  }
  return out;
}

Rowset MakeRollback(
    std::vector<std::tuple<const char*, int64_t, int64_t, int64_t>> rows) {
  Rowset out(NV(), TemporalClass::kRollback);
  for (auto& [name, value, from, to] : rows) {
    Row row;
    row.values = {Value(name), Value(value)};
    row.txn = Period(Chronon(from), Chronon(to));
    EXPECT_TRUE(out.AddRow(std::move(row)).ok());
  }
  return out;
}

TEST(Operators, Select) {
  Rowset input = MakeStatic({{"a", 1}, {"b", 2}, {"c", 3}});
  ExprPtr pred = MakeCompare(CompareOp::kGe, MakeColumnRef(1, "value"),
                             MakeLiteral(Value(int64_t{2})));
  Result<Rowset> out = Select(input, *pred);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 2u);
  EXPECT_EQ(out->temporal_class(), TemporalClass::kStatic);
}

TEST(Operators, SelectPreservesTemporalColumns) {
  Rowset input = MakeHistorical({{"a", 1, 0, 10}, {"b", 2, 5, 15}});
  ExprPtr pred = MakeCompare(CompareOp::kEq, MakeColumnRef(0, "name"),
                             MakeLiteral(Value("b")));
  Result<Rowset> out = Select(input, *pred);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ(*out->rows()[0].valid, Period(Chronon(5), Chronon(15)));
}

TEST(Operators, ProjectComputes) {
  Rowset input = MakeStatic({{"a", 10}, {"b", 20}});
  std::vector<ExprPtr> exprs{
      MakeColumnRef(0, "name"),
      MakeArith(ArithOp::kMul, MakeColumnRef(1, "value"),
                MakeLiteral(Value(int64_t{2})))};
  Result<Rowset> out = Project(input, exprs, {"name", "double"});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->schema().at(1).name, "double");
  EXPECT_EQ(out->rows()[1].values[1].AsInt(), 40);
}

TEST(Operators, ProjectColumns) {
  Rowset input = MakeStatic({{"a", 1}});
  Result<Rowset> out = ProjectColumns(input, {1});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->schema().size(), 1u);
  EXPECT_EQ(out->rows()[0].values[0].AsInt(), 1);
  EXPECT_FALSE(ProjectColumns(input, {5}).ok());
}

TEST(Operators, UnionRequiresCompatibility) {
  Rowset a = MakeStatic({{"a", 1}});
  Rowset b = MakeStatic({{"b", 2}});
  Result<Rowset> u = Union(a, b);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->size(), 2u);
  Rowset h = MakeHistorical({{"c", 3, 0, 10}});
  EXPECT_FALSE(Union(a, h).ok());  // Class mismatch.
  Rowset other(*Schema::Make({Attribute{"x", Type::Int()}}),
               TemporalClass::kStatic);
  EXPECT_FALSE(Union(a, other).ok());  // Schema mismatch.
}

TEST(Operators, DifferenceComparesWholeRows) {
  Rowset a = MakeStatic({{"a", 1}, {"b", 2}, {"c", 3}});
  Rowset b = MakeStatic({{"b", 2}});
  Result<Rowset> d = Difference(a, b);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->size(), 2u);
  for (const Row& row : d->rows()) {
    EXPECT_NE(row.values[0].AsString(), "b");
  }
}

TEST(Operators, Distinct) {
  Rowset input = MakeStatic({{"a", 1}, {"a", 1}, {"b", 2}});
  Rowset out = Distinct(input);
  EXPECT_EQ(out.size(), 2u);
  // Rows differing only in periods stay distinct.
  Rowset hist = MakeHistorical({{"a", 1, 0, 10}, {"a", 1, 10, 20}});
  EXPECT_EQ(Distinct(hist).size(), 2u);
}

TEST(Operators, SortBy) {
  Rowset input = MakeStatic({{"c", 1}, {"a", 3}, {"b", 2}});
  Result<Rowset> by_name = SortBy(input, {0});
  ASSERT_TRUE(by_name.ok());
  EXPECT_EQ(by_name->rows()[0].values[0].AsString(), "a");
  EXPECT_EQ(by_name->rows()[2].values[0].AsString(), "c");
  Result<Rowset> by_value = SortBy(input, {1});
  ASSERT_TRUE(by_value.ok());
  EXPECT_EQ(by_value->rows()[0].values[1].AsInt(), 1);
  EXPECT_FALSE(SortBy(input, {7}).ok());
}

TEST(Operators, CrossProductStatic) {
  Rowset a = MakeStatic({{"a", 1}, {"b", 2}});
  Rowset b = MakeStatic({{"x", 10}});
  Result<Rowset> out = CrossProduct(a, b);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 2u);
  EXPECT_EQ(out->schema().size(), 4u);
  EXPECT_EQ(out->rows()[0].values[2].AsString(), "x");
}

TEST(Operators, CrossProductIntersectsValidPeriods) {
  Rowset a = MakeHistorical({{"a", 1, 0, 10}});
  Rowset b = MakeHistorical({{"x", 9, 5, 15}, {"y", 9, 20, 30}});
  Result<Rowset> out = CrossProduct(a, b);
  ASSERT_TRUE(out.ok());
  // (a, y) never coexist: dropped.
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ(*out->rows()[0].valid, Period(Chronon(5), Chronon(10)));
  EXPECT_EQ(out->temporal_class(), TemporalClass::kHistorical);
}

TEST(Operators, CrossProductClassMeet) {
  Rowset h = MakeHistorical({{"a", 1, 0, 10}});
  Rowset s = MakeStatic({{"x", 9}});
  Result<Rowset> out = CrossProduct(h, s);
  ASSERT_TRUE(out.ok());
  // historical x static = static (the meet).
  EXPECT_EQ(out->temporal_class(), TemporalClass::kStatic);
  EXPECT_FALSE(out->rows()[0].valid.has_value());
}

TEST(Operators, EmptyInputs) {
  Rowset empty(NV(), TemporalClass::kStatic);
  Rowset a = MakeStatic({{"a", 1}});
  EXPECT_EQ(CrossProduct(a, empty)->size(), 0u);
  ExprPtr t = MakeLiteral(Value(true));
  EXPECT_EQ(Select(empty, *t)->size(), 0u);
  EXPECT_EQ(Distinct(empty).size(), 0u);
}

TEST(Operators, CrossProductRejectsClassesWithoutMeet) {
  // Rollback maintains only transaction time, historical only valid time:
  // their product has no class that keeps either dimension.
  Rowset r = MakeRollback({{"a", 1, 0, 10}});
  Rowset h = MakeHistorical({{"x", 7, 5, 25}});
  Result<Rowset> product = CrossProduct(r, h);
  ASSERT_FALSE(product.ok());
  EXPECT_EQ(product.status().code(), StatusCode::kInvalidArgument);
}

TEST(Operators, CrossProductAcceptsComparableClasses) {
  // historical x static has a meet (historical): still fine.
  Rowset h = MakeHistorical({{"x", 7, 5, 25}});
  Rowset s = MakeStatic({{"a", 1}});
  Result<Rowset> product = CrossProduct(h, s);
  ASSERT_TRUE(product.ok());
  // The meet keeps only the capabilities BOTH operands maintain.
  EXPECT_EQ(product->temporal_class(), TemporalClass::kStatic);
  // temporal x rollback and temporal x historical also meet.
  EXPECT_TRUE(HasMeetClass(TemporalClass::kTemporal, TemporalClass::kRollback));
  EXPECT_TRUE(
      HasMeetClass(TemporalClass::kTemporal, TemporalClass::kHistorical));
  EXPECT_FALSE(
      HasMeetClass(TemporalClass::kRollback, TemporalClass::kHistorical));
}

}  // namespace
}  // namespace temporadb
