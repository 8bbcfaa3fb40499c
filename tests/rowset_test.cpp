#include "rel/relation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "rel/aggregate.h"

namespace temporadb {
namespace {

Schema FacultySchema() {
  return *Schema::Make({Attribute{"name", Type::String()},
                        Attribute{"rank", Type::String()}});
}

Row StaticRow(const char* name, const char* rank) {
  Row row;
  row.values = {Value(name), Value(rank)};
  return row;
}

TEST(Rowset, ClassDeterminesPeriodDiscipline) {
  Rowset stat(FacultySchema(), TemporalClass::kStatic);
  EXPECT_FALSE(stat.has_valid_time());
  EXPECT_FALSE(stat.has_txn_time());
  EXPECT_TRUE(stat.AddRow(StaticRow("Merrie", "full")).ok());
  // A static rowset must not carry periods.
  Row bad = StaticRow("Tom", "associate");
  bad.valid = Period::All();
  EXPECT_TRUE(stat.AddRow(bad).IsInvalidArgument());
}

TEST(Rowset, HistoricalRequiresValidPeriod) {
  Rowset hist(FacultySchema(), TemporalClass::kHistorical);
  EXPECT_TRUE(hist.AddRow(StaticRow("Merrie", "full")).IsInvalidArgument());
  Row good = StaticRow("Merrie", "full");
  good.valid = Period::From(Chronon(0));
  EXPECT_TRUE(hist.AddRow(good).ok());
}

TEST(Rowset, TemporalRequiresBoth) {
  Rowset temp(FacultySchema(), TemporalClass::kTemporal);
  Row row = StaticRow("Merrie", "full");
  row.valid = Period::All();
  EXPECT_FALSE(temp.AddRow(row).ok());
  row.txn = Period::All();
  EXPECT_TRUE(temp.AddRow(row).ok());
  EXPECT_EQ(temp.size(), 1u);
}

TEST(Rowset, ArityChecked) {
  Rowset stat(FacultySchema(), TemporalClass::kStatic);
  Row row;
  row.values = {Value("only-one")};
  EXPECT_TRUE(stat.AddRow(row).IsInvalidArgument());
}

TEST(Rowset, InPlaceBuildingKeepsTheClassPeriods) {
  Rowset hist(FacultySchema(), TemporalClass::kHistorical);
  const Period valid = Period::From(Chronon(3));
  const std::vector<Value> names = {Value("Merrie"), Value("Tom")};
  for (size_t i = 0; i < names.size(); ++i) {
    hist.AddPeriods(valid, Period::At(Chronon(9)));
    ASSERT_TRUE(hist.Push(1, Value("full")).ok());
  }
  ASSERT_TRUE(hist.Gather(0, names.size(), [&](size_t j) -> const Value& {
                    return names[j];
                  }).ok());
  ASSERT_EQ(hist.size(), 2u);
  EXPECT_EQ(hist.rows()[1].values[0], Value("Tom"));
  EXPECT_EQ(hist.rows()[1].values[1], Value("full"));
  // A historical rowset keeps the valid period and drops the transaction
  // period, as AddRow would require.
  EXPECT_EQ(hist.rows()[0].valid, valid);
  EXPECT_FALSE(hist.rows()[0].txn.has_value());
}

TEST(Rowset, RenderStaticHasNoTemporalColumns) {
  Rowset stat(FacultySchema(), TemporalClass::kStatic);
  ASSERT_TRUE(stat.AddRow(StaticRow("Merrie", "full")).ok());
  std::string out = stat.Render();
  EXPECT_NE(out.find("Merrie"), std::string::npos);
  EXPECT_EQ(out.find("valid time"), std::string::npos);
  EXPECT_EQ(out.find("transaction time"), std::string::npos);
}

TEST(Rowset, RenderTemporalShowsPaperColumns) {
  Rowset temp(FacultySchema(), TemporalClass::kTemporal);
  Row row = StaticRow("Merrie", "associate");
  row.valid = Period(Date::Parse("09/01/77")->chronon(),
                     Date::Parse("12/01/82")->chronon());
  row.txn = Period::From(Date::Parse("12/15/82")->chronon());
  ASSERT_TRUE(temp.AddRow(row).ok());
  std::string out = temp.Render("Figure 8 : A Temporal Relation");
  EXPECT_NE(out.find("valid time"), std::string::npos);
  EXPECT_NE(out.find("transaction time"), std::string::npos);
  EXPECT_NE(out.find("(from)"), std::string::npos);
  EXPECT_NE(out.find("(start)"), std::string::npos);
  EXPECT_NE(out.find("09/01/77"), std::string::npos);
  EXPECT_NE(out.find("inf"), std::string::npos);
}

TEST(Rowset, RenderEventShowsAtColumn) {
  Rowset ev(FacultySchema(), TemporalClass::kHistorical,
            TemporalDataModel::kEvent);
  Row row = StaticRow("Merrie", "full");
  row.valid = Period::At(Date::Parse("12/11/82")->chronon());
  ASSERT_TRUE(ev.AddRow(row).ok());
  std::string out = ev.Render();
  EXPECT_NE(out.find("(at)"), std::string::npos);
  EXPECT_EQ(out.find("(from)"), std::string::npos);
  EXPECT_NE(out.find("12/11/82"), std::string::npos);
}

TEST(Rowset, SameContentIgnoresOrder) {
  Rowset a(FacultySchema(), TemporalClass::kStatic);
  Rowset b(FacultySchema(), TemporalClass::kStatic);
  ASSERT_TRUE(a.AddRow(StaticRow("x", "1")).ok());
  ASSERT_TRUE(a.AddRow(StaticRow("y", "2")).ok());
  ASSERT_TRUE(b.AddRow(StaticRow("y", "2")).ok());
  ASSERT_TRUE(b.AddRow(StaticRow("x", "1")).ok());
  EXPECT_TRUE(Rowset::SameContent(a, b));
  ASSERT_TRUE(b.AddRow(StaticRow("z", "3")).ok());
  EXPECT_FALSE(Rowset::SameContent(a, b));
}

TEST(Rowset, SameContentDistinguishesClass) {
  Rowset a(FacultySchema(), TemporalClass::kStatic);
  Rowset b(FacultySchema(), TemporalClass::kHistorical);
  EXPECT_FALSE(Rowset::SameContent(a, b));
}

// --- Typed columns ----------------------------------------------------------

Schema EveryType() {
  return *Schema::Make({Attribute{"i", Type::Int()},
                        Attribute{"f", Type::Float()},
                        Attribute{"s", Type::String()},
                        Attribute{"d", Type::DateType()},
                        Attribute{"b", Type::Bool()}});
}

Row TypedRow(Value i, Value f, Value s, Value d, Value b) {
  Row row;
  row.values = {std::move(i), std::move(f), std::move(s), std::move(d),
                std::move(b)};
  return row;
}

// The rows of `EveryType()` the round-trip tests store: a null in every
// column, the float corner cases, ints and floats at 2^53 +- 1, the empty
// string, a string longer than any small-string buffer, and dates.
std::vector<Row> CornerRows() {
  constexpr int64_t k53 = int64_t{1} << 53;
  const std::string long_string(100, 'x');
  const Value date(*Date::Parse("09/01/77"));
  std::vector<Row> rows;
  rows.push_back(TypedRow(Value::Null(), Value::Null(), Value::Null(),
                          Value::Null(), Value::Null()));
  rows.push_back(TypedRow(Value(k53 + 1), Value(std::nan("")), Value(""),
                          date, Value(true)));
  rows.push_back(TypedRow(Value(-(k53 + 1)), Value(-0.0),
                          Value(long_string), Value(Date::Forever()),
                          Value(false)));
  rows.push_back(TypedRow(Value(k53 - 1), Value(static_cast<double>(k53 + 2)),
                          Value("a"), Value(Date::Beginning()),
                          Value::Null()));
  rows.push_back(TypedRow(Value(-(k53 - 1)),
                          Value(-static_cast<double>(k53 - 1)), Value::Null(),
                          date, Value(true)));
  rows.push_back(TypedRow(Value(std::numeric_limits<int64_t>::min()),
                          Value(std::numeric_limits<double>::infinity()),
                          Value(long_string + "y"), Value::Null(),
                          Value(false)));
  return rows;
}

// Equal as `Value`s and, for floats, bit for bit (-0.0 == 0.0 and NaN ==
// NaN under `==`).
void ExpectSameValues(const Row& got, const Row& want) {
  ASSERT_EQ(got.values.size(), want.values.size());
  for (size_t i = 0; i < want.values.size(); ++i) {
    EXPECT_EQ(got.values[i].type(), want.values[i].type()) << i;
    EXPECT_EQ(got.values[i], want.values[i]) << i;
    if (want.values[i].type() == ValueType::kFloat) {
      EXPECT_EQ(std::signbit(got.values[i].AsFloat()),
                std::signbit(want.values[i].AsFloat()));
      EXPECT_EQ(std::isnan(got.values[i].AsFloat()),
                std::isnan(want.values[i].AsFloat()));
    }
  }
}

TEST(TypedColumns, EveryValueRoundTripsThroughTheRowView) {
  Rowset rs(EveryType(), TemporalClass::kTemporal);
  const std::vector<Row> want = CornerRows();
  for (size_t k = 0; k < want.size(); ++k) {
    Row row = want[k];
    row.valid = Period(Chronon(k), Chronon(10 + k));
    row.txn = Period::From(Chronon(k));
    rs.rows().push_back(std::move(row));
  }
  ASSERT_EQ(rs.size(), want.size());
  size_t k = 0;
  for (const Row& got : rs.rows()) {
    SCOPED_TRACE(k);
    ExpectSameValues(got, want[k]);
    EXPECT_EQ(got.valid, Period(Chronon(k), Chronon(10 + k)));
    EXPECT_EQ(got.txn, Period::From(Chronon(k)));
    ++k;
  }
  EXPECT_EQ(k, want.size());
  // Cell access agrees with the row view; a null keeps its column's slot.
  EXPECT_TRUE(rs.Get(0, 2).is_null());
  EXPECT_EQ(rs.Get(2, 2).AsString(), std::string(100, 'x'));
  EXPECT_EQ(rs.Get(5, 2).AsString(), std::string(100, 'x') + "y");
  EXPECT_EQ(rs.Get(1, 2).AsString(), "");
  EXPECT_TRUE(rs.Get(3, 4).is_null());
  EXPECT_EQ(rs.valid(3), Period(Chronon(3), Chronon(13)));
}

TEST(TypedColumns, GatherAndPushMatchAddRow) {
  const std::vector<Row> want = CornerRows();
  Rowset by_row(EveryType(), TemporalClass::kStatic);
  for (const Row& row : want) ASSERT_TRUE(by_row.AddRow(row).ok());
  // Columns 0-2 a run at a time, 3-4 a value at a time.
  Rowset in_place(EveryType(), TemporalClass::kStatic);
  for (size_t k = 0; k < want.size(); ++k) {
    in_place.AddPeriods(Period::All(), Period::All());
    ASSERT_TRUE(in_place.Push(3, want[k].values[3]).ok());
    ASSERT_TRUE(in_place.Push(4, want[k].values[4]).ok());
  }
  for (size_t col = 0; col < 3; ++col) {
    ASSERT_TRUE(in_place
                    .Gather(col, want.size(),
                            [&](size_t j) -> const Value& {
                              return want[j].values[col];
                            })
                    .ok());
  }
  ASSERT_EQ(in_place.size(), want.size());
  for (size_t k = 0; k < want.size(); ++k) {
    SCOPED_TRACE(k);
    ExpectSameValues(in_place.rows()[k], want[k]);
    ExpectSameValues(by_row.rows()[k], want[k]);
  }
  EXPECT_TRUE(Rowset::SameContent(in_place, by_row));
  // A value of another type is the producer's fault.
  Rowset bad(EveryType(), TemporalClass::kStatic);
  bad.AddPeriods(Period::All(), Period::All());
  EXPECT_EQ(bad.Push(0, Value("1")).code(), StatusCode::kInternal);
  const Value text("x");
  EXPECT_EQ(
      bad.Gather(1, 1, [&](size_t) -> const Value& { return text; }).code(),
      StatusCode::kInternal);
}

TEST(TypedColumns, AddRowChecksTypesAndWidensInts) {
  Rowset rs(EveryType(), TemporalClass::kStatic);
  Row wrong = CornerRows()[1];
  wrong.values[2] = Value(int64_t{5});
  const Status s = rs.AddRow(wrong);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "cannot store int value in string attribute");
  EXPECT_EQ(rs.size(), 0u);
  Row widened = CornerRows()[1];
  widened.values[1] = Value(int64_t{3});
  ASSERT_TRUE(rs.AddRow(widened).ok());
  EXPECT_EQ(rs.Get(0, 1).type(), ValueType::kFloat);
  EXPECT_EQ(rs.Get(0, 1), Value(3.0));
}

TEST(TypedColumns, SameContentComparesTypedValues) {
  Rowset a(EveryType(), TemporalClass::kStatic);
  Rowset b(EveryType(), TemporalClass::kStatic);
  std::vector<Row> rows = CornerRows();
  for (const Row& row : rows) ASSERT_TRUE(a.AddRow(row).ok());
  for (size_t k = rows.size(); k-- > 0;) ASSERT_TRUE(b.AddRow(rows[k]).ok());
  EXPECT_TRUE(Rowset::SameContent(a, b));
  Rowset c(EveryType(), TemporalClass::kStatic);
  rows[2].values[2] = Value(std::string(100, 'x') + "z");
  for (const Row& row : rows) ASSERT_TRUE(c.AddRow(row).ok());
  EXPECT_FALSE(Rowset::SameContent(a, c));
}

TEST(TypedColumns, ProjectReordersColumnsAndKeepsStrings) {
  Rowset rs(EveryType(), TemporalClass::kHistorical);
  for (Row row : CornerRows()) {
    row.valid = Period::From(Chronon(1));
    ASSERT_TRUE(rs.AddRow(std::move(row)).ok());
  }
  Rowset projected = std::move(rs).Project({2, 0});
  ASSERT_EQ(projected.schema().size(), 2u);
  EXPECT_EQ(projected.schema().at(0).name, "s");
  EXPECT_EQ(projected.temporal_class(), TemporalClass::kHistorical);
  ASSERT_EQ(projected.size(), CornerRows().size());
  EXPECT_EQ(projected.Get(2, 0).AsString(), std::string(100, 'x'));
  EXPECT_EQ(projected.Get(2, 1), CornerRows()[2].values[0]);
  EXPECT_EQ(projected.valid(4), Period::From(Chronon(1)));
}

// A rowset built without a schema takes its shape from its first row: the
// arity, the periods (so the class) and each column's type, a null column
// taking its first non-null value's.
TEST(TypedColumns, DefaultRowsetTakesItsFirstRowsShape) {
  Rowset rs;
  Row first;
  first.values = {Value(int64_t{1}), Value::Null(), Value("a")};
  first.valid = Period::From(Chronon(2));
  rs.rows().push_back(first);
  Row second;
  second.values = {Value(int64_t{2}), Value(2.5), Value("b")};
  second.valid = Period(Chronon(1), Chronon(4));
  rs.rows().push_back(second);
  EXPECT_EQ(rs.temporal_class(), TemporalClass::kHistorical);
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_EQ(rs.rows()[0], first);
  EXPECT_EQ(rs.rows()[1], second);
  EXPECT_EQ(rs.schema().at(1).type.value_type(), ValueType::kFloat);
  EXPECT_EQ(rs.rows()[1].ToString().rfind("(2, 2.5, b) v[", 0), 0u);
  Row static_row;
  static_row.values = {Value(int64_t{3}), Value(1.0), Value("c")};
  EXPECT_TRUE(rs.AddRow(static_row).IsInvalidArgument());
  second.values[2] = Value(int64_t{7});
  EXPECT_TRUE(rs.AddRow(second).IsInvalidArgument());
  EXPECT_EQ(rs.size(), 2u);
}

// `Aggregate` reads its input's typed columns: group keys of one type,
// sums and averages over ints and floats, and min/max/any over dates and
// bools, nulls included; each output column is typed by its aggregate.
TEST(TypedColumns, AggregateReadsTypedColumns) {
  const std::string long_group = "g2, a group name past any small buffer";
  const Value d77(*Date::Parse("09/01/77"));
  const Value d80(*Date::Parse("01/01/80"));
  Rowset rs(EveryType(), TemporalClass::kStatic);
  for (Row row : {TypedRow(Value(int64_t{1}), Value(0.5), Value("g1"), d80,
                           Value(true)),
                  TypedRow(Value(int64_t{-4}), Value(2.5), Value(long_group),
                           Value::Null(), Value::Null()),
                  TypedRow(Value(int64_t{41}), Value(-0.0), Value("g1"), d77,
                           Value(false))}) {
    ASSERT_TRUE(rs.AddRow(std::move(row)).ok());
  }
  Result<Rowset> out =
      Aggregate(rs, {2},
                {{AggFunc::kCount, 0, "n"},
                 {AggFunc::kSum, 0, "total"},
                 {AggFunc::kAvg, 1, "mean"},
                 {AggFunc::kMin, 3, "first"},
                 {AggFunc::kMax, 3, "last"},
                 {AggFunc::kAny, 4, "flag"}});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const std::vector<ValueType> types = {
      ValueType::kString, ValueType::kInt,  ValueType::kInt, ValueType::kFloat,
      ValueType::kDate,   ValueType::kDate, ValueType::kBool};
  ASSERT_EQ(out->schema().size(), types.size());
  for (size_t c = 0; c < types.size(); ++c) {
    EXPECT_EQ(out->schema().at(c).type.value_type(), types[c]) << c;
  }
  ASSERT_EQ(out->size(), 2u);
  EXPECT_EQ(out->rows()[0].values,
            (std::vector<Value>{Value("g1"), Value(int64_t{2}),
                                Value(int64_t{42}), Value(0.25), d77, d80,
                                Value(true)}));
  EXPECT_EQ(out->rows()[1].values,
            (std::vector<Value>{Value(long_group), Value(int64_t{1}),
                                Value(int64_t{-4}), Value(2.5), Value::Null(),
                                Value::Null(), Value::Null()}));
}

TEST(Row, OrderingIsDeterministic) {
  Row a = StaticRow("a", "1");
  Row b = StaticRow("b", "1");
  EXPECT_TRUE(a < b);
  Row a_with_period = a;
  a_with_period.valid = Period::From(Chronon(3));
  EXPECT_TRUE(a < a_with_period);  // Absent period sorts first.
  Row later = a_with_period;
  later.valid = Period::From(Chronon(5));
  EXPECT_TRUE(a_with_period < later);
}

TEST(Row, ToStringIncludesPeriods) {
  Row row = StaticRow("Merrie", "full");
  row.valid = Period::From(Chronon(0));
  EXPECT_NE(row.ToString().find("v["), std::string::npos);
  EXPECT_EQ(StaticRow("x", "y").ToString().find("v["), std::string::npos);
}

}  // namespace
}  // namespace temporadb
