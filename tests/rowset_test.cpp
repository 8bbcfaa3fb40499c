#include "rel/relation.h"

#include <gtest/gtest.h>

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

TEST(Rowset, AppenderChecksArityOnceAndKeepsTheClassPeriods) {
  Rowset hist(FacultySchema(), TemporalClass::kHistorical);
  EXPECT_TRUE(hist.MakeAppender(1).status().IsInvalidArgument());
  Result<Rowset::Appender> append = hist.MakeAppender(2);
  ASSERT_TRUE(append.ok());
  const Period valid = Period::From(Chronon(3));
  for (const char* name : {"Merrie", "Tom"}) {
    std::vector<Value>& values = append->Add(valid, Period::At(Chronon(9)));
    values.push_back(Value(name));
    values.push_back(Value("full"));
  }
  ASSERT_EQ(hist.size(), 2u);
  EXPECT_EQ(hist.rows()[1].values[0], Value("Tom"));
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
