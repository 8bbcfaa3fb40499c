#include "temporal/temporal_relation.h"

#include <gtest/gtest.h>

#include <memory>

#include "tests/relation_test_util.h"

namespace temporadb {
namespace {

class TemporalRelationTest : public testutil::RelationFixture {
 protected:
  TemporalRelationTest() { MakeRelation(TemporalClass::kTemporal); }

  // The rank of `name` valid at `v`, as believed as of transaction time `t`.
  std::vector<std::string> RankValidAtAsOf(const char* name, const char* v,
                                           const char* t) {
    std::vector<std::string> ranks;
    relation_->store()->ForEach([&](RowId, const BitemporalTuple& tuple) {
      if (tuple.values[0].AsString() != name) return;
      if (!tuple.txn.Contains(Day(t))) return;
      if (!tuple.valid.Contains(Day(v))) return;
      ranks.push_back(tuple.values[1].AsString());
    });
    return ranks;
  }
};

TEST_F(TemporalRelationTest, AppendStampsBothDimensions) {
  ASSERT_TRUE(Append("08/25/77", "Merrie", "associate",
                     Since("09/01/77")).ok());
  auto versions = VersionsOf("Merrie");
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions[0].valid, Since("09/01/77"));
  EXPECT_EQ(versions[0].txn, Since("08/25/77"));
}

TEST_F(TemporalRelationTest, RetroactiveReplaceProducesFigure8Rows) {
  ASSERT_TRUE(Append("08/25/77", "Merrie", "associate",
                     Since("09/01/77")).ok());
  ASSERT_TRUE(Replace("12/15/82", "Merrie", "full", Since("12/01/82")).ok());
  auto versions = VersionsOf("Merrie");
  ASSERT_EQ(versions.size(), 3u);
  // Superseded full-validity version.
  EXPECT_EQ(versions[0].values[1].AsString(), "associate");
  EXPECT_EQ(versions[0].valid, Since("09/01/77"));
  EXPECT_EQ(versions[0].txn, Between("08/25/77", "12/15/82"));
  // Remnant: associate over the untouched prefix.
  EXPECT_EQ(versions[1].values[1].AsString(), "associate");
  EXPECT_EQ(versions[1].valid, Between("09/01/77", "12/01/82"));
  EXPECT_EQ(versions[1].txn, Since("12/15/82"));
  // The new fact.
  EXPECT_EQ(versions[2].values[1].AsString(), "full");
  EXPECT_EQ(versions[2].valid, Since("12/01/82"));
  EXPECT_EQ(versions[2].txn, Since("12/15/82"));
}

TEST_F(TemporalRelationTest, ViewAsOfDiffersAcrossRecordingDate) {
  ASSERT_TRUE(Append("08/25/77", "Merrie", "associate",
                     Since("09/01/77")).ok());
  ASSERT_TRUE(Replace("12/15/82", "Merrie", "full", Since("12/01/82")).ok());
  // The paper's punchline: the same (valid) question answered differently
  // as of different transaction times.
  EXPECT_EQ(RankValidAtAsOf("Merrie", "12/05/82", "12/10/82"),
            std::vector<std::string>{"associate"});
  EXPECT_EQ(RankValidAtAsOf("Merrie", "12/05/82", "12/20/82"),
            std::vector<std::string>{"full"});
}

TEST_F(TemporalRelationTest, PostactiveDeleteKeepsBothBeliefs) {
  ASSERT_TRUE(Append("01/10/83", "Mike", "assistant",
                     Since("01/01/83")).ok());
  Result<size_t> deleted = Delete("02/25/84", "Mike", Since("03/01/84"));
  ASSERT_TRUE(deleted.ok());
  auto versions = VersionsOf("Mike");
  ASSERT_EQ(versions.size(), 2u);
  EXPECT_EQ(versions[0].txn, Between("01/10/83", "02/25/84"));
  EXPECT_EQ(versions[0].valid, Since("01/01/83"));
  EXPECT_EQ(versions[1].txn, Since("02/25/84"));
  EXPECT_EQ(versions[1].valid, Between("01/01/83", "03/01/84"));
  // As of 01/01/84 Mike was believed employed forever...
  EXPECT_EQ(RankValidAtAsOf("Mike", "06/01/84", "01/01/84"),
            std::vector<std::string>{"assistant"});
  // ...as of 03/01/84, the departure is known.
  EXPECT_TRUE(RankValidAtAsOf("Mike", "06/01/84", "03/01/84").empty());
}

TEST_F(TemporalRelationTest, MidValidityDeleteSplitsAppendOnly) {
  ASSERT_TRUE(Append("01/01/80", "Ann", "full",
                     Between("01/01/80", "01/01/85")).ok());
  ASSERT_TRUE(
      Delete("06/01/80", "Ann", Between("01/01/82", "01/01/83")).ok());
  auto versions = VersionsOf("Ann");
  ASSERT_EQ(versions.size(), 3u);
  // Original closed, two remnants open.
  EXPECT_EQ(versions[0].txn, Between("01/01/80", "06/01/80"));
  EXPECT_EQ(versions[1].valid, Between("01/01/80", "01/01/82"));
  EXPECT_TRUE(versions[1].IsCurrentState());
  EXPECT_EQ(versions[2].valid, Between("01/01/83", "01/01/85"));
}

TEST_F(TemporalRelationTest, DmlOnlyTouchesCurrentState) {
  ASSERT_TRUE(Append("12/01/82", "Tom", "full", Since("12/05/82")).ok());
  ASSERT_TRUE(Replace("12/07/82", "Tom", "associate",
                      Since("12/05/82")).ok());
  // A second correction must supersede only the current belief, leaving
  // the already-closed version untouched.
  ASSERT_TRUE(Replace("12/09/82", "Tom", "adjunct", Since("12/05/82")).ok());
  auto versions = VersionsOf("Tom");
  ASSERT_EQ(versions.size(), 3u);
  EXPECT_EQ(versions[0].values[1].AsString(), "full");
  EXPECT_EQ(versions[0].txn, Between("12/01/82", "12/07/82"));
  EXPECT_EQ(versions[1].values[1].AsString(), "associate");
  EXPECT_EQ(versions[1].txn, Between("12/07/82", "12/09/82"));
  EXPECT_EQ(versions[2].values[1].AsString(), "adjunct");
  EXPECT_TRUE(versions[2].IsCurrentState());
}

TEST_F(TemporalRelationTest, SequenceOfHistoricalStates) {
  ASSERT_TRUE(Append("01/01/80", "a", "1").ok());
  ASSERT_TRUE(Append("02/01/80", "b", "2").ok());
  ASSERT_TRUE(Delete("03/01/80", "a", Period::All()).ok());
  const auto state_as_of = [&](const char* date) {
    return testutil::ScanSorted(*relation_, testutil::AsOf(Day(date)));
  };
  EXPECT_EQ(state_as_of("01/01/80").size(), 1u);
  std::vector<BitemporalTuple> second = state_as_of("02/01/80");
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(state_as_of("03/01/80").size(), 1u);
  // Each state is a complete historical relation with valid periods.
  EXPECT_EQ(second[0].valid, Since("01/01/80"));
}

TEST_F(TemporalRelationTest, AbortRestoresEverything) {
  ASSERT_TRUE(Append("01/01/80", "Ann", "full").ok());
  clock_.SetDate("02/01/80").ok();
  Result<Transaction*> txn = manager_.Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(ReplaceIn(*txn, "Ann", "changed").ok());
  ASSERT_TRUE(manager_.Abort(*txn).ok());
  auto versions = VersionsOf("Ann");
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions[0].values[1].AsString(), "full");
  EXPECT_TRUE(versions[0].IsCurrentState());
  EXPECT_EQ(testutil::CurrentStateRows(*relation_->store()).size(), 1u);
}

TEST_F(TemporalRelationTest, DefaultValidPeriodIsFromNow) {
  ASSERT_TRUE(Append("05/05/80", "Ann", "full").ok());
  EXPECT_EQ(VersionsOf("Ann")[0].valid, Since("05/05/80"));
  // Default delete period is also from-now: deleting trims the tail.
  ASSERT_TRUE(Delete("06/06/80", "Ann").ok());
  auto versions = VersionsOf("Ann");
  ASSERT_EQ(versions.size(), 2u);
  EXPECT_EQ(versions[1].valid, Between("05/05/80", "06/06/80"));
}

TEST_F(TemporalRelationTest, EventRelation) {
  MakeRelation(TemporalClass::kTemporal, TemporalDataModel::kEvent);
  ASSERT_TRUE(Append("12/01/82", "Tom", "full",
                     Period::At(Day("12/05/82"))).ok());
  // Correction: close the wrong event, record the right one.
  ASSERT_TRUE(Delete("12/07/82", "Tom", Period::At(Day("12/05/82"))).ok());
  ASSERT_TRUE(Append("12/07/82", "Tom", "associate",
                     Period::At(Day("12/07/82"))).ok());
  auto versions = VersionsOf("Tom");
  ASSERT_EQ(versions.size(), 2u);
  EXPECT_EQ(versions[0].txn, Between("12/01/82", "12/07/82"));
  EXPECT_TRUE(versions[1].IsCurrentState());
}

// --- The same reads as TQuel statements -----------------------------------

// `when` slices the current historical state only: the superseded "full"
// version covers the same valid chronons but is past knowledge.  The slice
// and a plain `retrieve` keep both periods.
TEST(TemporalStatements, WhenSlicesCurrentStateOnly) {
  ManualClock clock;
  std::unique_ptr<Database> db = testutil::Replayed(
      &clock,
      {{"", "create temporal relation r (name = string, rank = string)"},
       {"", "range of x is r"},
       {"01/01/80", "append to r (name = \"Tom\", rank = \"full\")"},
       {"02/01/80", "replace x (rank = \"associate\") valid from "
                    "\"01/01/80\" to \"inf\" where x.name = \"Tom\""}});
  for (const char* query :
       {"retrieve (x.name, x.rank) when x overlap \"06/01/80\"",
        "retrieve (x.name, x.rank)"}) {
    Result<Rowset> rows = db->Query(query);
    ASSERT_TRUE(rows.ok()) << query << ": " << rows.status().ToString();
    EXPECT_EQ(rows->temporal_class(), TemporalClass::kTemporal) << query;
    ASSERT_EQ(rows->size(), 1u) << query;
    EXPECT_EQ(rows->rows()[0].values[1].AsString(), "associate") << query;
    EXPECT_TRUE(rows->rows()[0].txn.has_value()) << query;
  }
}

// `as of t` reads the historical state current at `t`, valid periods and
// stored transaction periods included; a later deletion of the whole
// validity leaves it intact and empties later states.
TEST(TemporalStatements, AsOfReadsPastHistoricalState) {
  ManualClock clock;
  std::unique_ptr<Database> db = testutil::Replayed(
      &clock,
      {{"", "create temporal relation r (name = string, rank = string)"},
       {"", "range of x is r"},
       {"01/01/80", "append to r (name = \"a\", rank = \"1\")"},
       {"03/01/80",
        "delete x valid from \"-inf\" to \"inf\" where x.name = \"a\""}});
  Result<Rowset> before =
      db->Query("retrieve (x.name, x.rank) as of \"02/01/80\"");
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before->temporal_class(), TemporalClass::kTemporal);
  ASSERT_EQ(before->size(), 1u);
  const Chronon jan = Date::Parse("01/01/80")->chronon();
  const Chronon mar = Date::Parse("03/01/80")->chronon();
  EXPECT_EQ(before->rows()[0].valid, Period::From(jan));
  EXPECT_EQ(before->rows()[0].txn, Period(jan, mar));
  EXPECT_TRUE(testutil::SortedRows(
                  db.get(), "retrieve (x.name, x.rank) as of \"04/01/80\"")
                  .empty());

  // `show` lists every stored version with both periods.
  Result<Rowset> shown = db->Query("show r");
  ASSERT_TRUE(shown.ok()) << shown.status().ToString();
  EXPECT_EQ(shown->temporal_class(), TemporalClass::kTemporal);
  ASSERT_EQ(shown->size(), 1u);
  EXPECT_EQ(shown->rows()[0].txn, Period(jan, mar));
}

// Temporal relations are append-only: `correct` cannot erase a version.
TEST(TemporalStatements, AppendOnlyNoPhysicalErase) {
  ManualClock clock;
  std::unique_ptr<Database> db = testutil::Replayed(
      &clock, {{"", "create temporal relation r (name = string)"},
               {"", "range of x is r"},
               {"01/01/80", "append to r (name = \"x\")"}});
  EXPECT_TRUE(
      db->Execute("correct x where x.name = \"x\"").status().IsNotSupported());
  Result<tquel::ExecResult> show = db->Execute("show r");
  ASSERT_TRUE(show.ok()) << show.status().ToString();
  EXPECT_EQ(show->rows.size(), 1u);
}

}  // namespace
}  // namespace temporadb
