#include "temporal/historical_relation.h"

#include <gtest/gtest.h>

#include <memory>

#include "tests/relation_test_util.h"

namespace temporadb {
namespace {

class HistoricalRelationTest : public testutil::RelationFixture {
 protected:
  HistoricalRelationTest() { MakeRelation(TemporalClass::kHistorical); }

  std::vector<std::string> RanksValidAt(const char* date,
                                        const char* name) {
    std::vector<std::string> ranks;
    for (const BitemporalTuple& t :
         testutil::ScanSorted(*relation_, testutil::ValidAt(Day(date)))) {
      if (t.values[0].AsString() == name) {
        ranks.push_back(t.values[1].AsString());
      }
    }
    return ranks;
  }
};

TEST_F(HistoricalRelationTest, AppendDefaultsValidFromNow) {
  ASSERT_TRUE(Append("01/01/80", "Merrie", "associate").ok());
  auto versions = VersionsOf("Merrie");
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions[0].valid, Since("01/01/80"));
  EXPECT_EQ(versions[0].txn, Period::All());  // No transaction time.
}

TEST_F(HistoricalRelationTest, RetroactiveAndPostactiveAppends) {
  // Recorded 08/25/77, true from 09/01/77 (postactive).
  ASSERT_TRUE(Append("08/25/77", "Merrie", "associate",
                     Since("09/01/77")).ok());
  // Recorded 01/10/83, true from 01/01/83 (retroactive).
  ASSERT_TRUE(Append("01/10/83", "Mike", "assistant",
                     Since("01/01/83")).ok());
  EXPECT_EQ(VersionsOf("Merrie")[0].valid, Since("09/01/77"));
  EXPECT_EQ(VersionsOf("Mike")[0].valid, Since("01/01/83"));
}

TEST_F(HistoricalRelationTest, DeleteTrimsTail) {
  ASSERT_TRUE(Append("01/01/83", "Mike", "assistant",
                     Since("01/01/83")).ok());
  // Mike leaves effective 03/01/84.
  Result<size_t> deleted = Delete("02/25/84", "Mike", Since("03/01/84"));
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(*deleted, 1u);
  auto versions = VersionsOf("Mike");
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions[0].valid, Between("01/01/83", "03/01/84"));
}

TEST_F(HistoricalRelationTest, DeleteTrimsHead) {
  ASSERT_TRUE(Append("01/01/80", "Ann", "full",
                     Between("01/01/80", "01/01/85")).ok());
  Result<size_t> deleted = Delete("06/01/80", "Ann",
                                  Between("01/01/79", "01/01/82"));
  ASSERT_TRUE(deleted.ok());
  auto versions = VersionsOf("Ann");
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions[0].valid, Between("01/01/82", "01/01/85"));
}

TEST_F(HistoricalRelationTest, DeleteInMiddleSplits) {
  // A sabbatical: delete the middle of the validity.
  ASSERT_TRUE(Append("01/01/80", "Ann", "full",
                     Between("01/01/80", "01/01/85")).ok());
  Result<size_t> deleted = Delete("06/01/80", "Ann",
                                  Between("01/01/82", "01/01/83"));
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(*deleted, 1u);
  auto versions = VersionsOf("Ann");
  ASSERT_EQ(versions.size(), 2u);
  EXPECT_EQ(versions[0].valid, Between("01/01/80", "01/01/82"));
  EXPECT_EQ(versions[1].valid, Between("01/01/83", "01/01/85"));
  // Timeslices agree.
  EXPECT_EQ(RanksValidAt("06/01/81", "Ann"), std::vector<std::string>{"full"});
  EXPECT_TRUE(RanksValidAt("06/01/82", "Ann").empty());
  EXPECT_EQ(RanksValidAt("06/01/84", "Ann"), std::vector<std::string>{"full"});
}

TEST_F(HistoricalRelationTest, DeleteWholeValidityRemovesFact) {
  ASSERT_TRUE(Append("01/01/80", "Ghost", "spooky",
                     Between("01/01/80", "01/01/81")).ok());
  Result<size_t> deleted =
      Delete("06/01/80", "Ghost", Period::All());
  ASSERT_TRUE(deleted.ok());
  // "There is no record kept of the errors that have been corrected."
  EXPECT_TRUE(VersionsOf("Ghost").empty());
  EXPECT_EQ(LiveCount(), 0u);
}

TEST_F(HistoricalRelationTest, ReplaceSplitsAroundPeriod) {
  // The paper's Merrie history: associate from 09/01/77, promoted
  // retroactively from 12/01/82.
  ASSERT_TRUE(Append("08/25/77", "Merrie", "associate",
                     Since("09/01/77")).ok());
  Result<size_t> replaced =
      Replace("12/15/82", "Merrie", "full", Since("12/01/82"));
  ASSERT_TRUE(replaced.ok());
  auto versions = VersionsOf("Merrie");
  ASSERT_EQ(versions.size(), 2u);
  // Figure 6's two Merrie rows.
  EXPECT_EQ(versions[0].values[1].AsString(), "associate");
  EXPECT_EQ(versions[0].valid, Between("09/01/77", "12/01/82"));
  EXPECT_EQ(versions[1].values[1].AsString(), "full");
  EXPECT_EQ(versions[1].valid, Since("12/01/82"));
}

TEST_F(HistoricalRelationTest, ReplaceMiddleYieldsThreeFragments) {
  ASSERT_TRUE(Append("01/01/80", "Ann", "lecturer",
                     Between("01/01/80", "01/01/90")).ok());
  // Visiting professor for 1983 only.
  ASSERT_TRUE(Replace("06/01/83", "Ann", "visiting",
                      Between("01/01/83", "01/01/84")).ok());
  auto versions = VersionsOf("Ann");
  ASSERT_EQ(versions.size(), 3u);
  EXPECT_EQ(RanksValidAt("06/01/82", "Ann"),
            std::vector<std::string>{"lecturer"});
  EXPECT_EQ(RanksValidAt("06/01/83", "Ann"),
            std::vector<std::string>{"visiting"});
  EXPECT_EQ(RanksValidAt("06/01/85", "Ann"),
            std::vector<std::string>{"lecturer"});
}

TEST_F(HistoricalRelationTest, CorrectionLeavesNoTrace) {
  // Tom recorded as full, corrected to associate: the erroneous belief is
  // unrecoverable afterwards (contrast with the temporal relation).
  ASSERT_TRUE(Append("12/01/82", "Tom", "full", Since("12/05/82")).ok());
  ASSERT_TRUE(Replace("12/07/82", "Tom", "associate",
                      Since("12/05/82")).ok());
  auto versions = VersionsOf("Tom");
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions[0].values[1].AsString(), "associate");
  EXPECT_EQ(versions[0].valid, Since("12/05/82"));
}

TEST_F(HistoricalRelationTest, CorrectEraseSupported) {
  ASSERT_TRUE(Append("01/01/80", "Oops", "bad").ok());
  size_t count = 0;
  ASSERT_TRUE(AtDate("02/01/80", [&](Transaction* txn) -> Status {
                TDB_ASSIGN_OR_RETURN(
                    testutil::Selection sel,
                    testutil::SelectEqual(*relation_, txn, 0, Value("Oops"),
                                          std::nullopt));
                count = sel.victims.size();
                return static_cast<HistoricalRelation*>(relation_.get())
                    ->CorrectErase(txn, sel.victims);
              }).ok());
  EXPECT_EQ(count, 1u);
  EXPECT_TRUE(VersionsOf("Oops").empty());
}

TEST_F(HistoricalRelationTest, NoRollbackPossible) {
  // Historical relations keep no transaction time: every version reports
  // Period::All() and past database states are unrecoverable by design.
  ASSERT_TRUE(Append("01/01/80", "Ann", "a").ok());
  ASSERT_TRUE(Replace("02/01/80", "Ann", "b", Since("01/01/80")).ok());
  for (const auto& v : VersionsOf("Ann")) {
    EXPECT_EQ(v.txn, Period::All());
  }
}

TEST_F(HistoricalRelationTest, EmptyValidClauseRejected) {
  Status s = AtDate("01/01/80", [&](Transaction* txn) {
    return relation_->Append(txn, {Value("x"), Value("y")},
                             Period(Chronon(10), Chronon(10)));
  });
  EXPECT_TRUE(s.IsInvalidArgument());
}

TEST_F(HistoricalRelationTest, AbortRestoresSplits) {
  ASSERT_TRUE(Append("01/01/80", "Ann", "full",
                     Between("01/01/80", "01/01/85")).ok());
  clock_.SetDate("06/01/80").ok();
  Result<Transaction*> txn = manager_.Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(DeleteIn(*txn, "Ann", Between("01/01/82", "01/01/83")).ok());
  ASSERT_TRUE(manager_.Abort(*txn).ok());
  auto versions = VersionsOf("Ann");
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions[0].valid, Between("01/01/80", "01/01/85"));
}

TEST_F(HistoricalRelationTest, EventModelRequiresInstants) {
  MakeRelation(TemporalClass::kHistorical, TemporalDataModel::kEvent);
  // Interval valid clause rejected on an event relation.
  Status s = Append("01/01/80", "Sign", "ceremony",
                    Between("01/01/80", "02/01/80"));
  EXPECT_TRUE(s.IsInvalidArgument());
  // Instant accepted.
  ASSERT_TRUE(Append("01/01/80", "Sign", "ceremony",
                     Period::At(Day("01/05/80"))).ok());
  auto versions = VersionsOf("Sign");
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_TRUE(versions[0].valid.IsInstant());
  // Default valid on an event relation is "at now".
  ASSERT_TRUE(Append("02/01/80", "Sign2", "x").ok());
  EXPECT_EQ(VersionsOf("Sign2")[0].valid, Period::At(Day("02/01/80")));
}

// --- The same reads as TQuel statements -----------------------------------

// `when x overlap "<v>"` is the timeslice: the facts valid at `v`, still
// with their valid periods.  `as of` needs transaction time.
TEST(HistoricalStatements, WhenSlicesValidTime) {
  ManualClock clock;
  std::unique_ptr<Database> db = testutil::Replayed(
      &clock,
      {{"", "create historical relation r (name = string, rank = string)"},
       {"", "range of x is r"},
       {"01/01/80", "append to r (name = \"a\", rank = \"old\") valid from "
                    "\"01/01/80\" to \"06/01/80\""},
       {"", "append to r (name = \"a\", rank = \"new\") valid from "
            "\"06/01/80\" to \"inf\""}});
  Result<Rowset> slice =
      db->Query("retrieve (x.name, x.rank) when x overlap \"03/01/80\"");
  ASSERT_TRUE(slice.ok()) << slice.status().ToString();
  EXPECT_EQ(slice->temporal_class(), TemporalClass::kHistorical);
  ASSERT_EQ(slice->size(), 1u);
  EXPECT_EQ(slice->rows()[0].values[1].AsString(), "old");
  EXPECT_TRUE(db->Query("retrieve (x.rank) as of \"03/01/80\"")
                  .status()
                  .IsNotSupported());
}

// The cube of an historical relation (Figure 5) cuts it at the distinct
// endpoints of its valid periods, one `when` statement each.
TEST(HistoricalStatements, CubeCutsAtValidPeriodEndpoints) {
  ManualClock clock;
  std::unique_ptr<Database> db = testutil::Replayed(
      &clock,
      {{"", "create historical relation r (name = string, rank = string)"},
       {"01/01/80", "append to r (name = \"Merrie\", rank = \"associate\") "
                    "valid from \"09/01/77\" to \"12/01/82\""},
       {"", "append to r (name = \"Merrie\", rank = \"full\") valid from "
            "\"12/01/82\" to \"inf\""},
       {"", "append to r (name = \"Ann\", rank = \"full\") valid from "
            "\"06/01/80\" to \"01/01/81\""}});
  Result<std::vector<paper::CubeState>> cube = paper::Cube(db.get(), "r");
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  // Boundaries: 09/01/77, 06/01/80, 01/01/81, 12/01/82.
  ASSERT_EQ(cube->size(), 4u);
  const std::vector<size_t> sizes = {1, 2, 1, 1};
  for (size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ((*cube)[i].rows.size(), sizes[i]) << (*cube)[i].stmt;
  }
  EXPECT_EQ((*cube)[1].at, Date::Parse("06/01/80")->chronon());
  EXPECT_EQ((*cube)[1].stmt,
            "retrieve (r.name, r.rank) when r overlap \"06/01/80\"");
  EXPECT_EQ((*cube)[0].rows.rows()[0].values[1].AsString(), "associate");
  EXPECT_EQ((*cube)[3].rows.rows()[0].values[1].AsString(), "full");
}

}  // namespace
}  // namespace temporadb
