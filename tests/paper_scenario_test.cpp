// End-to-end verification of the paper's worked example: the faculty
// relation driven through the full stack (TQuel text -> parser -> analyzer
// -> relation kinds -> version store), checked tuple-for-tuple against
// Figures 2, 4, 6, 8 and 9 and query-for-query against the paper's answers.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/database.h"
#include "core/paper_scenario.h"
#include "tests/relation_test_util.h"

namespace temporadb {
namespace {

Chronon Day(const char* text) {
  Result<Date> d = Date::Parse(text);
  EXPECT_TRUE(d.ok()) << text;
  return d->chronon();
}

Period P(const char* from, const char* to) {
  return Period(Day(from), Day(to));
}

Period From(const char* from) { return Period::From(Day(from)); }

// A row of a figure: explicit values + the two periods.
struct FigureRow {
  std::string name;
  std::string rank;
  Period valid;
  Period txn;
};

std::vector<FigureRow> DumpSorted(StoredRelation* rel) {
  std::vector<FigureRow> rows;
  rel->store()->ForEach([&](RowId, const BitemporalTuple& t) {
    rows.push_back(FigureRow{t.values[0].AsString(), t.values[1].AsString(),
                             t.valid, t.txn});
  });
  std::sort(rows.begin(), rows.end(), [](const FigureRow& a,
                                         const FigureRow& b) {
    if (a.name != b.name) return a.name < b.name;
    if (a.txn.begin() != b.txn.begin())
      return a.txn.begin() < b.txn.begin();
    return a.valid.begin() < b.valid.begin();
  });
  return rows;
}

void ExpectRow(const FigureRow& row, const char* name, const char* rank,
               Period valid, Period txn) {
  EXPECT_EQ(row.name, name);
  EXPECT_EQ(row.rank, rank);
  EXPECT_EQ(row.valid, valid) << name << "/" << rank << " valid "
                              << row.valid.ToString();
  EXPECT_EQ(row.txn, txn) << name << "/" << rank << " txn "
                          << row.txn.ToString();
}

TEST(PaperScenario, Figure2StaticRelationAndQuelQuery) {
  auto db = Database::Open({});
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(paper::Replay(db->get(), nullptr,
                            paper::StaticFacultyScript()).ok());

  // The paper's Quel query: Merrie's rank.
  (*db)->Execute("range of f is faculty").status();
  Result<Rowset> result = (*db)->Query(
      "retrieve (f.rank) where f.name = \"Merrie\"");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ(result->rows()[0].values[0].AsString(), "full");
  EXPECT_EQ(result->temporal_class(), TemporalClass::kStatic);
  EXPECT_FALSE(result->rows()[0].valid.has_value());
  EXPECT_FALSE(result->rows()[0].txn.has_value());
}

TEST(PaperScenario, Figure4RollbackRelationContents) {
  ManualClock clock;
  DatabaseOptions options;
  options.clock = &clock;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(paper::Replay(db->get(), &clock,
                            paper::RollbackFacultyScript()).ok());

  Result<StoredRelation*> rel = (*db)->GetRelation("faculty");
  ASSERT_TRUE(rel.ok());
  std::vector<FigureRow> rows = DumpSorted(*rel);
  ASSERT_EQ(rows.size(), 4u);
  // Figure 4 (valid time degenerate in a rollback relation).
  ExpectRow(rows[0], "Merrie", "associate", Period::All(),
            P("08/25/77", "12/15/82"));
  ExpectRow(rows[1], "Merrie", "full", Period::All(), From("12/15/82"));
  ExpectRow(rows[2], "Mike", "assistant", Period::All(),
            P("01/10/83", "02/25/84"));
  ExpectRow(rows[3], "Tom", "associate", Period::All(), From("12/07/82"));
}

TEST(PaperScenario, Figure4AsOfQueryYieldsAssociate) {
  ManualClock clock;
  DatabaseOptions options;
  options.clock = &clock;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(paper::Replay(db->get(), &clock,
                            paper::RollbackFacultyScript()).ok());

  // "retrieve (f.rank) where f.name = 'Merrie' as of '12/10/82'" ->
  // associate (the promotion was recorded 12/15/82).
  Result<Rowset> result = (*db)->Query(
      "retrieve (f.rank) where f.name = \"Merrie\" as of \"12/10/82\"");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ(result->rows()[0].values[0].AsString(), "associate");
  // "the result of a query on a static rollback database is a pure static
  // relation".
  EXPECT_EQ(result->temporal_class(), TemporalClass::kStatic);
}

TEST(PaperScenario, Figure6HistoricalRelationContents) {
  ManualClock clock;
  DatabaseOptions options;
  options.clock = &clock;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  Status s = paper::Replay(db->get(), &clock,
                           paper::FacultyScript("historical"));
  ASSERT_TRUE(s.ok()) << s.ToString();

  Result<StoredRelation*> rel = (*db)->GetRelation("faculty");
  ASSERT_TRUE(rel.ok());
  std::vector<FigureRow> rows = DumpSorted(*rel);
  ASSERT_EQ(rows.size(), 4u);
  // Figure 6 (transaction time degenerate in an historical relation).
  ExpectRow(rows[0], "Merrie", "associate", P("09/01/77", "12/01/82"),
            Period::All());
  ExpectRow(rows[1], "Merrie", "full", From("12/01/82"), Period::All());
  ExpectRow(rows[2], "Mike", "assistant", P("01/01/83", "03/01/84"),
            Period::All());
  ExpectRow(rows[3], "Tom", "associate", From("12/05/82"), Period::All());
}

TEST(PaperScenario, Figure6WhenQueryYieldsFull) {
  ManualClock clock;
  DatabaseOptions options;
  options.clock = &clock;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(paper::Replay(db->get(), &clock,
                            paper::FacultyScript("historical")).ok());
  ASSERT_TRUE((*db)->Execute("range of f1 is faculty").ok());
  ASSERT_TRUE((*db)->Execute("range of f2 is faculty").ok());

  // The paper's historical query: Merrie's rank when Tom arrived.
  Result<Rowset> result = (*db)->Query(
      "retrieve (f1.rank) where f1.name = \"Merrie\" and f2.name = \"Tom\" "
      "when f1 overlap start of f2");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ(result->rows()[0].values[0].AsString(), "full");
  // The derived relation is historical, with valid time [12/01/82, inf).
  EXPECT_EQ(result->temporal_class(), TemporalClass::kHistorical);
  ASSERT_TRUE(result->rows()[0].valid.has_value());
  EXPECT_EQ(*result->rows()[0].valid, From("12/01/82"));
}

TEST(PaperScenario, Figure8TemporalRelationContents) {
  ManualClock clock;
  DatabaseOptions options;
  options.clock = &clock;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  Status s = paper::Replay(db->get(), &clock, paper::FacultyScript("temporal"));
  ASSERT_TRUE(s.ok()) << s.ToString();

  Result<StoredRelation*> rel = (*db)->GetRelation("faculty");
  ASSERT_TRUE(rel.ok());
  std::vector<FigureRow> rows = DumpSorted(*rel);
  ASSERT_EQ(rows.size(), 7u);
  // Figure 8, all seven rows.
  ExpectRow(rows[0], "Merrie", "associate", From("09/01/77"),
            P("08/25/77", "12/15/82"));
  ExpectRow(rows[1], "Merrie", "associate", P("09/01/77", "12/01/82"),
            From("12/15/82"));
  ExpectRow(rows[2], "Merrie", "full", From("12/01/82"), From("12/15/82"));
  ExpectRow(rows[3], "Mike", "assistant", From("01/01/83"),
            P("01/10/83", "02/25/84"));
  ExpectRow(rows[4], "Mike", "assistant", P("01/01/83", "03/01/84"),
            From("02/25/84"));
  ExpectRow(rows[5], "Tom", "full", From("12/05/82"),
            P("12/01/82", "12/07/82"));
  ExpectRow(rows[6], "Tom", "associate", From("12/05/82"), From("12/07/82"));
}

TEST(PaperScenario, Figure8BitemporalQueries) {
  ManualClock clock;
  DatabaseOptions options;
  options.clock = &clock;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(paper::Replay(db->get(), &clock,
                            paper::FacultyScript("temporal")).ok());
  ASSERT_TRUE((*db)->Execute("range of f1 is faculty").ok());
  ASSERT_TRUE((*db)->Execute("range of f2 is faculty").ok());

  // As of 12/10/82 the promotion had not yet been recorded: associate.
  Result<Rowset> r1 = (*db)->Query(
      "retrieve (f1.rank) where f1.name = \"Merrie\" and f2.name = \"Tom\" "
      "when f1 overlap start of f2 as of \"12/10/82\"");
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_EQ(r1->size(), 1u);
  EXPECT_EQ(r1->rows()[0].values[0].AsString(), "associate");
  // The paper's printed answer carries both periods.
  EXPECT_EQ(r1->temporal_class(), TemporalClass::kTemporal);
  ASSERT_TRUE(r1->rows()[0].valid.has_value());
  ASSERT_TRUE(r1->rows()[0].txn.has_value());
  EXPECT_EQ(*r1->rows()[0].valid, From("09/01/77"));
  EXPECT_EQ(*r1->rows()[0].txn, P("08/25/77", "12/15/82"));

  // As of 12/20/82 the retroactive recording is visible: full.
  Result<Rowset> r2 = (*db)->Query(
      "retrieve (f1.rank) where f1.name = \"Merrie\" and f2.name = \"Tom\" "
      "when f1 overlap start of f2 as of \"12/20/82\"");
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  ASSERT_EQ(r2->size(), 1u);
  EXPECT_EQ(r2->rows()[0].values[0].AsString(), "full");
}

TEST(PaperScenario, Figure9PromotionEventRelation) {
  ManualClock clock;
  DatabaseOptions options;
  options.clock = &clock;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  Status s = paper::Replay(db->get(), &clock, paper::PromotionEventsScript());
  ASSERT_TRUE(s.ok()) << s.ToString();

  Result<StoredRelation*> rel = (*db)->GetRelation("promotion");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ((*rel)->data_model(), TemporalDataModel::kEvent);

  struct EventRow {
    std::string name, rank;
    Date effective;
    Chronon valid_at;
    Period txn;
  };
  std::vector<EventRow> rows;
  (*rel)->store()->ForEach([&](RowId, const BitemporalTuple& t) {
    rows.push_back(EventRow{t.values[0].AsString(), t.values[1].AsString(),
                            t.values[2].AsDate(), t.valid.begin(), t.txn});
  });
  std::sort(rows.begin(), rows.end(), [](const EventRow& a,
                                         const EventRow& b) {
    if (a.name != b.name) return a.name < b.name;
    return a.txn.begin() < b.txn.begin();
  });
  ASSERT_EQ(rows.size(), 6u);

  // Figure 9 rows (sorted: Merrie x2, Mike x2, Tom x2).
  EXPECT_EQ(rows[0].rank, "associate");
  EXPECT_EQ(rows[0].effective, *Date::Parse("09/01/77"));
  EXPECT_EQ(rows[0].valid_at, Day("08/25/77"));
  EXPECT_EQ(rows[0].txn, From("08/25/77"));

  EXPECT_EQ(rows[1].rank, "full");
  EXPECT_EQ(rows[1].effective, *Date::Parse("12/01/82"));
  EXPECT_EQ(rows[1].valid_at, Day("12/11/82"));
  EXPECT_EQ(rows[1].txn, From("12/15/82"));

  EXPECT_EQ(rows[2].name, "Mike");
  EXPECT_EQ(rows[2].rank, "assistant");
  EXPECT_EQ(rows[3].rank, "left");
  EXPECT_EQ(rows[3].effective, *Date::Parse("03/01/84"));
  EXPECT_EQ(rows[3].valid_at, Day("02/25/84"));

  EXPECT_EQ(rows[4].name, "Tom");
  EXPECT_EQ(rows[4].rank, "full");
  EXPECT_EQ(rows[4].txn, P("12/01/82", "12/07/82"));
  EXPECT_EQ(rows[5].rank, "associate");
  EXPECT_EQ(rows[5].valid_at, Day("12/07/82"));
  EXPECT_EQ(rows[5].txn, From("12/07/82"));
}

// The cube of `script`'s relation `r`, one state per boundary.
std::vector<paper::CubeState> CubeOf(
    const std::vector<paper::ScriptStep>& script) {
  ManualClock clock;
  std::unique_ptr<Database> db = testutil::Replayed(&clock, script);
  Result<std::vector<paper::CubeState>> cube = paper::Cube(db.get(), "r");
  EXPECT_TRUE(cube.ok()) << cube.status().ToString();
  return cube.ok() ? std::move(*cube) : std::vector<paper::CubeState>{};
}

bool Holds(const Rowset& rows, const char* name) {
  for (const Row& row : rows.rows()) {
    if (row.values[0].AsString() == name) return true;
  }
  return false;
}

TEST(PaperScenario, CubeScenariosMatchFigures3And5And7) {
  // Rollback cube (Figure 3): states at each transaction boundary.
  {
    std::vector<paper::CubeState> states =
        CubeOf(paper::CubeScript(TemporalClass::kRollback));
    ASSERT_EQ(states.size(), 3u);
    EXPECT_EQ(states[0].stmt, "retrieve (r.name, r.value) as of \"01/01/80\"");
    EXPECT_EQ(states[0].rows.size(), 3u);  // T1: a b c
    EXPECT_EQ(states[1].rows.size(), 4u);  // T2: + d
    EXPECT_EQ(states[2].rows.size(), 4u);  // T3: - b + e
  }
  // Temporal "hypercube" (Figure 7): four transactions, the last removing
  // the erroneous tuple from the current historical state while past
  // states keep it.
  {
    std::vector<paper::CubeState> states =
        CubeOf(paper::CubeScript(TemporalClass::kTemporal));
    ASSERT_EQ(states.size(), 4u);
    EXPECT_EQ(states[0].rows.size(), 3u);
    EXPECT_EQ(states[1].rows.size(), 4u);
    // Deleting "b" at T3 closes its open validity but keeps the remnant
    // fact "b was valid over [T1, T3)" in the new historical state — a
    // temporal relation never forgets history, only corrects it.
    EXPECT_EQ(states[2].rows.size(), 5u);
    EXPECT_EQ(states[3].rows.size(), 4u);  // "c" erased as erroneous.
    EXPECT_FALSE(Holds(states[3].rows, "c"));
    // The deletion is append-only: rolling back to T3 still shows "c".
    EXPECT_TRUE(Holds(states[2].rows, "c"));
  }
  // Historical cube (Figure 5): the correction physically removed "c";
  // no slice of the final state contains it.
  {
    std::vector<paper::CubeState> slices =
        CubeOf(paper::CubeScript(TemporalClass::kHistorical));
    ASSERT_EQ(slices.size(), 3u);
    EXPECT_EQ(slices[0].stmt,
              "retrieve (r.name, r.value) when r overlap \"01/01/80\"");
    for (const paper::CubeState& slice : slices) {
      EXPECT_FALSE(Holds(slice.rows, "c")) << slice.stmt;
    }
  }
}

// Boundaries are the distinct finite endpoints of the chosen periods,
// ascending; a transaction that changed nothing adds none, and an empty
// relation has no states.
TEST(PaperScenario, CubeBoundariesAreSortedAndDistinct) {
  ManualClock clock;
  std::unique_ptr<Database> db = testutil::Replayed(
      &clock,
      {{"", "create rollback relation r (name = string, rank = string)"},
       {"", "range of x is r"}});
  Result<std::vector<paper::CubeState>> empty = paper::Cube(db.get(), "r");
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_TRUE(empty->empty());

  ASSERT_TRUE(paper::Replay(
                  db.get(), &clock,
                  {{"01/01/80", "append to r (name = \"a\", rank = \"1\")"},
                   {"03/01/80", "append to r (name = \"b\", rank = \"2\")"},
                   {"03/15/80", "delete x where x.name = \"nobody\""},
                   {"04/01/80",
                    "replace x (rank = \"9\") where x.name = \"a\""}})
                  .ok());
  Result<Rowset> shown = db->Query("show r");
  ASSERT_TRUE(shown.ok()) << shown.status().ToString();
  EXPECT_EQ(paper::Boundaries(*shown, &Row::txn),
            (std::vector<Chronon>{Day("01/01/80"), Day("03/01/80"),
                                  Day("04/01/80")}));
  EXPECT_TRUE(paper::Boundaries(*shown, &Row::valid).empty());
}

// A static relation has no time axis: `show` carries no periods, `as of`
// and `when` are rejected, and its cube has no states.
TEST(PaperScenario, StaticRelationHasNoTimeAxis) {
  ManualClock clock;
  std::unique_ptr<Database> db =
      testutil::Replayed(&clock, paper::StaticFacultyScript());
  ASSERT_TRUE(db->Execute("range of f is faculty").ok());
  Result<Rowset> shown = db->Query("show faculty");
  ASSERT_TRUE(shown.ok()) << shown.status().ToString();
  EXPECT_EQ(shown->temporal_class(), TemporalClass::kStatic);
  ASSERT_EQ(shown->size(), 2u);
  EXPECT_FALSE(shown->rows()[0].valid.has_value());
  EXPECT_FALSE(shown->rows()[0].txn.has_value());
  EXPECT_TRUE(db->Query("retrieve (f.rank) as of \"01/01/80\"")
                  .status()
                  .IsNotSupported());
  EXPECT_TRUE(db->Query("retrieve (f.rank) when f overlap \"01/01/80\"")
                  .status()
                  .IsNotSupported());
  Result<std::vector<paper::CubeState>> cube = paper::Cube(db.get(), "faculty");
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  EXPECT_TRUE(cube->empty());
}

TEST(PaperScenario, TaxonomyViolationsAreRejected) {
  ManualClock clock;
  DatabaseOptions options;
  options.clock = &clock;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(paper::Replay(db->get(), &clock,
                            paper::RollbackFacultyScript()).ok());

  // Historical constructs on a rollback relation: NotSupported.
  Result<Rowset> when_query = (*db)->Query(
      "retrieve (f.rank) when f overlap \"12/10/82\"");
  EXPECT_FALSE(when_query.ok());
  EXPECT_TRUE(when_query.status().IsNotSupported())
      << when_query.status().ToString();

  // Retroactive change on a rollback relation: NotSupported.
  Result<tquel::ExecResult> retro = (*db)->Execute(
      "append to faculty (name = \"Ann\", rank = \"full\") "
      "valid from \"01/01/80\" to \"inf\"");
  EXPECT_FALSE(retro.ok());
  EXPECT_TRUE(retro.status().IsNotSupported());

  // As-of on an historical relation: NotSupported.
  ManualClock clock2;
  DatabaseOptions options2;
  options2.clock = &clock2;
  auto db2 = Database::Open(options2);
  ASSERT_TRUE(db2.ok());
  ASSERT_TRUE(paper::Replay(db2->get(), &clock2,
                            paper::FacultyScript("historical")).ok());
  Result<Rowset> asof_query = (*db2)->Query(
      "retrieve (f.rank) where f.name = \"Merrie\" as of \"12/10/82\"");
  EXPECT_FALSE(asof_query.ok());
  EXPECT_TRUE(asof_query.status().IsNotSupported());
}

}  // namespace
}  // namespace temporadb
