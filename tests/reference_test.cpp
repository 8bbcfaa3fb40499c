// The reference model (workload/reference.h) against the paper and against
// the engine:
//  - it reproduces Figures 2-9 tuple for tuple from the same scripts the
//    engine replays (core/paper_scenario.h), every state of the cubes of
//    Figures 3, 5 and 7 statement for statement, and the paper's query
//    answers;
//  - the int keys at 2^53 that doubles cannot tell apart select the same
//    rows on every plan the engine has (walk, index probe, hash step,
//    nested loop) as in the reference;
//  - a seeded random statement stream over all four kinds, edge values
//    included, gets the same status, count, answer and stored facts from
//    the engine — with and without indexes, unpartitioned and with tiny
//    partitions — as from the reference, and every retrieve the same
//    status and answer again at a reader pin.

#include "workload/reference.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/database.h"
#include "core/paper_scenario.h"
#include "temporal/read_snapshot.h"
#include "txn/clock.h"

namespace temporadb {
namespace {

using reference::Answer;
using reference::Fact;
using reference::ReferenceModel;

Chronon Day(const char* text) {
  Result<Date> d = Date::Parse(text);
  EXPECT_TRUE(d.ok()) << text;
  return d.ok() ? d->chronon() : Chronon();
}

Period P(const char* from, const char* to) {
  return Period(Day(from), Day(to));
}
Period From(const char* from) { return Period::From(Day(from)); }

Fact NameRank(const char* name, const char* rank, Period valid, Period txn) {
  return Fact{{Value(name), Value(rank)}, valid, txn};
}

std::vector<Fact> EngineFacts(Database* db, const std::string& relation) {
  std::vector<Fact> out;
  Result<StoredRelation*> rel = db->GetRelation(relation);
  EXPECT_TRUE(rel.ok()) << relation;
  if (!rel.ok()) return out;
  (*rel)->store()->ForEach([&](RowId, const BitemporalTuple& t) {
    out.push_back(Fact{t.values, t.valid, t.txn});
  });
  return out;
}

std::vector<Fact> RowsetFacts(const Rowset& rows) {
  std::vector<Fact> out;
  for (const Row& r : rows.rows()) {
    out.push_back(Fact{r.values, r.valid.value_or(Period::All()),
                       r.txn.value_or(Period::All())});
  }
  return out;
}

std::string Render(const std::vector<Fact>& facts) {
  std::string out;
  for (const Fact& f : facts) out += "\n  " + reference::FactToString(f);
  return out;
}

// Replays `script` into the reference (the clock as the engine's would be)
// and into an engine; both must hold exactly `want` in `relation`.  The
// replayed engine goes to `engine` when one is given.
void ExpectFigure(const std::vector<paper::ScriptStep>& script,
                  const std::string& relation, const std::vector<Fact>& want,
                  ReferenceModel* model,
                  std::unique_ptr<Database>* engine = nullptr) {
  Chronon now = Day("01/01/70");
  for (const paper::ScriptStep& step : script) {
    if (!step.date.empty()) now = Day(step.date.c_str());
    Result<Answer> r = model->Execute(step.stmt, now);
    ASSERT_TRUE(r.ok()) << step.stmt << ": " << r.status().ToString();
  }
  ASSERT_NE(model->Find(relation), nullptr);
  EXPECT_TRUE(reference::SameFacts(model->Find(relation)->facts, want))
      << "reference:" << Render(model->Find(relation)->facts)
      << "\nfigure:" << Render(want);

  ManualClock clock(Day("01/01/70"));
  DatabaseOptions options;
  options.clock = &clock;
  std::unique_ptr<Database> db = std::move(*Database::Open(options));
  ASSERT_TRUE(paper::Replay(db.get(), &clock, script).ok());
  EXPECT_TRUE(reference::SameFacts(EngineFacts(db.get(), relation), want))
      << "engine:" << Render(EngineFacts(db.get(), relation));
  if (engine != nullptr) *engine = std::move(db);
}

// Every state of the cube of `r` (Figures 3, 5 and 7: the statements
// `paper::Cube` runs on the engine) gets the same answer from the
// reference, holding the same script.
void ExpectCubeStates(Database* db, ReferenceModel* model) {
  ASSERT_NE(db, nullptr);
  Result<std::vector<paper::CubeState>> cube = paper::Cube(db, "r");
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  ASSERT_FALSE(cube->empty());
  const Chronon now = Day("01/01/85");
  ASSERT_TRUE(model->Execute("range of r is r", now).ok());
  for (const paper::CubeState& state : *cube) {
    const Result<Answer> want = model->Execute(state.stmt, now);
    ASSERT_TRUE(want.ok()) << state.stmt << ": " << want.status().ToString();
    EXPECT_EQ(state.rows.temporal_class(), want->result_class) << state.stmt;
    EXPECT_TRUE(reference::SameFacts(RowsetFacts(state.rows), want->rows))
        << state.stmt << "\nengine:" << Render(RowsetFacts(state.rows))
        << "\nreference:" << Render(want->rows);
  }
}

// The one row of `query`'s answer on the reference.
Fact OnlyRow(ReferenceModel* model, const std::string& query) {
  Result<Answer> r = model->Execute(query, Day("01/01/85"));
  EXPECT_TRUE(r.ok()) << query << ": " << r.status().ToString();
  if (!r.ok() || r->rows.size() != 1) {
    ADD_FAILURE() << query << " answered " << (r.ok() ? r->rows.size() : 0)
                  << " rows";
    return Fact{};
  }
  return r->rows[0];
}

TEST(ReferenceFigures, Figure2Static) {
  ReferenceModel model;
  ExpectFigure(paper::StaticFacultyScript(), "faculty",
               {NameRank("Merrie", "full", Period::All(), Period::All()),
                NameRank("Tom", "associate", Period::All(), Period::All())},
               &model);
  ASSERT_TRUE(model.Execute("range of f is faculty", Day("01/01/85")).ok());
  const Fact merrie =
      OnlyRow(&model, "retrieve (f.rank) where f.name = \"Merrie\"");
  EXPECT_EQ(merrie.values, std::vector<Value>{Value("full")});
}

TEST(ReferenceFigures, Figures3And4Rollback) {
  ReferenceModel model;
  ExpectFigure(
      paper::RollbackFacultyScript(), "faculty",
      {NameRank("Merrie", "associate", Period::All(), P("08/25/77", "12/15/82")),
       NameRank("Merrie", "full", Period::All(), From("12/15/82")),
       NameRank("Mike", "assistant", Period::All(), P("01/10/83", "02/25/84")),
       NameRank("Tom", "associate", Period::All(), From("12/07/82"))},
      &model);
  const Fact asof = OnlyRow(
      &model, "retrieve (f.rank) where f.name = \"Merrie\" as of \"12/10/82\"");
  EXPECT_EQ(asof.values, std::vector<Value>{Value("associate")});

  const std::vector<Fact> cube = {
      Fact{{Value("a"), Value(int64_t{1})}, Period::All(), From("01/01/80")},
      Fact{{Value("b"), Value(int64_t{2})}, Period::All(),
           P("01/01/80", "03/01/80")},
      Fact{{Value("c"), Value(int64_t{3})}, Period::All(), From("01/01/80")},
      Fact{{Value("d"), Value(int64_t{4})}, Period::All(), From("02/01/80")},
      Fact{{Value("e"), Value(int64_t{5})}, Period::All(), From("03/01/80")}};
  ReferenceModel cube_model;
  std::unique_ptr<Database> cube_db;
  ExpectFigure(paper::CubeScript(TemporalClass::kRollback), "r", cube,
               &cube_model, &cube_db);
  ExpectCubeStates(cube_db.get(), &cube_model);
}

TEST(ReferenceFigures, Figures5And6Historical) {
  ReferenceModel model;
  ExpectFigure(
      paper::FacultyScript("historical"), "faculty",
      {NameRank("Merrie", "associate", P("09/01/77", "12/01/82"),
                Period::All()),
       NameRank("Merrie", "full", From("12/01/82"), Period::All()),
       NameRank("Mike", "assistant", P("01/01/83", "03/01/84"), Period::All()),
       NameRank("Tom", "associate", From("12/05/82"), Period::All())},
      &model);
  ASSERT_TRUE(model.Execute("range of f1 is faculty", Day("01/01/85")).ok());
  ASSERT_TRUE(model.Execute("range of f2 is faculty", Day("01/01/85")).ok());
  const Fact when = OnlyRow(
      &model,
      "retrieve (f1.rank) where f1.name = \"Merrie\" and f2.name = \"Tom\" "
      "when f1 overlap start of f2");
  EXPECT_EQ(when.values, std::vector<Value>{Value("full")});
  EXPECT_EQ(when.valid, From("12/01/82"));

  const std::vector<Fact> cube = {
      Fact{{Value("a"), Value(int64_t{1})}, From("01/01/80"), Period::All()},
      Fact{{Value("b"), Value(int64_t{2})}, P("01/01/80", "03/01/80"),
           Period::All()},
      Fact{{Value("d"), Value(int64_t{4})}, From("02/01/80"), Period::All()},
      Fact{{Value("e"), Value(int64_t{5})}, From("03/01/80"), Period::All()}};
  ReferenceModel cube_model;
  std::unique_ptr<Database> cube_db;
  ExpectFigure(paper::CubeScript(TemporalClass::kHistorical), "r", cube,
               &cube_model, &cube_db);
  ExpectCubeStates(cube_db.get(), &cube_model);
}

TEST(ReferenceFigures, Figures7And8Temporal) {
  ReferenceModel model;
  ExpectFigure(
      paper::FacultyScript("temporal"), "faculty",
      {NameRank("Merrie", "associate", From("09/01/77"),
                P("08/25/77", "12/15/82")),
       NameRank("Merrie", "associate", P("09/01/77", "12/01/82"),
                From("12/15/82")),
       NameRank("Merrie", "full", From("12/01/82"), From("12/15/82")),
       NameRank("Mike", "assistant", From("01/01/83"),
                P("01/10/83", "02/25/84")),
       NameRank("Mike", "assistant", P("01/01/83", "03/01/84"),
                From("02/25/84")),
       NameRank("Tom", "full", From("12/05/82"), P("12/01/82", "12/07/82")),
       NameRank("Tom", "associate", From("12/05/82"), From("12/07/82"))},
      &model);
  ASSERT_TRUE(model.Execute("range of f1 is faculty", Day("01/01/85")).ok());
  ASSERT_TRUE(model.Execute("range of f2 is faculty", Day("01/01/85")).ok());
  const std::string query =
      "retrieve (f1.rank) where f1.name = \"Merrie\" and f2.name = \"Tom\" "
      "when f1 overlap start of f2 as of ";
  const Fact before = OnlyRow(&model, query + "\"12/10/82\"");
  EXPECT_EQ(before.values, std::vector<Value>{Value("associate")});
  EXPECT_EQ(before.valid, From("09/01/77"));
  EXPECT_EQ(before.txn, P("08/25/77", "12/15/82"));
  const Fact after = OnlyRow(&model, query + "\"12/20/82\"");
  EXPECT_EQ(after.values, std::vector<Value>{Value("full")});

  const Value a("a"), b("b"), c("c"), d("d"), e("e");
  const std::vector<Fact> cube = {
      Fact{{a, Value(int64_t{1})}, From("01/01/80"), From("01/01/80")},
      Fact{{b, Value(int64_t{2})}, From("01/01/80"),
           P("01/01/80", "03/01/80")},
      Fact{{b, Value(int64_t{2})}, P("01/01/80", "03/01/80"),
           From("03/01/80")},
      Fact{{c, Value(int64_t{3})}, From("01/01/80"),
           P("01/01/80", "04/01/80")},
      Fact{{d, Value(int64_t{4})}, From("02/01/80"), From("02/01/80")},
      Fact{{e, Value(int64_t{5})}, From("03/01/80"), From("03/01/80")}};
  ReferenceModel cube_model;
  std::unique_ptr<Database> cube_db;
  ExpectFigure(paper::CubeScript(TemporalClass::kTemporal), "r", cube,
               &cube_model, &cube_db);
  ExpectCubeStates(cube_db.get(), &cube_model);
}

TEST(ReferenceFigures, Figure9Events) {
  const auto event = [](const char* name, const char* rank,
                        const char* effective, const char* at, Period txn) {
    return Fact{{Value(name), Value(rank), Value(*Date::Parse(effective))},
                Period::At(Day(at)),
                txn};
  };
  ReferenceModel model;
  ExpectFigure(
      paper::PromotionEventsScript(), "promotion",
      {event("Merrie", "associate", "09/01/77", "08/25/77", From("08/25/77")),
       event("Merrie", "full", "12/01/82", "12/11/82", From("12/15/82")),
       event("Mike", "assistant", "01/01/83", "01/01/83", From("01/10/83")),
       event("Mike", "left", "03/01/84", "02/25/84", From("02/25/84")),
       event("Tom", "full", "12/05/82", "12/05/82", P("12/01/82", "12/07/82")),
       event("Tom", "associate", "12/05/82", "12/07/82", From("12/07/82"))},
      &model);
}

// ---------------------------------------------------------------------------
// Engine against reference
// ---------------------------------------------------------------------------

// One engine configuration of a differential run.
struct Engine {
  bool indexed = false;
  ManualClock clock;
  std::unique_ptr<Database> db;
};

// Feeds the same statements to the reference and to engines with and
// without attribute indexes, unpartitioned and with tiny partitions; every
// engine must agree with the reference on each statement's status, DML
// count and answer, and on the stored facts.
class Differential {
 public:
  Differential() {
    for (bool indexed : {false, true}) {
      for (size_t partition_rows : {size_t{0}, size_t{3}}) {
        auto engine = std::make_unique<Engine>();
        engine->indexed = indexed;
        DatabaseOptions options;
        options.clock = &engine->clock;
        options.store_options.partition_rows = partition_rows;
        engine->db = std::move(*Database::Open(options));
        engines_.push_back(std::move(engine));
      }
    }
  }

  // `create index` statements reach only the indexed engines.  A
  // `retrieve` also runs at a reader pin of each engine's committed state,
  // which must give the writer's status and the reference's answer.
  void Run(int64_t day, const std::string& stmt) {
    SCOPED_TRACE(stmt);
    const Result<Answer> want = model_.Execute(stmt, Chronon(day));
    if (want.ok()) {
      ++succeeded_;
      if (want->count > 0) ++nonempty_;
    } else {
      ++failed_;
    }
    const auto expect_answer = [&](const Rowset& rows) {
      EXPECT_EQ(rows.temporal_class(), want->result_class);
      EXPECT_TRUE(reference::SameFacts(RowsetFacts(rows), want->rows))
          << "engine:" << Render(RowsetFacts(rows))
          << "\nreference:" << Render(want->rows);
    };
    const bool index = stmt.rfind("create index", 0) == 0;
    const bool retrieve = stmt.rfind("retrieve", 0) == 0;
    for (const auto& e : engines_) {
      if (index && !e->indexed) continue;
      e->clock.SetTime(Chronon(day));
      const Result<tquel::ExecResult> got = e->db->Execute(stmt);
      ASSERT_EQ(got.ok(), want.ok())
          << "engine " << got.status().ToString() << " vs reference "
          << want.status().ToString();
      if (retrieve) {
        Result<ReadSnapshot> snap = e->db->BeginReadSnapshot();
        ASSERT_TRUE(snap.ok()) << snap.status().ToString();
        const Result<Rowset> pinned = e->db->QueryAtSnapshot(*snap, stmt);
        EXPECT_EQ(pinned.status().ToString(), got.status().ToString())
            << "at a reader pin";
        if (pinned.ok() && want.ok()) expect_answer(*pinned);
      }
      if (!got.ok()) continue;
      if (got->kind == tquel::ExecResult::Kind::kCount) {
        EXPECT_EQ(got->count, want->count);
      }
      if (got->kind != tquel::ExecResult::Kind::kRows) continue;
      expect_answer(got->rows);
    }
  }

  // Runs the DML statements `members` in one explicit transaction on every
  // engine, at transaction time `day`, each checked as `Run` checks it; the
  // transaction commits whichever of them failed.  A failing statement
  // changes nothing, in the engines as in the reference.
  void RunTransaction(int64_t day, const std::vector<std::string>& members) {
    for (const auto& e : engines_) {
      e->clock.SetTime(Chronon(day));
      ASSERT_TRUE(e->db->Execute("begin transaction").ok());
    }
    for (const std::string& stmt : members) {
      const size_t failed = failed_;
      Run(day, stmt);
      if (testing::Test::HasFatalFailure()) return;
      failed_in_transactions_ += failed_ - failed;
    }
    for (const auto& e : engines_) {
      const Result<tquel::ExecResult> commit =
          e->db->Execute("commit transaction");
      ASSERT_TRUE(commit.ok()) << commit.status().ToString();
    }
  }

  // The reference's rows for `query` (checked on every engine by Run).
  std::vector<Fact> Rows(int64_t day, const std::string& query) {
    Run(day, query);
    Result<Answer> r = model_.Execute(query, Chronon(day));
    return r.ok() ? r->rows : std::vector<Fact>{};
  }

  // Statements that succeeded, and those that selected or answered a row.
  size_t succeeded() const { return succeeded_; }
  size_t nonempty() const { return nonempty_; }
  // Failed statements inside transactions that went on to commit.
  size_t failed_in_transactions() const { return failed_in_transactions_; }

  void ExpectSameStore() {
    for (const auto& [name, rel] : model_.relations()) {
      for (const auto& e : engines_) {
        EXPECT_TRUE(
            reference::SameFacts(EngineFacts(e->db.get(), name), rel.facts))
            << name << " (indexed " << e->indexed << ")";
      }
    }
  }

 private:
  ReferenceModel model_;
  std::vector<std::unique_ptr<Engine>> engines_;
  size_t succeeded_ = 0;
  size_t nonempty_ = 0;
  size_t failed_ = 0;
  size_t failed_in_transactions_ = 0;
};

// The wide-int repro: rows k = 2^53 (n = 1) and k = 2^53 + 1 (n = 2) of `w`
// and a `v` row k = 2^53 + 1.  The walk, the index probe, the hash step of
// `x.k = y.k` and the nested loop of `not (x.k != y.k)` all answer n = 2
// only.
TEST(ReferenceDifferential, WideIntKeysSelectOneRowOnEveryPlan) {
  Differential diff;
  const int64_t day = 3650;
  for (const char* stmt : {
           "create static relation w (k = int, n = int)",
           "create static relation v (k = int)",
           "range of x is w",
           "range of y is v",
           "append to w (k = 9007199254740992, n = 1)",
           "append to w (k = 9007199254740993, n = 2)",
           "append to v (k = 9007199254740993)",
       }) {
    diff.Run(day, stmt);
  }
  const std::vector<Fact> two = {Fact{{Value(int64_t{2})}}};
  const std::string walk = "retrieve (x.n) where x.k = 9007199254740993";
  EXPECT_TRUE(reference::SameFacts(diff.Rows(day, walk), two));
  diff.Run(day, "create index on w (k)");
  EXPECT_TRUE(reference::SameFacts(diff.Rows(day, walk), two));
  EXPECT_TRUE(reference::SameFacts(
      diff.Rows(day, "retrieve (x.n) where x.k = y.k"), two));
  EXPECT_TRUE(reference::SameFacts(
      diff.Rows(day, "retrieve (x.n) where not (x.k != y.k)"), two));
  diff.ExpectSameStore();
}

// A random statement over relations st (static), ro (rollback), hi
// (historical) and te (temporal), each (k = int, n = int, t = string),
// ranged over by s/s2, r/r2, h/h2, t/t2.  Edge values: ints at 2^53 +- 1,
// the empty string, open-ended and instant valid periods, and several
// statements on one day.
class StatementGenerator {
 public:
  explicit StatementGenerator(uint64_t seed) : rng_(seed) {}

  std::string Next(int64_t day) {
    const int kind = static_cast<int>(rng_.Uniform(4));
    const std::string rel = kRelations[kind];
    const std::string var = kVars[kind];
    const bool valid_time = kind >= 2;
    switch (rng_.Uniform(8)) {
      case 0:
      case 1:
        return Append(rel, valid_time, day);
      case 2:
        return Delete(var, valid_time, day);
      case 3:
        return Replace(var, valid_time, day);
      case 4:
        return rng_.OneIn(3) ? "correct h" + Where("h")
                             : "retrieve (" + var + ".k, " + var + ".n, " +
                                   var + ".t)" + Where(var);
      case 5: {
        // Plain column targets beside a computed one.
        std::string q = "retrieve (" + var + ".k, " + var + ".t" +
                        (rng_.OneIn(2) ? ", m = " + var + ".n + 1" : "") +
                        ")" + Where(var);
        if (valid_time && rng_.OneIn(2)) q += When(var, day);
        if (valid_time) q += ResultValid(day);
        if (kind % 2 == 1 && rng_.OneIn(2)) q += " as of " + Date(day);
        return q;
      }
      case 6: {
        // A self-join: hash step, nested loop or when-join.
        const std::string other = var + "2";
        std::string q = "retrieve (" + var + ".n, " + other + ".t" +
                        (rng_.OneIn(2)
                             ? ", m = " + var + ".n + " + other + ".n"
                             : "") +
                        ")";
        switch (rng_.Uniform(5)) {
          case 0:
            q += " where " + var + ".k = " + other + ".k";
            break;
          case 1:
            q += " where not (" + var + ".k != " + other + ".k)";
            break;
          case 2:
            // A key range on the outer side, its keys probed by the inner.
            q += " where " + var + ".k = " + other + ".k and " + var +
                 ".k >= " + Key();
            break;
          case 3:
            q += " where " + other + ".k = " + var + ".k and " + Key() +
                 " > " + other + ".k";
            break;
          default:
            q += " where " + var + ".t = " + other + ".t";
        }
        if (valid_time && rng_.OneIn(2)) {
          q += " when " + var + " overlap " + other;
        }
        return q;
      }
      default:
        return "retrieve (c = count(" + var + ".k), m = max(" + var + ".n))" +
               Where(var);
    }
  }

  // A member of an explicit transaction: a DML statement, half of them
  // built to fail on some rows -- a `where` or an assignment dividing by a
  // zero `n`, or a `when` taking `begin of` an empty overlap.
  std::string NextMember(int64_t day) {
    const int kind = static_cast<int>(rng_.Uniform(4));
    const std::string rel = kRelations[kind];
    const std::string var = kVars[kind];
    const bool valid_time = kind >= 2;
    const std::string valid = valid_time ? Valid(day) : "";
    switch (rng_.Uniform(6)) {
      case 0:
        return Append(rel, valid_time, day);
      case 1:
        return Delete(var, valid_time, day);
      case 2:
        return Replace(var, valid_time, day);
      case 3:
        return "delete " + var + valid + " where 10 / " + var + ".n > 1";
      case 4:
        return "replace " + var + " (n = 10 / " + var + ".n)" + valid +
               Where(var);
      default:
        if (!valid_time) {
          return "replace " + var + " (t = \"z\") where " + var +
                 ".k >= 10 / " + var + ".n";
        }
        return "delete " + var + valid + " when begin of (" + var +
               " overlap " + Date(day - 20 + rng_.Uniform(40)) +
               ") precede " + Date(day);
    }
  }

  static constexpr const char* kRelations[] = {"st", "ro", "hi", "te"};
  static constexpr const char* kVars[] = {"s", "r", "h", "t"};

 private:
  std::string Append(const std::string& rel, bool valid_time, int64_t day) {
    return "append to " + rel + " (k = " + Key() + ", n = " + Small() +
           ", t = " + Text() + ")" + (valid_time ? Valid(day) : "");
  }
  std::string Delete(const std::string& var, bool valid_time, int64_t day) {
    return "delete " + var + (valid_time ? Valid(day) : "") + Where(var) +
           (valid_time && rng_.OneIn(3) ? When(var, day) : "");
  }
  std::string Replace(const std::string& var, bool valid_time, int64_t day) {
    return "replace " + var + " (n = " + var + ".n + 1, t = " + Text() +
           ")" + (valid_time ? Valid(day) : "") + Where(var) +
           (valid_time && rng_.OneIn(3) ? When(var, day) : "");
  }

  std::string Key() {
    static const char* kKeys[] = {"0",
                                  "1",
                                  "9007199254740991",
                                  "9007199254740992",
                                  "9007199254740993",
                                  "-9007199254740993"};
    return kKeys[rng_.Uniform(6)];
  }
  std::string Small() { return std::to_string(rng_.Uniform(3)); }
  std::string Text() {
    static const char* kTexts[] = {"\"\"", "\"a\"", "\"b\""};
    return kTexts[rng_.Uniform(3)];
  }
  static std::string Date(int64_t day) {
    return "\"" + Chronon(day).ToString() + "\"";
  }
  std::string Valid(int64_t day) {
    const int64_t from = day - 20 + static_cast<int64_t>(rng_.Uniform(40));
    switch (rng_.Uniform(4)) {
      case 0:
        return "";
      case 1:
        return " valid from " + Date(from) + " to \"inf\"";
      case 2:
        return " valid at " + Date(from);
      default:
        return " valid from " + Date(from) + " to " +
               Date(from + 1 + static_cast<int64_t>(rng_.Uniform(15)));
    }
  }
  // A retrieve's result valid clause, which replaces the default period.
  std::string ResultValid(int64_t day) {
    const int64_t from = day - 20 + static_cast<int64_t>(rng_.Uniform(40));
    switch (rng_.Uniform(3)) {
      case 0:
        return "";
      case 1:
        return " valid at " + Date(from);
      default:
        return " valid from " + Date(from) + " to " +
               Date(from + static_cast<int64_t>(rng_.Uniform(15)));
    }
  }
  std::string Where(const std::string& var) {
    switch (rng_.Uniform(6)) {
      case 0:
        return "";
      case 1:
        return " where " + var + ".k = " + Key();
      case 2:
        return " where " + var + ".t = " + Text() + " and " + var +
               ".n < " + Small();
      case 3:
        // A key range, the literal on either side.
        return " where " + var + ".k >= " + Key() + " and " + var +
               ".k < " + Key();
      case 4:
        return " where " + Key() + " < " + var + ".k and " + Key() +
               " >= " + var + ".k and " + var + ".n <= " + Small();
      default:
        return " where " + var + ".k >= " + Key();
    }
  }
  std::string When(const std::string& var, int64_t day) {
    return " when " + var + " overlap " +
           Date(day - 20 + static_cast<int64_t>(rng_.Uniform(40)));
  }

  Random rng_;
};

TEST(ReferenceDifferential, RandomStatementsAgreeOnEveryKind) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Differential diff;
    StatementGenerator gen(seed);
    int64_t day = 3650;
    const char* kinds[] = {"static", "rollback", "historical", "temporal"};
    for (int i = 0; i < 4; ++i) {
      const std::string rel = StatementGenerator::kRelations[i];
      const std::string var = StatementGenerator::kVars[i];
      diff.Run(day, std::string("create ") + kinds[i] + " relation " + rel +
                        " (k = int, n = int, t = string)");
      diff.Run(day, "range of " + var + " is " + rel);
      diff.Run(day, "range of " + var + "2 is " + rel);
      diff.Run(day, "create index on " + rel + " (k)");
    }
    Random clock_rng(seed * 7919);
    for (int step = 0; step < 400; ++step) {
      // Often several statements on one day: replaces of facts recorded
      // that same day leave empty transaction periods behind.
      if (clock_rng.OneIn(3)) day += 1 + clock_rng.Uniform(3);
      if (clock_rng.OneIn(10)) {
        // An explicit transaction of 2-4 members that commits after them.
        std::vector<std::string> members(2 + clock_rng.Uniform(3));
        for (std::string& m : members) m = gen.NextMember(day);
        diff.RunTransaction(day, members);
      } else {
        diff.Run(day, gen.Next(day));
      }
      if (testing::Test::HasFatalFailure()) return;
    }
    diff.ExpectSameStore();
    // The stream exercises data: most statements are legal, many select or
    // answer rows, and committed transactions hold failed members.
    EXPECT_GT(diff.succeeded(), 300u);
    EXPECT_GT(diff.nonempty(), 150u);
    EXPECT_GT(diff.failed_in_transactions(), 10u);
  }
}

}  // namespace
}  // namespace temporadb
