// Join planning in the TQuel evaluator: hash steps on equality join keys
// and per-participant filters below the join.  Every join is checked two
// ways:
//  - against an overlap join this test computes itself from single-relation
//    retrieves, without the evaluator's join;
//  - row for row, in order, against the same query written so the planner
//    finds neither a key nor a filter (`not (x != y)`, `x + 0 >= lo`),
//    which the evaluator runs as the plain nested loop.
// The corpus is the workload suite's HR/payroll history over three seeds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "tquel/analyzer.h"
#include "tquel/parser.h"
#include "workload/generator.h"
#include "workload/reference.h"

namespace temporadb {
namespace {

std::vector<std::string> Rendered(const Rowset& rs) {
  std::vector<std::string> out;
  for (const Row& r : rs.rows()) out.push_back(r.ToString());
  return out;
}

std::vector<std::string> Sorted(std::vector<std::string> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

// How a query is spelled: `kPlanned` as a user would write it, `kNested`
// so that no conjunct is a join key or a single-participant filter.
enum class Spelling { kPlanned, kNested };

std::string Key(Spelling sp, const std::string& x, const std::string& y) {
  return sp == Spelling::kPlanned ? x + " = " + y
                                  : "not (" + x + " != " + y + ")";
}

std::string Cmp(Spelling sp, const std::string& x, const char* op,
                int64_t v) {
  return (sp == Spelling::kPlanned ? x : x + " + 0") + " " + op + " " +
         std::to_string(v);
}

std::string Band(Spelling sp, const std::string& x, int64_t lo, int64_t hi) {
  return Cmp(sp, x, ">=", lo) + " and " + Cmp(sp, x, "<", hi);
}

// The overlap join of single-relation results: a combination survives when
// `match` holds and the valid periods (and, for a result with transaction
// time, the transaction periods) have a non-empty common intersection.
// Each input row's column 0 is its `emp`; the output row is every input's
// columns, with column 0 kept only from the first.
std::vector<std::string> OverlapJoin(
    const std::vector<const Rowset*>& inputs, bool with_txn,
    const std::function<bool(const std::vector<const Row*>&)>& match) {
  std::vector<std::string> out;
  std::vector<const Row*> pick(inputs.size());
  std::function<void(size_t)> rec = [&](size_t i) {
    if (i < inputs.size()) {
      for (const Row& r : inputs[i]->rows()) {
        pick[i] = &r;
        rec(i + 1);
      }
      return;
    }
    if (!match(pick)) return;
    Row row;
    Period valid = *pick[0]->valid;
    std::optional<Period> txn = pick[0]->txn;
    for (size_t k = 0; k < pick.size(); ++k) {
      const std::vector<Value>& v = pick[k]->values;
      row.values.insert(row.values.end(), v.begin() + (k == 0 ? 0 : 1),
                        v.end());
      valid = valid.Intersect(*pick[k]->valid);
      if (with_txn) txn = txn->Intersect(*pick[k]->txn);
    }
    if (valid.IsEmpty()) return;
    row.valid = valid;
    if (with_txn) {
      if (txn->IsEmpty()) return;
      row.txn = txn;
    }
    out.push_back(row.ToString());
  };
  rec(0);
  return Sorted(std::move(out));
}

bool SameEmp(const std::vector<const Row*>& p) {
  for (const Row* r : p) {
    if (r->values[0] != p[0]->values[0]) return false;
  }
  return true;
}

// Consecutive inputs' valid periods overlap (the `when a overlap b and
// b overlap c` chain).
bool ChainOverlaps(const std::vector<const Row*>& p) {
  for (size_t k = 1; k < p.size(); ++k) {
    if (!p[k - 1]->valid->Overlaps(*p[k]->valid)) return false;
  }
  return true;
}

// The workload corpus for one seed, applied through TQuel.
class Corpus {
 public:
  explicit Corpus(uint64_t seed) {
    opts_.seed = seed;
    opts_.employees = 64;
    opts_.departments = 6;
    opts_.ops = 600;
    DatabaseOptions options;
    options.clock = &clock_;
    db_ = std::move(*Database::Open(options));
    workload::WorkloadGenerator gen(opts_);
    for (const workload::WorkloadOp& op : workload::WorkloadDdl(opts_)) {
      Apply(op);
    }
    for (const workload::WorkloadOp& op : gen.SeedOps()) Apply(op);
    workload::WorkloadOp op;
    while (gen.Next(&op)) Apply(op);
    max_day_ = gen.day();
    Apply({max_day_, "range of s2 is salaries"});
  }

  Database* db() { return db_.get(); }
  const workload::WorkloadOptions& opts() const { return opts_; }
  int64_t max_day() const { return max_day_; }

 private:
  void Apply(const workload::WorkloadOp& op) {
    clock_.SetTime(Chronon(op.day));
    Result<tquel::ExecResult> r = db_->Execute(op.stmt);
    ASSERT_TRUE(r.ok()) << op.stmt << ": " << r.status().ToString();
  }

  workload::WorkloadOptions opts_;
  ManualClock clock_;
  std::unique_ptr<Database> db_;
  int64_t max_day_ = 0;
};

// Runs a query on the writer path, or through `snapshot` when given.
Rowset RunQuery(Database* db, const ReadSnapshot* snapshot,
                const std::string& query) {
  Result<Rowset> r = snapshot == nullptr
                         ? db->Query(query)
                         : db->QueryAtSnapshot(*snapshot, query);
  EXPECT_TRUE(r.ok()) << query << ": " << r.status().ToString();
  return r.ok() ? std::move(*r) : Rowset();
}

// A join under test: the query in both spellings, and the oracle inputs.
struct JoinCase {
  std::function<std::string(Spelling)> query;
  std::vector<std::string> inputs;  ///< Single-relation retrieves.
  std::function<bool(const std::vector<const Row*>&)> match;
};

class JoinPlanTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  // Checks `c` on the writer path and through a fresh snapshot pin.
  void Check(Corpus* corpus, const JoinCase& c) {
    Database* db = corpus->db();
    Result<ReadSnapshot> pin = db->BeginReadSnapshot();
    ASSERT_TRUE(pin.ok()) << pin.status().ToString();
    const std::string planned = c.query(Spelling::kPlanned);
    const Rowset writer = RunQuery(db, nullptr, planned);
    const std::vector<const ReadSnapshot*> paths = {nullptr, &*pin};
    for (const ReadSnapshot* snap : paths) {
      const Rowset joined = RunQuery(db, snap, planned);
      const Rowset nested = RunQuery(db, snap, c.query(Spelling::kNested));
      EXPECT_EQ(Rendered(joined), Rendered(nested)) << planned;
      // The writer probes key ranges and key sets where the pin sweeps;
      // both answer in the sweep's order.
      if (snap != nullptr) {
        EXPECT_EQ(Rendered(joined), Rendered(writer)) << planned;
      }
      std::vector<Rowset> in;
      for (const std::string& q : c.inputs) {
        in.push_back(RunQuery(db, snap, q));
      }
      std::vector<const Rowset*> ptrs;
      for (const Rowset& r : in) ptrs.push_back(&r);
      EXPECT_EQ(Sorted(Rendered(joined)),
                OverlapJoin(ptrs, joined.has_txn_time(), c.match))
          << planned;
      rows_ += joined.size();
    }
  }

  size_t rows_ = 0;  ///< Rows the checked joins returned, summed.
};

TEST_P(JoinPlanTest, RandomEmployeeBands) {
  Corpus corpus(GetParam());
  Random rng(GetParam());
  const int64_t employees = static_cast<int64_t>(corpus.opts().employees);
  for (int q = 0; q < 7; ++q) {
    int64_t lo = static_cast<int64_t>(rng.Uniform(employees));
    int64_t hi = lo + 1 + static_cast<int64_t>(rng.Uniform(8));
    if (q == 6) {
      // Every key: both key walks pass half the rows and sweep instead.
      lo = 0;
      hi = employees;
    }
    Check(&corpus,
          {[&](Spelling sp) {
             return "retrieve (s.emp, s.amount, a.dept) where " +
                    Key(sp, "s.emp", "a.emp") + " and " +
                    Band(sp, "s.emp", lo, hi) + " when s overlap a";
           },
           {"retrieve (s.emp, s.amount) where " +
                Band(Spelling::kPlanned, "s.emp", lo, hi),
            "retrieve (a.emp, a.dept) where " +
                Band(Spelling::kPlanned, "a.emp", lo, hi)},
           [](const std::vector<const Row*>& p) {
             return SameEmp(p) && ChainOverlaps(p);
           }});
  }
  EXPECT_GT(rows_, 0u);
}

TEST_P(JoinPlanTest, AsOfJoinOfTwoTemporalRelations) {
  Corpus corpus(GetParam());
  Random rng(GetParam() + 1);
  const int64_t start = corpus.opts().start_day;
  for (int q = 0; q < 4; ++q) {
    const int64_t lo = static_cast<int64_t>(rng.Uniform(16));
    const int64_t hi = lo + 1 + static_cast<int64_t>(rng.Uniform(8));
    const int64_t day =
        start + static_cast<int64_t>(rng.Uniform(
                    static_cast<uint64_t>(corpus.max_day() - start + 1)));
    const std::string as_of =
        " as of \"" + Date(Chronon(day)).ToString() + "\"";
    Check(&corpus,
          {[&](Spelling sp) {
             return "retrieve (s.emp, s.amount, amount2 = s2.amount) where " +
                    Key(sp, "s.emp", "s2.emp") + " and " +
                    Band(sp, "s.emp", lo, hi) + " when s overlap s2" + as_of;
           },
           {"retrieve (s.emp, s.amount) where " +
                Band(Spelling::kPlanned, "s.emp", lo, hi) + as_of,
            "retrieve (s2.emp, s2.amount)" + as_of},
           [](const std::vector<const Row*>& p) {
             return SameEmp(p) && ChainOverlaps(p);
           }});
  }
  EXPECT_GT(rows_, 0u);
}

// s x a x s2: a hashes on s's key, s2 on a's.  The band on s stays a filter
// in both spellings; without it the nested spelling pays the whole
// three-way product.
TEST_P(JoinPlanTest, ThreeParticipantJoin) {
  Corpus corpus(GetParam());
  Random rng(GetParam() + 2);
  for (int q = 0; q < 4; ++q) {
    const int64_t lo = static_cast<int64_t>(rng.Uniform(24));
    const int64_t hi = lo + 1 + static_cast<int64_t>(rng.Uniform(6));
    Check(&corpus,
          {[&](Spelling sp) {
             return "retrieve (s.emp, s.amount, a.dept, amount2 = s2.amount)"
                    " where " +
                    Key(sp, "s.emp", "a.emp") + " and " +
                    Key(sp, "a.emp", "s2.emp") + " and " +
                    Band(Spelling::kPlanned, "s.emp", lo, hi) +
                    " when s overlap a and a overlap s2";
           },
           {"retrieve (s.emp, s.amount) where " +
                Band(Spelling::kPlanned, "s.emp", lo, hi),
            "retrieve (a.emp, a.dept) where " +
                Band(Spelling::kPlanned, "a.emp", lo, hi),
            "retrieve (s2.emp, s2.amount) where " +
                Band(Spelling::kPlanned, "s2.emp", lo, hi)},
           [](const std::vector<const Row*>& p) {
             return SameEmp(p) && ChainOverlaps(p);
           }});
  }
  EXPECT_GT(rows_, 0u);
}

// An `or` spanning two participants is not a single-participant conjunct:
// pushing either disjunct below the join would drop rows the other admits.
TEST_P(JoinPlanTest, OrAcrossParticipantsIsNotFilteredPerParticipant) {
  Corpus corpus(GetParam());
  Random rng(GetParam() + 3);
  const int64_t lo = 4 + static_cast<int64_t>(rng.Uniform(8));
  const std::string dept =
      "d" + std::to_string(rng.Uniform(corpus.opts().departments));
  Check(&corpus,
        {[&](Spelling sp) {
           return "retrieve (s.emp, s.amount, a.dept) where " +
                  Key(sp, "s.emp", "a.emp") + " and (" +
                  Cmp(sp, "s.emp", "<", lo) + " or a.dept = \"" + dept +
                  "\") when s overlap a";
         },
         {"retrieve (s.emp, s.amount)", "retrieve (a.emp, a.dept)"},
         [&](const std::vector<const Row*>& p) {
           return SameEmp(p) && ChainOverlaps(p) &&
                  (p[0]->values[0].AsInt() < lo ||
                   p[1]->values[1].AsString() == dept);
         }});
  // A top-level `or` has no conjunct to plan at all.
  Check(&corpus,
        {[&](Spelling sp) {
           return "retrieve (s.emp, s.amount, a.dept) where (" +
                  Key(sp, "s.emp", "a.emp") + " and " +
                  Cmp(sp, "s.emp", "<", lo) + ") or (" +
                  Key(sp, "s.emp", "a.emp") + " and " +
                  Cmp(sp, "a.emp", ">=", lo + 40) + ") when s overlap a";
         },
         {"retrieve (s.emp, s.amount)", "retrieve (a.emp, a.dept)"},
         [&](const std::vector<const Row*>& p) {
           const int64_t emp = p[0]->values[0].AsInt();
           return SameEmp(p) && ChainOverlaps(p) &&
                  (emp < lo || emp >= lo + 40);
         }});
  EXPECT_GT(rows_, 0u);
}

// `a.emp = K` probes the attribute index for a's candidates, which the hash
// step then buckets by `s.emp = a.emp`.
TEST_P(JoinPlanTest, EqualityProbeUnderHashStep) {
  Corpus corpus(GetParam());
  for (int64_t k : {int64_t{0}, int64_t{5}, int64_t{17}}) {
    const std::string probe = "a.emp = " + std::to_string(k);
    Check(&corpus,
          {[&](Spelling sp) {
             return "retrieve (s.emp, s.amount, a.dept) where " + probe +
                    " and " + Key(sp, "s.emp", "a.emp") +
                    " when s overlap a";
           },
           {"retrieve (s.emp, s.amount)",
            "retrieve (a.emp, a.dept) where " + probe},
           [](const std::vector<const Row*>& p) {
             return SameEmp(p) && ChainOverlaps(p);
           }});
  }
  EXPECT_GT(rows_, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinPlanTest,
                         ::testing::Values(uint64_t{7}, uint64_t{42},
                                           uint64_t{20261018}));

// ---------------------------------------------------------------------------
// Semantic traps, on small hand-built relations.

class JoinTrapTest : public ::testing::Test {
 protected:
  JoinTrapTest() {
    DatabaseOptions options;
    options.clock = &clock_;
    db_ = std::move(*Database::Open(options));
    clock_.SetDate("01/01/80").ok();
  }

  void Exec(const std::string& src) {
    Result<tquel::ExecResult> r = db_->Execute(src);
    ASSERT_TRUE(r.ok()) << src << ": " << r.status().ToString();
  }

  std::vector<std::string> Query(const std::string& src) {
    Result<Rowset> r = db_->Query(src);
    EXPECT_TRUE(r.ok()) << src << ": " << r.status().ToString();
    return r.ok() ? Rendered(*r) : std::vector<std::string>{};
  }

  Result<tquel::BoundRetrieve> Analyze(const std::string& src) {
    TDB_ASSIGN_OR_RETURN(tquel::Statement stmt, tquel::ParseOne(src));
    tquel::AnalyzerContext ctx;
    ctx.get_relation = [this](std::string_view name) {
      return db_->GetRelation(name);
    };
    ctx.ranges = &ranges_;
    return tquel::AnalyzeRetrieve(std::get<tquel::RetrieveStmt>(stmt), ctx);
  }

  void Append(const std::string& relation, std::vector<Value> values) {
    StoredRelation* rel = *db_->GetRelation(relation);
    ASSERT_TRUE(db_->WithTransaction([&](Transaction* txn) {
                     return rel->Append(txn, values, std::nullopt);
                   }).ok());
  }

  ManualClock clock_;
  std::unique_ptr<Database> db_;
  std::map<std::string, std::string> ranges_{{"x", "p"}, {"y", "q"}};
};

// `=` compares int 3 and float 3.0 equal, but a hash keyed on the stored
// values would not; such mixed keys stay on the nested loop.
TEST_F(JoinTrapTest, MixedKeysFallBackToTheNestedLoop) {
  Exec("create relation p (k = int, f = float)");
  Exec("create relation q (k = float, f = float)");
  Exec("range of x is p");
  Exec("range of y is q");
  Append("p", {Value(int64_t{3}), Value(0.0)});
  Append("q", {Value(3.0), Value(-0.0)});
  const std::string q = "retrieve (x.k, yk = y.k) where x.k = y.k";
  EXPECT_EQ(Query(q).size(), 1u);
  Result<tquel::BoundRetrieve> bound = Analyze(q);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  for (const auto& keys : bound->join_keys) EXPECT_TRUE(keys.empty());
}

// Float = float keys hash: `=`, `Hash` and the B+-tree agree that NaN
// equals NaN, -0.0 equals 0.0, and null equals null.  So the hash step and
// the `not (x != y)` nested loop give the same rows in the same order, and
// an index probe on a float literal gives the walk's rows.
TEST_F(JoinTrapTest, FloatKeysGiveTheSameRowsOnEveryPlan) {
  Exec("create relation p (f = float, tag = string)");
  Exec("create relation q (f = float, tag = string)");
  Exec("range of x is p");
  Exec("range of y is q");
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<Value> keys = {
      Value(0.0), Value(-0.0), Value(std::nan("")), Value(inf),
      Value(-inf), Value::Null(), Value(1.5),       Value(2.0)};
  for (size_t i = 0; i < keys.size(); ++i) {
    Append("p", {keys[i], Value("p" + std::to_string(i))});
    Append("q", {keys[keys.size() - 1 - i], Value("q" + std::to_string(i))});
  }
  const std::string hashed = "retrieve (x.tag, ytag = y.tag) where x.f = y.f";
  Result<tquel::BoundRetrieve> bound = Analyze(hashed);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  EXPECT_EQ(bound->join_keys[1].size(), 1u);
  const std::vector<std::string> joined = Query(hashed);
  EXPECT_EQ(joined,
            Query("retrieve (x.tag, ytag = y.tag) where not (x.f != y.f)"));
  // 0.0 and -0.0 pair up four ways; every other key meets its one twin.
  EXPECT_EQ(joined.size(), 4u + 6u);

  const std::vector<std::string> literals = {"0.0", "1.5", "2.0", "3.0"};
  std::vector<std::vector<std::string>> walked;
  for (const std::string& k : literals) {
    walked.push_back(Query("retrieve (x.tag) where x.f = " + k));
  }
  Exec("create index on p (f)");
  for (size_t i = 0; i < literals.size(); ++i) {
    const std::string probed = "retrieve (x.tag) where x.f = " + literals[i];
    Result<tquel::BoundRetrieve> plan = Analyze(probed);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_TRUE(plan->probe_keys[0].has_value()) << probed;
    EXPECT_EQ(Query(probed), walked[i]) << probed;
  }
  EXPECT_EQ(walked[0].size(), 2u);
}

// Null = null holds under Value::Compare, so null keys meet in one bucket
// and join each other exactly as in the nested loop.
TEST_F(JoinTrapTest, NullKeysJoinAsInTheNestedLoop) {
  Exec("create relation p (k = int, tag = string)");
  Exec("create relation q (k = int, tag = string)");
  Exec("range of x is p");
  Exec("range of y is q");
  Exec("append to p (tag = \"p1\")");
  Exec("append to p (k = 1, tag = \"p2\")");
  Exec("append to q (tag = \"q1\")");
  Exec("append to q (k = 1, tag = \"q2\")");
  Exec("append to q (tag = \"q3\")");
  Result<tquel::BoundRetrieve> bound =
      Analyze("retrieve (x.tag, ytag = y.tag) where x.k = y.k");
  ASSERT_TRUE(bound.ok());
  ASSERT_EQ(bound->join_keys.size(), 2u);
  EXPECT_EQ(bound->join_keys[1].size(), 1u);
  const std::vector<std::string> expected = {"(p1, q1)", "(p1, q3)",
                                             "(p2, q2)"};
  EXPECT_EQ(Query("retrieve (x.tag, ytag = y.tag) where x.k = y.k"), expected);
  EXPECT_EQ(Query("retrieve (x.tag, ytag = y.tag) where not (x.k != y.k)"),
            expected);
}

// A statement with a conjunct that can fail is not planned at all: no join
// key and no filter below the join.  A query whose other side is empty
// builds no combination and must keep succeeding.
TEST_F(JoinTrapTest, ConjunctsThatCanFailStayAboveTheJoin) {
  Exec("create relation p (k = int, tag = string)");
  Exec("create relation q (k = int, tag = string)");
  Exec("range of x is p");
  Exec("range of y is q");
  Exec("append to p (k = 1, tag = \"p1\")");
  const std::string q =
      "retrieve (x.tag, ytag = y.tag) where x.k / 0 > 1 and x.k >= 0 and "
      "x.tag > 2 and x.k = y.k";
  Result<tquel::BoundRetrieve> bound = Analyze(q);
  ASSERT_TRUE(bound.ok());
  EXPECT_TRUE(bound->local_filters.empty());
  EXPECT_TRUE(bound->join_keys.empty());
  const std::string safe =
      "retrieve (x.tag, ytag = y.tag) where x.k >= 0 and x.k = y.k";
  bound = Analyze(safe);
  ASSERT_TRUE(bound.ok());
  ASSERT_EQ(bound->local_filters.size(), 2u);
  ASSERT_NE(bound->local_filters[0], nullptr);
  EXPECT_EQ(bound->local_filters[0]->ToString(), "(x.k >= 0)");
  EXPECT_EQ(bound->local_filters[1], nullptr);
  EXPECT_EQ(bound->join_keys[1].size(), 1u);
  EXPECT_TRUE(Query(q).empty());
  // With a partner row the combination is built and the where clause fails
  // exactly as before.
  Exec("append to q (k = 1, tag = \"q1\")");
  Result<Rowset> r = db_->Query(q);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
}

// A join key must not hide a failing `where`: over p (k = 1, n = 2) and
// q (k = 2, m = 3) no pair of keys matches, so a hash step would build no
// combination and never run the division.  The statement fails as the
// nested loop of `not (x.k != y.k)` and the reference model do, on the
// writer path and at a reader pin, with and without an index on the inner
// key.
TEST_F(JoinTrapTest, FailingWhereIsNotHiddenByAJoinKey) {
  const std::vector<std::string> script = {
      "create relation p (k = int, n = int)",
      "create relation q (k = int, m = int)",
      "range of x is p",
      "range of y is q",
      "append to p (k = 1, n = 2)",
      "append to q (k = 2, m = 3)"};
  reference::ReferenceModel model;
  const Chronon now = clock_.Now();
  for (const std::string& stmt : script) {
    Exec(stmt);
    ASSERT_TRUE(model.Execute(stmt, now).ok()) << stmt;
  }
  const std::string keyed = "retrieve (x.k) where x.n / 0 > 1 and x.k = y.k";
  const std::string nested =
      "retrieve (x.k) where x.n / 0 > 1 and not (x.k != y.k)";
  Result<tquel::BoundRetrieve> bound = Analyze(keyed);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  EXPECT_TRUE(bound->join_keys.empty());
  EXPECT_TRUE(model.Execute(keyed, now).status().IsInvalidArgument());
  for (bool indexed : {false, true}) {
    if (indexed) Exec("create index on q (k)");
    Result<ReadSnapshot> pin = db_->BeginReadSnapshot();
    ASSERT_TRUE(pin.ok()) << pin.status().ToString();
    for (const std::string& q : {keyed, nested}) {
      const Result<Rowset> writer = db_->Query(q);
      const Result<Rowset> pinned = db_->QueryAtSnapshot(*pin, q);
      EXPECT_TRUE(writer.status().IsInvalidArgument())
          << q << ": " << writer.status().ToString();
      EXPECT_EQ(pinned.status().ToString(), writer.status().ToString()) << q;
    }
  }
  // Without the failing conjunct the hash step and the key set run: no
  // pair of keys matches.
  EXPECT_TRUE(Query("retrieve (x.k) where x.k = y.k").empty());
}

}  // namespace
}  // namespace temporadb
