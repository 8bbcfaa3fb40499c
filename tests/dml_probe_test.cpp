// DML victim selection through attribute indexes.  A delete / replace /
// correct whose where clause pins an indexed attribute to a literal, or
// bounds it by literals, takes its candidates from the index instead of
// walking the relation; it must rewrite exactly the rows, in exactly the
// order, of the walk.  Every case
// runs the same statements on two databases, one with `create index` and
// one without, and compares them slot for slot: row id, tombstone flag and
// tuple, in all four relation kinds.  `ScanStats::dml_rows_examined` shows
// which path a statement took.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/database.h"
#include "tests/relation_test_util.h"
#include "workload/generator.h"

namespace temporadb {
namespace {

// Every slot of `rel`, tombstones included, one line each.
std::vector<std::string> Slots(Database* db, const std::string& rel) {
  std::vector<std::string> out;
  Result<StoredRelation*> r = db->GetRelation(rel);
  EXPECT_TRUE(r.ok()) << rel << ": " << r.status().ToString();
  if (!r.ok()) return out;
  (*r)->store()->ForEachSlot([&](RowId row, const BitemporalTuple* t) {
    std::string line = rel + "#" + std::to_string(row);
    if (t == nullptr) {
      line += " tombstone";
    } else {
      for (const Value& v : t->values) line += " " + v.ToString();
      line += " valid " + t->valid.ToString() + " txn " + t->txn.ToString();
    }
    out.push_back(std::move(line));
  });
  return out;
}

// Rows of `rel` in the current state (transaction end = ∞) whose validity
// overlaps `window` when there is one: the walk's length for a statement
// with that valid window, on a kind with transaction time.
uint64_t CurrentStateRows(Database* db, const std::string& rel,
                          std::optional<Period> window = std::nullopt) {
  uint64_t n = 0;
  (*db->GetRelation(rel))
      ->store()
      ->ForEach([&](RowId, const BitemporalTuple& t) {
        if (t.IsCurrentState() && (!window || t.valid.Overlaps(*window))) ++n;
      });
  return n;
}

// Counts slot lines that differ (plus any length difference).
size_t Mismatches(const std::vector<std::string>& a,
                  const std::vector<std::string>& b) {
  size_t n = a.size() > b.size() ? a.size() - b.size() : b.size() - a.size();
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (a[i] != b[i]) {
      ADD_FAILURE() << "first differing slot:\n  " << a[i] << "\n  " << b[i];
      return n + a.size() - i;
    }
  }
  return n;
}

// One database of a differential pair.
struct Side {
  ManualClock clock;
  ScanStats stats;
  std::unique_ptr<Database> db;

  void Open(const std::string& path) {
    DatabaseOptions options;
    options.path = path;
    options.clock = &clock;
    options.sync_commits = false;
    options.store_options.scan_stats = &stats;
    Result<std::unique_ptr<Database>> opened = Database::Open(options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    db = std::move(*opened);
  }
};

// Two databases fed the same statements; only `indexed` runs the
// `create index` statements.
class Pair {
 public:
  explicit Pair(const std::string& dir = "") : dir_(dir) {
    if (!dir_.empty()) {
      std::filesystem::remove_all(dir_);
      std::filesystem::create_directories(dir_);
    }
    Reopen();
  }
  ~Pair() {
    indexed_.db.reset();
    walked_.db.reset();
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  // Closes both databases (when open) and opens them again from disk.
  void Reopen() {
    indexed_.db.reset();
    walked_.db.reset();
    indexed_.Open(dir_.empty() ? "" : dir_ + "/indexed");
    walked_.Open(dir_.empty() ? "" : dir_ + "/walked");
  }

  void SetDay(int64_t day) {
    indexed_.clock.SetTime(Chronon(day));
    walked_.clock.SetTime(Chronon(day));
  }

  // Runs `stmt` on both sides (`create index` on the indexed side only);
  // both must return the same status and count.  Returns the indexed
  // side's result.
  Result<tquel::ExecResult> Run(const std::string& stmt) {
    Result<tquel::ExecResult> a = indexed_.db->Execute(stmt);
    if (stmt.rfind("create index", 0) == 0) return a;
    Result<tquel::ExecResult> b = walked_.db->Execute(stmt);
    EXPECT_EQ(a.status().ToString(), b.status().ToString()) << stmt;
    if (a.ok() && b.ok()) {
      EXPECT_EQ(a->count, b->count) << stmt;
    }
    return a;
  }

  void MustRun(const std::string& stmt) {
    Result<tquel::ExecResult> r = Run(stmt);
    ASSERT_TRUE(r.ok()) << stmt << ": " << r.status().ToString();
  }

  // Rows the indexed side's victim selection examined for `stmt` (also
  // compared on the walked side).
  uint64_t Examined(const std::string& stmt) {
    indexed_.stats.Reset();
    MustRun(stmt);
    return indexed_.stats.dml_rows();
  }

  // Slot mismatches over `relations` between the two sides.
  size_t Diff(const std::vector<std::string>& relations) {
    size_t n = 0;
    for (const std::string& rel : relations) {
      n += Mismatches(Slots(indexed(), rel), Slots(walked(), rel));
    }
    return n;
  }

  Database* indexed() { return indexed_.db.get(); }
  Database* walked() { return walked_.db.get(); }
  const ScanStats& indexed_stats() const { return indexed_.stats; }
  const ScanStats& walked_stats() const { return walked_.stats; }

 private:
  std::string dir_;
  Side indexed_;
  Side walked_;
};

const std::vector<std::string> kCorpusRelations = {
    "departments", "headcount", "assignments", "salaries"};

// The workload stream, replayed over three seeds with and without the
// DDL's attribute indexes.
class WorkloadReplayTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WorkloadReplayTest, IndexedAndWalkedDmlMatchSlotForSlot) {
  workload::WorkloadOptions opts;
  opts.seed = GetParam();
  opts.employees = 200;
  opts.departments = 8;
  opts.ops = 2000;
  Pair pair;
  const auto apply = [&](const workload::WorkloadOp& op) {
    pair.SetDay(op.day);
    pair.MustRun(op.stmt);
  };
  for (const workload::WorkloadOp& op : workload::WorkloadDdl(opts)) {
    apply(op);
  }
  workload::WorkloadGenerator gen(opts);
  for (const workload::WorkloadOp& op : gen.SeedOps()) apply(op);
  workload::WorkloadOp op;
  size_t n = 0;
  while (gen.Next(&op)) {
    apply(op);
    if (++n % 500 == 0) {
      ASSERT_EQ(pair.Diff(kCorpusRelations), 0u) << n;
    }
  }
  EXPECT_EQ(pair.Diff(kCorpusRelations), 0u);
  // The keyed statements probed: the indexed side examined a fraction of
  // the rows the walks did (hot Zipf keys and the rollback relation's
  // closed versions keep it from being smaller still; a silent fallback to
  // the walk would make the two equal).
  EXPECT_LT(pair.indexed_stats().dml_rows() * 2,
            pair.walked_stats().dml_rows());
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkloadReplayTest,
                         ::testing::Values(7u, 1009u, 20261018u));

// A small corpus over every relation kind and key type: 40 employees with
// int, string and date attributes, several versions each.
class DmlProbeTest : public ::testing::Test {
 protected:
  static constexpr int64_t kDay = 3650;  // 12/30/79

  const std::vector<std::string> kRelations = {"depts", "heads", "assigns",
                                               "pay"};

  static std::string Day(int64_t day) {
    return "\"" + Date(Chronon(day)).ToString() + "\"";
  }

  // Indexes and range variables live in memory only: a reopened database
  // needs them declared again.
  static void IndexesAndRanges(Pair* pair) {
    for (const char* stmt :
         {"create index on depts (dept)", "create index on heads (n)",
          "create index on assigns (emp)", "create index on assigns (start)",
          "create index on pay (emp)", "create index on pay (name)",
          "range of d is depts", "range of h is heads",
          "range of a is assigns", "range of p is pay"}) {
      pair->MustRun(stmt);
    }
  }

  void Build(Pair* pair) {
    pair->SetDay(kDay);
    for (const char* ddl :
         {"create static relation depts (dept = string, head = string)",
          "create rollback relation heads (dept = string, n = int)",
          "create historical relation assigns (emp = int, start = date, "
          "dept = string)",
          "create temporal relation pay (emp = int, name = string, "
          "amount = int)"}) {
      pair->MustRun(ddl);
    }
    IndexesAndRanges(pair);
    for (int i = 0; i < 8; ++i) {
      const std::string dept = "\"d" + std::to_string(i) + "\"";
      pair->MustRun("append to depts (dept = " + dept + ", head = \"h\")");
      pair->MustRun("append to heads (dept = " + dept + ", n = " +
                    std::to_string(i % 3) + ")");
    }
    for (int e = 0; e < 40; ++e) {
      const std::string emp = std::to_string(e);
      pair->MustRun("append to assigns (emp = " + emp + ", start = " +
                    Day(kDay + e % 5) + ", dept = \"d" +
                    std::to_string(e % 8) + "\") valid from " +
                    Day(kDay - 400 + 10 * e) + " to \"inf\"");
      pair->MustRun("append to pay (emp = " + emp + ", name = \"e" +
                    std::to_string(e % 10) + "\", amount = " +
                    std::to_string(1000 + e) + ") valid from " +
                    Day(kDay - 400 + 10 * e) + " to \"inf\"");
    }
    // Give every employee a few versions in both valid-time relations.
    for (int round = 1; round <= 3; ++round) {
      pair->SetDay(kDay + 10 * round);
      for (int e = 0; e < 40; e += round) {
        const std::string emp = std::to_string(e);
        pair->MustRun("replace p (amount = p.amount + " +
                      std::to_string(round) + ") valid from " +
                      Day(kDay - 300 + 50 * round) + " to " +
                      Day(kDay - 200 + 60 * round) + " where p.emp = " + emp);
        pair->MustRun("replace a (dept = \"d" + std::to_string(round) +
                      "\") valid from " + Day(kDay - 250 + 40 * round) +
                      " to \"inf\" where a.emp = " + emp);
      }
    }
    pair->SetDay(kDay + 100);
    ASSERT_EQ(pair->Diff(kRelations), 0u);
  }

  // The valid window of a statement without a valid clause, once `Build`
  // has set the clock.
  static Period FromNow() { return Period::From(Chronon(kDay + 100)); }
  static uint64_t LiveRows(Pair* pair, const std::string& rel) {
    return (*pair->indexed()->GetRelation(rel))->store()->live_count();
  }
  // Versions (any state) of `rel` whose attribute `attr` equals `key`.
  static uint64_t KeyRows(Pair* pair, const std::string& rel,
                          const std::string& attr, const Value& key) {
    StoredRelation* r = *pair->indexed()->GetRelation(rel);
    return testutil::IndexRows(*r->store(), *r->schema().IndexOf(attr), key)
        .size();
  }

  // Versions (any state) of `rel` whose attribute `attr` lies in `range`.
  static uint64_t RangeRows(Pair* pair, const std::string& rel,
                            const std::string& attr, const KeyRange& range) {
    StoredRelation* r = *pair->indexed()->GetRelation(rel);
    const BTreeIndex* index =
        r->store()->AttributeIndex(*r->schema().IndexOf(attr));
    uint64_t n = 0;
    if (index == nullptr) return n;
    index->ForEachInRange(range.lo, range.hi,
                          [&](const Value&, const std::vector<RowId>& rows) {
                            n += rows.size();
                            return true;
                          });
    return n;
  }

  // Runs `stmt`, whose literal conjuncts bound `rel.attr` to `range`, and
  // checks that it examined exactly the range's versions as they stood
  // before it ran.
  static void ExpectRangeProbe(Pair* pair, const std::string& stmt,
                               const std::string& rel,
                               const std::string& attr,
                               const KeyRange& range) {
    const uint64_t versions = RangeRows(pair, rel, attr, range);
    EXPECT_GT(versions, 0u) << stmt;
    EXPECT_EQ(pair->Examined(stmt), versions) << stmt;
  }

  // Runs `stmt`, which keys `rel.attr` on `key`, and checks that it
  // examined exactly the key's versions as they stood before it ran.
  static void ExpectProbe(Pair* pair, const std::string& stmt,
                          const std::string& rel, const std::string& attr,
                          const Value& key) {
    const uint64_t versions = KeyRows(pair, rel, attr, key);
    EXPECT_EQ(pair->Examined(stmt), versions) << stmt;
  }

  // Runs `stmt` and checks that it walked `walk` rows.
  static void ExpectWalk(Pair* pair, const std::string& stmt, uint64_t walk) {
    EXPECT_EQ(pair->Examined(stmt), walk) << stmt;
  }
};

TEST_F(DmlProbeTest, KeyOnEitherSideProbes) {
  Pair pair;
  Build(&pair);
  const Value five(int64_t{5});
  ExpectProbe(&pair, "replace p (amount = 1) where 5 = p.emp", "pay", "emp",
              five);
  ExpectProbe(&pair, "replace p (amount = 2) where p.emp = 5", "pay", "emp",
              five);
  ExpectProbe(&pair, "replace p (amount = 3) where p.amount > 0 and 5 = emp",
              "pay", "emp", five);
  EXPECT_EQ(pair.Diff(kRelations), 0u);
}

TEST_F(DmlProbeTest, EveryKindProbesItsKey) {
  Pair pair;
  Build(&pair);
  ExpectProbe(&pair, "replace d (head = \"x\") where d.dept = \"d3\"",
              "depts", "dept", Value("d3"));
  ExpectProbe(&pair, "replace h (dept = \"z\") where h.n = 2", "heads", "n",
              Value(int64_t{2}));
  ExpectProbe(&pair, "delete h where h.n = 1", "heads", "n",
              Value(int64_t{1}));
  ExpectProbe(&pair, "delete d where d.dept = \"d4\"", "depts", "dept",
              Value("d4"));
  ExpectProbe(&pair,
              "delete a valid from " + Day(kDay - 100) + " to " +
                  Day(kDay - 50) + " where a.emp = 7",
              "assigns", "emp", Value(int64_t{7}));
  ExpectProbe(&pair, "correct a where a.emp = 9", "assigns", "emp",
              Value(int64_t{9}));
  ExpectProbe(&pair,
              "delete p valid from " + Day(kDay - 350) + " to " +
                  Day(kDay - 100) + " where p.emp = 8",
              "pay", "emp", Value(int64_t{8}));
  EXPECT_EQ(pair.Diff(kRelations), 0u);
}

// Literal bounds on an indexed attribute probe one key range, in every
// kind, with `when` and `valid` clauses, on int, string and date keys, and
// select exactly the walk's victims.  A band over every key passes half
// the rows and walks.
TEST_F(DmlProbeTest, RangeKeysProbeLikeTheWalk) {
  Pair pair;
  Build(&pair);
  const auto bound = [](Value v, bool inclusive) {
    return KeyBound{std::move(v), inclusive};
  };
  const auto emp = [](int64_t e) { return Value(e); };
  ExpectRangeProbe(&pair, "replace p (amount = 1) where p.emp >= 5 and "
                          "p.emp < 9",
                   "pay", "emp",
                   KeyRange{bound(emp(5), true), bound(emp(9), false)});
  ExpectRangeProbe(&pair,
                   "delete a valid from " + Day(kDay - 100) + " to " +
                       Day(kDay - 50) + " where 30 <= a.emp and 34 > a.emp",
                   "assigns", "emp",
                   KeyRange{bound(emp(30), true), bound(emp(34), false)});
  // The correction above re-filed its rows; a second range over them.
  ExpectRangeProbe(&pair, "replace a (dept = \"k\") where a.emp > 31 and "
                          "a.emp <= 32",
                   "assigns", "emp",
                   KeyRange{bound(emp(31), false), bound(emp(32), true)});
  ExpectRangeProbe(&pair, "replace h (dept = \"r\") where h.n < 1", "heads",
                   "n", KeyRange{std::nullopt, bound(emp(1), false)});
  ExpectRangeProbe(&pair, "replace d (head = \"s\") where d.dept > \"d5\"",
                   "depts", "dept", KeyRange{bound(Value("d5"), false), {}});
  ExpectRangeProbe(&pair,
                   "delete p where p.emp > 36 when p overlap " + Day(kDay),
                   "pay", "emp", KeyRange{bound(emp(36), false), {}});
  ExpectRangeProbe(&pair, "correct a where a.emp >= 38", "assigns", "emp",
                   KeyRange{bound(emp(38), true), {}});
  ExpectRangeProbe(&pair,
                   "delete a where a.start >= " + Day(kDay + 3) +
                       " and a.start < " + Day(kDay + 4),
                   "assigns", "start",
                   KeyRange{bound(Value(Date(Chronon(kDay + 3))), true),
                            bound(Value(Date(Chronon(kDay + 4))), false)});
  ExpectWalk(&pair, "delete p where p.emp >= 0",
             CurrentStateRows(pair.indexed(), "pay", FromNow()));
  EXPECT_EQ(pair.Diff(kRelations), 0u);
}

TEST_F(DmlProbeTest, TopLevelOrWalks) {
  Pair pair;
  Build(&pair);
  ExpectWalk(&pair, "delete p where p.emp = 5 or p.emp = 6",
             CurrentStateRows(pair.indexed(), "pay", FromNow()));
  ExpectWalk(&pair, "delete d where d.dept = \"d1\" or d.dept = \"d2\"",
             LiveRows(&pair, "depts"));
  EXPECT_EQ(pair.Diff(kRelations), 0u);
}

TEST_F(DmlProbeTest, FloatLiteralOnIntAttributeWalks) {
  Pair pair;
  Build(&pair);
  const Result<tquel::ExecResult> r =
      pair.Run("replace p (amount = 7) valid from " + Day(kDay) +
               " to \"inf\" where p.emp = 5.0");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->count, 0u);
  ExpectWalk(&pair, "delete p where p.emp = 6.0",
             CurrentStateRows(pair.indexed(), "pay", FromNow()));
  EXPECT_EQ(pair.Diff(kRelations), 0u);
}

// A float key probes, and selects the rows the walk does, also among the
// float values where `=` is subtle: NaN (stored by overflow), -0.0 against
// 0.0, +inf, -inf and null.
TEST_F(DmlProbeTest, FloatKeysProbeLikeTheWalk) {
  Pair pair;
  pair.SetDay(kDay);
  pair.MustRun("create static relation f (x = float, n = int)");
  pair.MustRun("create index on f (x)");
  pair.MustRun("range of g is f");
  const std::string big = "1" + std::string(200, '0') + ".0";  // 1e200
  const std::string inf = "(" + big + " * " + big + ")";
  const std::vector<std::string> floats = {
      "0.0",       "0.0 * (0 - 1.0)",  "2.0", inf, "(0 - " + big + ") * " + big,
      inf + " - " + inf};
  for (int round = 0; round < 2; ++round) {
    for (size_t i = 0; i < floats.size(); ++i) {
      pair.MustRun("append to f (x = " + floats[i] +
                   ", n = " + std::to_string(i) + ")");
    }
    pair.MustRun("append to f (n = 9)");  // x is null.
  }
  const Value zero(0.0);
  EXPECT_EQ(KeyRows(&pair, "f", "x", zero), 4u);  // 0.0 and -0.0, twice.
  ExpectProbe(&pair, "replace g (n = 7) where g.x = 0.0", "f", "x", zero);
  ExpectProbe(&pair, "replace g (n = 8) where g.x = 2.0 and g.n = 2", "f",
              "x", Value(2.0));
  ExpectProbe(&pair, "delete g where g.x = 1.5", "f", "x", Value(1.5));
  ExpectProbe(&pair, "delete g where g.x = 0.0", "f", "x", zero);
  EXPECT_EQ(pair.Diff({"f"}), 0u);
  EXPECT_EQ(LiveRows(&pair, "f"), 10u);
}

// Int keys at and beyond 2^53, where doubles stop telling ints apart: `=`
// compares them exactly, so the probe and the walk select the same single
// row, and a literal key probes.
TEST_F(DmlProbeTest, WideIntKeyProbesLikeTheWalk) {
  Pair pair;
  pair.SetDay(kDay);
  pair.MustRun("create static relation w (k = int, n = int)");
  pair.MustRun("create index on w (k)");
  pair.MustRun("range of v is w");
  pair.MustRun("append to w (k = 9007199254740992, n = 1)");
  pair.MustRun("append to w (k = 9007199254740993, n = 2)");
  pair.MustRun("append to w (k = 9007199254740991, n = 3)");
  pair.MustRun("append to w (k = -9007199254740993, n = 4)");
  for (const char* key : {"9007199254740993", "9007199254740992",
                          "9007199254740991", "-9007199254740993"}) {
    const std::string stmt =
        std::string("replace v (n = 5) where v.k = ") + key;
    const Result<tquel::ExecResult> r = pair.Run(stmt);
    ASSERT_TRUE(r.ok()) << stmt << ": " << r.status().ToString();
    EXPECT_EQ(r->count, 1u) << stmt;
  }
  ExpectProbe(&pair, "delete v where v.k = 9007199254740993", "w", "k",
              Value(int64_t{9007199254740993}));
  // `-9007199254740993` parses as `0 - 9007199254740993`, not a literal:
  // it walks, and still deletes one row.
  ExpectWalk(&pair, "delete v where v.k = -9007199254740993", 3);
  EXPECT_EQ(pair.Diff({"w"}), 0u);
}

TEST_F(DmlProbeTest, DateAndStringKeys) {
  Pair pair;
  Build(&pair);
  ExpectProbe(&pair,
              "replace a (dept = \"q\") valid from " + Day(kDay - 200) +
                  " to " + Day(kDay) + " where a.start = " + Day(kDay + 2),
              "assigns", "start", Value(Date(Chronon(kDay + 2))));
  ExpectProbe(&pair, "replace p (amount = 0) where p.name = \"e3\"", "pay",
              "name", Value("e3"));
  ExpectProbe(&pair, "delete a where a.start = " + Day(kDay + 4), "assigns",
              "start", Value(Date(Chronon(kDay + 4))));
  EXPECT_EQ(pair.Diff(kRelations), 0u);
}

TEST_F(DmlProbeTest, WhenAndValidClausesWithKey) {
  Pair pair;
  Build(&pair);
  for (const std::string& stmt : {
           "replace a (dept = \"w\") valid from " + Day(kDay - 220) + " to " +
               Day(kDay - 120) + " where a.emp = 12 when a overlap " +
               Day(kDay - 150),
           "delete a where a.emp = 3 when a precede " + Day(kDay - 100),
           "replace p (amount = 9) valid from " + Day(kDay - 260) + " to " +
               Day(kDay - 30) + " where p.emp = 14 when p overlap " +
               Day(kDay - 200),
           "delete p valid from " + Day(kDay - 100) +
               " to \"inf\" where p.emp = 2 and p.amount > 0 when not (p "
               "precede " + Day(kDay - 300) + ")"}) {
    const Result<tquel::ExecResult> r = pair.Run(stmt);
    ASSERT_TRUE(r.ok()) << stmt << ": " << r.status().ToString();
    EXPECT_EQ(pair.Diff(kRelations), 0u) << stmt;
  }
}

TEST_F(DmlProbeTest, KeyWithNoMatchExaminesNothing) {
  Pair pair;
  Build(&pair);
  for (const std::string& stmt :
       {std::string("delete p where p.emp = 99999"),
        std::string("replace a (dept = \"n\") where a.emp = 99999"),
        std::string("correct a where a.emp = 99999"),
        std::string("delete d where d.dept = \"none\"")}) {
    EXPECT_EQ(pair.Examined(stmt), 0u) << stmt;
  }
  EXPECT_EQ(pair.Diff(kRelations), 0u);
}

TEST_F(DmlProbeTest, ClauseThatCanFailWalksAndFailsAlike) {
  Pair pair;
  Build(&pair);
  // Division by zero fails on every row the walk reaches: the key must not
  // hide that by narrowing the rows the where clause runs on.
  const Result<tquel::ExecResult> r =
      pair.Run("delete p where p.amount / 0 > 1 and p.emp = 5");
  EXPECT_FALSE(r.ok());
  // `begin of` an empty overlap fails only on rows whose validity misses
  // the literal; employee 39's one row covers it, and the valid window
  // reaches rows of others that do not.
  const std::string when = " when begin of (p overlap " + Day(kDay - 10) +
                           ") precede " + Day(kDay + 400);
  const Result<tquel::ExecResult> w =
      pair.Run("replace p (amount = 5) valid from " + Day(kDay - 400) +
               " to \"inf\" where p.emp = 39" + when);
  EXPECT_FALSE(w.ok());
  // A row outside the valid window never reaches `when`, as in the
  // reference model: every current row overlapping [now, ∞) covers the
  // literal.
  const Result<tquel::ExecResult> now =
      pair.Run("replace p (amount = 5) where p.emp = 39" + when);
  EXPECT_TRUE(now.ok()) << now.status().ToString();
  EXPECT_EQ(pair.Diff(kRelations), 0u);
}

TEST_F(DmlProbeTest, AbortedTransactionRestoresBothSides) {
  Pair pair;
  Build(&pair);
  const std::vector<std::string> before = Slots(pair.indexed(), "pay");
  pair.MustRun("begin transaction");
  pair.MustRun("replace p (amount = 1) valid from " + Day(kDay - 50) +
               " to \"inf\" where p.emp = 4");
  pair.MustRun("delete a where a.emp = 4");
  pair.MustRun("replace d (head = \"t\") where d.dept = \"d1\"");
  pair.MustRun("delete h where h.n = 0");
  pair.MustRun("correct a where a.emp = 6");
  EXPECT_EQ(pair.Diff(kRelations), 0u);
  pair.MustRun("abort");
  EXPECT_EQ(pair.Diff(kRelations), 0u);
  EXPECT_EQ(Slots(pair.indexed(), "pay"), before);
  // The restored indexes still find every version.
  ExpectProbe(&pair, "replace p (amount = 3) where p.emp = 4", "pay", "emp",
              Value(int64_t{4}));
  EXPECT_EQ(pair.Diff(kRelations), 0u);
}

TEST_F(DmlProbeTest, ReopenFromWalKeepsSlots) {
  Pair pair(testing::TempDir() + "/tdb_dml_probe_" +
            std::to_string(::getpid()));
  Build(&pair);
  pair.MustRun("replace p (amount = 1) valid from " + Day(kDay - 50) +
               " to \"inf\" where p.emp = 11");
  pair.MustRun("delete a valid from " + Day(kDay - 300) + " to " +
               Day(kDay - 280) + " where a.emp = 13");
  pair.MustRun("correct a where a.emp = 15");
  pair.MustRun("delete h where h.n = 2");
  std::vector<std::string> before;
  for (const std::string& rel : kRelations) {
    const std::vector<std::string> slots = Slots(pair.indexed(), rel);
    before.insert(before.end(), slots.begin(), slots.end());
  }
  pair.Reopen();
  std::vector<std::string> after;
  for (const std::string& rel : kRelations) {
    const std::vector<std::string> slots = Slots(pair.indexed(), rel);
    after.insert(after.end(), slots.begin(), slots.end());
  }
  EXPECT_EQ(Mismatches(after, before), 0u);
  EXPECT_EQ(pair.Diff(kRelations), 0u);
  IndexesAndRanges(&pair);
  pair.SetDay(kDay + 200);
  ExpectProbe(&pair, "replace a (dept = \"r\") where a.emp = 13", "assigns",
              "emp", Value(int64_t{13}));
  ExpectProbe(&pair, "delete p where p.emp = 11", "pay", "emp",
              Value(int64_t{11}));
  EXPECT_EQ(pair.Diff(kRelations), 0u);
}

// The counter catches a silent fallback to the walk: a keyed replace on a
// 2000-row relation examines only the key's versions.
TEST(DmlProbeCounterTest, KeyedReplaceExaminesOnlyTheKeysVersions) {
  Pair pair;
  pair.SetDay(3650);
  pair.MustRun("create temporal relation t (k = int, v = int)");
  pair.MustRun("create index on t (k)");
  pair.MustRun("range of x is t");
  pair.MustRun("begin transaction");
  for (int i = 0; i < 2000; ++i) {
    pair.MustRun("append to t (k = " + std::to_string(i) + ", v = 0)");
  }
  pair.MustRun("commit");
  pair.SetDay(3651);
  pair.MustRun("replace x (v = 1) where x.k = 1234");
  const uint64_t versions =
      testutil::IndexRows(*(*pair.indexed()->GetRelation("t"))->store(), 0,
                          Value(int64_t{1234}))
          .size();
  // The closed original, its remnant before the replace, the new value.
  EXPECT_EQ(versions, 3u);
  const uint64_t examined = pair.Examined("replace x (v = 2) where x.k = 1234");
  EXPECT_GT(examined, 0u);
  EXPECT_LE(examined, versions);
  EXPECT_EQ(pair.Diff({"t"}), 0u);
}

// With transaction time a key's rows include its closed versions; the
// statement probes them all, even when they outnumber the current state,
// until they pass half of the relation's rows: then it walks.
TEST(DmlProbeCounterTest, LongKeyHistoryProbesTheKey) {
  Pair pair;
  pair.SetDay(3650);
  pair.MustRun("create rollback relation r (k = int, v = int)");
  pair.MustRun("create index on r (k)");
  pair.MustRun("range of x is r");
  for (int i = 0; i < 4; ++i) {
    pair.MustRun("append to r (k = " + std::to_string(i) + ", v = 0)");
  }
  for (int day = 1; day <= 10; ++day) {
    pair.SetDay(3650 + day);
    pair.MustRun("replace x (v = " + std::to_string(day) +
                 ") where x.k = 1");
  }
  StoredRelation* r = *pair.indexed()->GetRelation("r");
  EXPECT_EQ(testutil::IndexRows(*r->store(), 0, Value(int64_t{1})).size(),
            11u);
  EXPECT_EQ(CurrentStateRows(pair.indexed(), "r"), 4u);
  pair.SetDay(3661);
  // 11 of 14 rows: the walk of the current state is cheaper.
  EXPECT_EQ(pair.Examined("replace x (v = 99) where x.k = 1"), 4u);
  EXPECT_EQ(pair.Examined("delete x where x.k = 2"), 1u);
  // 12 of 56 rows: the key's whole history is probed.
  pair.MustRun("begin transaction");
  for (int i = 10; i < 51; ++i) {
    pair.MustRun("append to r (k = " + std::to_string(i) + ", v = 0)");
  }
  pair.MustRun("commit");
  EXPECT_EQ(testutil::IndexRows(*r->store(), 0, Value(int64_t{1})).size(),
            12u);
  EXPECT_EQ(pair.Examined("replace x (v = 98) where x.k = 1"), 12u);
  EXPECT_EQ(pair.Diff({"r"}), 0u);
}

}  // namespace
}  // namespace temporadb
