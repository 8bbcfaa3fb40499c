// One scan path: every relation scan spec yields exactly the rows of a
// brute-force `ForEach` filter, in row order, at the writer's head pin and
// at a reader pin; and every TQuel query answers the same rows, in the same
// order, on the writer path and at a pin.  That includes the keyless
// dynamic when-join, one plan at either pin: the inner side is scanned
// once, indexed by valid period, and probed per outer tuple.  Its answers
// also match the reference model's, row for row.

#include <gtest/gtest.h>

#include <functional>

#include "common/random.h"
#include "core/database.h"
#include "temporal/read_snapshot.h"
#include "temporal/stored_relation.h"
#include "tests/relation_test_util.h"
#include "workload/reference.h"

namespace temporadb {
namespace {

std::vector<RowId> Drain(VersionBatchScan scan) {
  std::vector<RowId> out;
  VersionBatch batch;
  while (scan.Next(&batch)) {
    out.insert(out.end(), batch.rows.begin(), batch.rows.end());
  }
  return out;
}

// The rows of every live version `keep` accepts: the brute-force filter.
std::vector<RowId> Sweep(
    const VersionStore* store,
    const std::function<bool(const BitemporalTuple&)>& keep) {
  std::vector<RowId> out;
  store->ForEach([&](RowId row, const BitemporalTuple& t) {
    if (keep(t)) out.push_back(row);
  });
  return out;
}

// What `spec` selects on a relation of class `cls`, tuple by tuple: the
// windows of the dimensions the class maintains, and the current state of
// kinds with transaction time when there is no `as of`.
bool Selects(TemporalClass cls, const ScanSpec& spec,
             const BitemporalTuple& t) {
  if (SupportsTransactionTime(cls)) {
    if (spec.asof.has_value() ? !t.txn.Overlaps(*spec.asof)
                              : !t.IsCurrentState()) {
      return false;
    }
  }
  return !SupportsValidTime(cls) || !spec.valid_during.has_value() ||
         t.valid.Overlaps(*spec.valid_during);
}

// Grows a randomized history: appends (retroactive ones where the class
// has valid time) mixed with deletes and replaces, the clock advancing
// between transactions.
void GrowRandomHistory(Database* db, ManualClock* clock, StoredRelation* rel,
                       uint64_t seed, int steps) {
  Random rng(seed);
  const bool valid_time = SupportsValidTime(rel->temporal_class());
  for (int step = 0; step < steps; ++step) {
    clock->AdvanceDays(static_cast<int64_t>(rng.UniformRange(1, 4)));
    Status s = db->WithTransaction([&](Transaction* txn) -> Status {
      uint64_t op = rng.Uniform(3);
      if (op == 0 || rel->store()->live_count() < 6) {
        int64_t from = rng.UniformRange(0, 400);
        int64_t len = rng.UniformRange(1, 90);
        std::optional<Period> valid;
        if (valid_time) valid = Period(Chronon(from), Chronon(from + len));
        return rel->Append(
            txn, {Value(rng.NextName(4)), Value(rng.UniformRange(0, 5))},
            valid);
      }
      const Value pivot(rng.UniformRange(0, 5));
      if (op == 1) {
        return testutil::UpdateEqual(rel, txn, 1, pivot, std::nullopt,
                                     std::nullopt)
            .status();
      }
      return testutil::UpdateEqual(
                 rel, txn, 1, pivot,
                 std::pair<size_t, Value>{1, Value(rng.UniformRange(0, 5))},
                 std::nullopt)
          .status();
    });
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
}

// Every spec shape, at the head pin and at `pin`, against the filter.
void CheckScans(const StoredRelation& rel, const SnapshotPin& pin,
                uint64_t seed) {
  const TemporalClass cls = rel.temporal_class();
  Random rng(seed);
  for (int trial = 0; trial < 25; ++trial) {
    const Chronon t(rng.UniformRange(0, 500));
    const int64_t qb = rng.UniformRange(0, 450);
    const Period q(Chronon(qb), Chronon(qb + rng.UniformRange(1, 60)));
    const int64_t wb = rng.UniformRange(0, 450);
    const Period w(Chronon(wb), Chronon(wb + rng.UniformRange(1, 60)));
    std::vector<ScanSpec> specs(5);
    specs[1].asof = Period::At(t);
    specs[2].asof = q;
    specs[3].valid_during = w;
    specs[4].asof = Period::At(t);
    specs[4].valid_during = w;
    for (ScanSpec spec : specs) {
      const std::vector<RowId> want =
          Sweep(rel.store(), [&](const BitemporalTuple& v) {
            return Selects(cls, spec, v);
          });
      const std::string label =
          std::string(TemporalClassName(cls)) + " as of " +
          (spec.asof ? spec.asof->ToString() : "-") + " valid during " +
          (spec.valid_during ? spec.valid_during->ToString() : "-");
      EXPECT_EQ(Drain(rel.BatchScan(spec)), want) << "head pin, " << label;
      spec.snapshot = pin;
      EXPECT_EQ(Drain(rel.BatchScan(spec)), want) << "reader pin, " << label;
    }
  }
}

TEST(OneScanPath, EverySpecMatchesBruteForceAtHeadAndReaderPins) {
  const char* kCreate[] = {
      "create relation r (name = string, n = int)",
      "create rollback relation r (name = string, n = int)",
      "create historical relation r (name = string, n = int)",
      "create temporal relation r (name = string, n = int)",
  };
  for (const char* create : kCreate) {
    for (uint64_t seed : {1u, 7u, 42u}) {
      ManualClock clock{Chronon(0)};
      DatabaseOptions options;
      options.clock = &clock;
      // Small epochs, so the sweeps prune sealed partitions.
      options.store_options.partition_rows = 16;
      std::unique_ptr<Database> db = std::move(*Database::Open(options));
      ASSERT_TRUE(db->Execute(create).ok()) << create;
      StoredRelation* rel = *db->GetRelation("r");
      GrowRandomHistory(db.get(), &clock, rel, seed, 120);
      Result<ReadSnapshot> snap = db->BeginReadSnapshot();
      ASSERT_TRUE(snap.ok()) << snap.status().ToString();
      CheckScans(*rel, snap->PinFor(rel->store()), seed * 1000);
    }
  }
}

TEST(OneScanPath, RelationScanIgnoresWindowsItCannotUse) {
  ManualClock clock{Chronon(0)};
  DatabaseOptions options;
  options.clock = &clock;
  std::unique_ptr<Database> db = std::move(*Database::Open(options));
  ASSERT_TRUE(db->Execute("create relation s (n = int)").ok());
  ASSERT_TRUE(db->WithTransaction([&](Transaction* txn) {
                  StoredRelation* rel = *db->GetRelation("s");
                  return rel->Append(txn, {Value(int64_t{1})}, std::nullopt);
                }).ok());
  StoredRelation* rel = *db->GetRelation("s");
  ScanSpec spec;
  spec.asof = Period::At(Chronon(100));
  spec.valid_during = Period(Chronon(0), Chronon(1));
  // A static relation has no time to slice by; the windows must not drop
  // its (timeless) tuples.
  EXPECT_EQ(Drain(rel->BatchScan(spec)).size(), 1u);
}

// ---------------------------------------------------------------------------
// Full-query equivalence: the writer path == a reader pin
// ---------------------------------------------------------------------------

class PinnedPair {
 public:
  PinnedPair() {
    DatabaseOptions options;
    options.clock = &clock_;
    db_ = std::move(*Database::Open(options));
  }

  void Exec(const std::string& source) {
    Result<tquel::ExecResult> r = db_->Execute(source);
    ASSERT_TRUE(r.ok()) << source << ": " << r.status().ToString();
  }

  // The writer's answer and the answer at a pin of the same committed
  // state must render bit-identically (same rows, same order, same
  // periods).
  void ExpectSameRows(const std::string& query) {
    Result<ReadSnapshot> snap = db_->BeginReadSnapshot();
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    Result<Rowset> writer = db_->Query(query);
    Result<Rowset> pinned = db_->QueryAtSnapshot(*snap, query);
    ASSERT_TRUE(writer.ok()) << query << ": " << writer.status().ToString();
    ASSERT_TRUE(pinned.ok()) << query << ": " << pinned.status().ToString();
    EXPECT_EQ(writer->Render(), pinned->Render()) << query;
  }

  // The writer and a pin of the same state both fail `query`, with one
  // status.
  void ExpectSameError(const std::string& query) {
    Result<ReadSnapshot> snap = db_->BeginReadSnapshot();
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    Result<Rowset> writer = db_->Query(query);
    Result<Rowset> pinned = db_->QueryAtSnapshot(*snap, query);
    EXPECT_FALSE(writer.ok()) << query;
    EXPECT_EQ(writer.status().ToString(), pinned.status().ToString())
        << query;
  }

  // The first column of the writer's answer, in row order.
  std::vector<std::string> FirstColumn(const std::string& query) {
    std::vector<std::string> out;
    Result<Rowset> rows = db_->Query(query);
    EXPECT_TRUE(rows.ok()) << query << ": " << rows.status().ToString();
    if (!rows.ok()) return out;
    for (const Row& r : rows->rows()) out.push_back(r.values[0].ToString());
    return out;
  }

  ManualClock clock_{Chronon(0)};
  std::unique_ptr<Database> db_;
};

TEST(OneScanPath, TemporalQueriesMatchAtAPin) {
  PinnedPair pair;
  ASSERT_TRUE(pair.clock_.SetDate("01/01/80").ok());
  pair.Exec("create temporal relation faculty (name = string, rank = string)");
  pair.Exec(
      "append to faculty (name = \"jane\", rank = \"assistant\") "
      "valid from \"09/01/77\" to \"12/01/82\"");
  ASSERT_TRUE(pair.clock_.SetDate("06/01/81").ok());
  pair.Exec(
      "append to faculty (name = \"merrie\", rank = \"associate\") "
      "valid from \"06/01/81\" to \"09/01/84\"");
  ASSERT_TRUE(pair.clock_.SetDate("12/15/82").ok());
  pair.Exec("range of f is faculty");
  pair.Exec("range of g is faculty");
  pair.Exec("replace f (rank = \"full\") where f.name = \"jane\"");

  pair.ExpectSameRows("retrieve (f.name, f.rank)");
  pair.ExpectSameRows("retrieve (f.name) as of \"06/01/81\"");
  pair.ExpectSameRows(
      "retrieve (f.name) as of \"06/01/81\" through \"12/31/82\"");
  pair.ExpectSameRows(
      "retrieve (f.name, f.rank) when f overlap \"01/01/80\"");
  pair.ExpectSameRows(
      "retrieve (f.name) when f precede \"01/01/84\"");
  pair.ExpectSameRows(
      "retrieve (f.name) when \"01/01/78\" precede f");
  // Dynamic windows: the inner participant's window depends on the outer
  // tuple (an interval probe per outer tuple, at either pin).
  pair.ExpectSameRows(
      "retrieve (a = f.name, b = g.name) when f overlap g");
  pair.ExpectSameRows(
      "retrieve (a = f.name, b = g.name) where f.name != g.name "
      "when f overlap g as of \"06/01/82\"");
  pair.ExpectSameRows(
      "retrieve (a = f.name, b = g.name) when f overlap g as of "
      "\"06/01/81\" through \"12/31/82\"");
  pair.ExpectSameRows(
      "retrieve (a = f.name, b = g.name) when f overlap g or f precede g");
  pair.ExpectSameRows(
      "retrieve (a = f.name, b = g.name) when not (f precede g)");
  pair.ExpectSameRows(
      "retrieve (f.name) valid from begin of f to end of f "
      "when f overlap \"06/01/81\"");
}

TEST(OneScanPath, HistoricalQueriesMatchAtAPin) {
  PinnedPair pair;
  ASSERT_TRUE(pair.clock_.SetDate("01/01/80").ok());
  pair.Exec("create historical relation h (name = string)");
  pair.Exec(
      "append to h (name = \"a\") valid from \"01/01/79\" to \"01/01/81\"");
  pair.Exec(
      "append to h (name = \"b\") valid from \"06/01/80\" to \"06/01/83\"");
  pair.Exec(
      "append to h (name = \"c\") valid from \"01/01/84\" to \"01/01/85\"");
  pair.Exec("range of x is h");
  pair.Exec("range of y is h");

  pair.ExpectSameRows("retrieve (x.name)");
  pair.ExpectSameRows("retrieve (x.name) when x overlap \"07/01/80\"");
  // One participant answers in row order, at either pin (the pin renders
  // like the writer), with copied and computed targets alike.
  using Names = std::vector<std::string>;
  EXPECT_EQ(pair.FirstColumn("retrieve (x.name)"), (Names{"a", "b", "c"}));
  EXPECT_EQ(pair.FirstColumn("retrieve (x.name) when x overlap \"07/01/80\""),
            (Names{"a", "b"}));
  EXPECT_EQ(pair.FirstColumn("retrieve (x.name, y = x.name) valid at begin "
                             "of x where x.name != \"b\""),
            (Names{"a", "c"}));
  pair.ExpectSameRows(
      "retrieve (x.name, y = x.name) valid at begin of x where x.name != "
      "\"b\"");
  pair.ExpectSameRows("retrieve (x.name) when x precede \"01/01/83\"");
  pair.ExpectSameRows("retrieve (a = x.name, b = y.name) when x overlap y");
  pair.ExpectSameRows(
      "retrieve (a = x.name, b = y.name) when x precede y and y overlap "
      "\"06/01/84\"");

  // A correction re-files its row last in the key's B+-tree postings; the
  // probe still answers in row order, like the scan and the pin.
  pair.Exec("create historical relation k (key = int, n = int)");
  pair.Exec("create index on k (key)");
  pair.Exec("range of z is k");
  for (const char* n : {"1", "2"}) {
    pair.Exec(std::string("append to k (key = 1, n = ") + n +
              ") valid from \"01/01/80\" to \"01/01/90\"");
  }
  pair.Exec(
      "delete z valid from \"01/01/85\" to \"01/01/90\" where z.n = 1");
  pair.ExpectSameRows("retrieve (z.n) where z.key = 1");
  EXPECT_EQ(pair.FirstColumn("retrieve (z.n) where z.key = 1"),
            (Names{"1", "2"}));
}

TEST(OneScanPath, RandomizedQueriesMatchAtAPin) {
  for (uint64_t seed : {3u, 11u}) {
    PinnedPair pair;
    pair.Exec("create temporal relation h (name = string, n = int)");
    StoredRelation* rel = *pair.db_->GetRelation("h");
    GrowRandomHistory(pair.db_.get(), &pair.clock_, rel, seed, 100);
    pair.Exec("range of u is h");
    pair.Exec("range of v is h");
    pair.ExpectSameRows("retrieve (u.name, u.n)");
    pair.ExpectSameRows("retrieve (u.name) when u overlap \"06/01/70\"");
    // Keyless dynamic when-joins: the interval probe visits the inner rows
    // in row order at either pin.
    pair.ExpectSameRows("retrieve (u.name, v.n) when u overlap v");
    pair.ExpectSameRows(
        "retrieve (u.name, v.n) when u overlap v as of \"03/01/70\"");
    pair.ExpectSameRows(
        "retrieve (u.name) as of \"03/01/70\" through \"09/01/70\"");
    pair.ExpectSameRows(
        "retrieve (u.name, m = u.n * 2) valid from begin of u to "
        "\"01/01/71\" where u.n > 0");
    // A failing target or `where` fails with one status at either pin; the
    // same statements over an empty relation never evaluate it.
    ASSERT_FALSE(pair.FirstColumn("retrieve (u.name)").empty());
    pair.ExpectSameError("retrieve (q = u.n / 0)");
    pair.ExpectSameError("retrieve (u.name, q = u.n / 0) as of \"03/01/70\"");
    pair.ExpectSameError("retrieve (u.name) where u.name > 3");
    // An index must not hide them either: a `where` or `when` that can
    // fail takes no probe key, so the writer scans like the pin.
    pair.Exec("create index on h (n)");
    pair.ExpectSameError("retrieve (u.name) where u.n / 0 > 1 and u.n = 99");
    pair.ExpectSameError(
        "retrieve (u.name) where u.n = 3 when begin of (u overlap "
        "\"06/01/70\") precede \"01/01/72\"");
    pair.Exec("create temporal relation e (name = string, n = int)");
    pair.Exec("range of w is e");
    pair.ExpectSameRows("retrieve (q = w.n / 0)");
    pair.ExpectSameRows("retrieve (w.name) where w.name > 3");
  }
}

// ---------------------------------------------------------------------------
// Keyless dynamic steps: the writer == a reader pin == the reference model
// ---------------------------------------------------------------------------

// An engine with tiny epochs and the reference model, fed the same
// statements.
class ReferencePair {
 public:
  ReferencePair() {
    DatabaseOptions options;
    options.clock = &clock_;
    options.store_options.partition_rows = 4;
    db_ = std::move(*Database::Open(options));
  }

  void Exec(const std::string& date, const std::string& stmt) {
    Result<Date> d = Date::Parse(date);
    ASSERT_TRUE(d.ok()) << date;
    now_ = d->chronon();
    clock_.SetTime(now_);
    Result<tquel::ExecResult> got = db_->Execute(stmt);
    ASSERT_TRUE(got.ok()) << stmt << ": " << got.status().ToString();
    Result<reference::Answer> want = model_.Execute(stmt, now_);
    ASSERT_TRUE(want.ok()) << stmt << ": " << want.status().ToString();
  }

  // The writer, a reader pin and the reference answer `query` with the
  // same rows in the same order (the reference in any order unless
  // `reference_order`); returns how many.
  size_t ExpectSameRows(const std::string& query,
                        bool reference_order = true) {
    Result<ReadSnapshot> snap = db_->BeginReadSnapshot();
    if (!snap.ok()) {
      ADD_FAILURE() << snap.status().ToString();
      return 0;
    }
    Result<Rowset> writer = db_->Query(query);
    Result<Rowset> pinned = db_->QueryAtSnapshot(*snap, query);
    Result<reference::Answer> want = model_.Execute(query, now_);
    EXPECT_TRUE(writer.ok()) << query << ": " << writer.status().ToString();
    EXPECT_TRUE(pinned.ok()) << query << ": " << pinned.status().ToString();
    EXPECT_TRUE(want.ok()) << query << ": " << want.status().ToString();
    if (!writer.ok() || !pinned.ok() || !want.ok()) return 0;
    EXPECT_EQ(writer->Render(), pinned->Render()) << query;
    std::vector<std::string> got;
    for (const Row& r : writer->rows()) {
      got.push_back(reference::FactToString(
          {r.values, r.valid.value_or(Period::All()),
           r.txn.value_or(Period::All())}));
    }
    std::vector<std::string> expected;
    for (const reference::Fact& f : want->rows) {
      expected.push_back(reference::FactToString(f));
    }
    if (!reference_order) {
      std::sort(got.begin(), got.end());
      std::sort(expected.begin(), expected.end());
    }
    EXPECT_EQ(got.size(), expected.size()) << query;
    for (size_t i = 0; i < got.size() && i < expected.size(); ++i) {
      EXPECT_EQ(got[i], expected[i]) << query << " row " << i;
    }
    return got.size();
  }

 private:
  ManualClock clock_;
  Chronon now_;
  std::unique_ptr<Database> db_;
  reference::ReferenceModel model_;
};

TEST(OneScanPath, DynamicStepsMatchTheReferenceAtEveryPin) {
  ReferencePair pair;
  const std::string from = "01/01/80";
  for (const char* ddl :
       {"create historical relation h (name = string, n = int)",
        "create historical relation e (name = string, n = int)",
        "create temporal relation t (name = string, n = int)",
        "range of x is h", "range of y is h", "range of z is h",
        "range of w is e", "range of u is t", "range of v is t"}) {
    pair.Exec(from, ddl);
  }
  // Overlapping, nested, adjacent and disjoint valid periods.
  const char* periods[][2] = {
      {"01/01/79", "01/01/81"}, {"06/01/80", "06/01/83"},
      {"01/01/84", "01/01/85"}, {"01/01/81", "03/01/81"},
      {"03/01/81", "01/01/84"}, {"01/01/78", "inf"},
      {"07/01/80", "08/01/80"}, {"01/01/82", "01/01/86"}};
  for (int i = 0; i < 8; ++i) {
    const std::string values = "(name = \"h" + std::to_string(i) +
                               "\", n = " + std::to_string(i % 4) + ")";
    const std::string valid = " valid from \"" + std::string(periods[i][0]) +
                              "\" to \"" + periods[i][1] + "\"";
    pair.Exec(from, "append to h " + values + valid);
    pair.Exec(from, "append to t " + values + valid);
  }
  // Revise t over three transaction days, so `as of` sees other states.
  pair.Exec("06/01/82", "replace u (n = 9) valid from \"01/01/81\" to "
                        "\"01/01/83\" where u.n = 1");
  pair.Exec("06/01/83", "delete u valid from \"01/01/80\" to \"01/01/82\" "
                        "where u.n = 2");
  pair.Exec("06/01/84", "replace u (name = \"late\") where u.n = 9");

  size_t rows = 0;
  // A small outer side: two of x's rows probe y's index.
  rows += pair.ExpectSameRows(
      "retrieve (a = x.name, b = y.name) where x.n = 1 when x overlap y");
  // Temporal x temporal, as of an instant and of a range of states.
  for (const char* as_of : {" as of \"07/01/82\"", " as of \"01/01/85\"",
                            " as of \"07/01/82\" through \"07/01/83\""}) {
    rows += pair.ExpectSameRows(
        std::string("retrieve (a = u.name, b = v.name, v.n) when u overlap v") +
        as_of);
  }
  // Three participants: z's window comes from x and y together.
  rows += pair.ExpectSameRows(
      "retrieve (a = x.name, b = y.name, c = z.name) "
      "when x overlap y and z overlap (x overlap y)");
  rows += pair.ExpectSameRows(
      "retrieve (a = x.name, b = y.name, c = z.name) where x.n = 0 "
      "when z overlap (x extend y)");
  // z's window is unevaluable where x and y are disjoint: that prefix
  // visits every candidate, and the `and` never reaches the failing leaf.
  // (z stays out of the targets, whose periods it precedes.)
  rows += pair.ExpectSameRows(
      "retrieve (a = x.name, b = y.name) where x.n = 2 and z.n != x.n "
      "when x overlap y and z precede begin of (x overlap y)");
  // An empty inner side, and an empty outer side.
  EXPECT_EQ(pair.ExpectSameRows(
                "retrieve (a = x.name, b = w.name) when x overlap w"),
            0u);
  EXPECT_EQ(pair.ExpectSameRows(
                "retrieve (a = w.name, b = x.name) when w overlap x"),
            0u);
  // `not` derives no window: the inner side is a plain fixed step, or a
  // dynamic one probed by the other conjunct's window only.
  rows += pair.ExpectSameRows(
      "retrieve (a = x.name, b = y.name) when x overlap y or "
      "not (x precede y)");
  rows += pair.ExpectSameRows(
      "retrieve (a = x.name, b = y.name) when x overlap y and "
      "not (y precede x)");
  EXPECT_GT(rows, 0u);
}

// ---------------------------------------------------------------------------
// Key ranges and key sets: the writer probes, a reader pin sweeps
// ---------------------------------------------------------------------------

// The candidate step with key ranges, in every kind and every spec shape:
// the writer's probe yields exactly the versions a reader pin's sweep
// yields with a key in range, in row order, and reads only the ranges'
// postings until they pass `kProbeFraction` of the rows.  The history holds
// closed versions, historical corrections (which re-file their rows last in
// the postings) and null keys.
TEST(OneScanPath, KeyRangeCandidatesMatchTheSweep) {
  const char* kCreate[] = {
      "create relation r (name = string, n = int)",
      "create rollback relation r (name = string, n = int)",
      "create historical relation r (name = string, n = int)",
      "create temporal relation r (name = string, n = int)",
  };
  const auto point = [](int64_t v) {
    return KeyRange::Point(Value(v));
  };
  const auto bound = [](int64_t v, bool inclusive) {
    return KeyBound{Value(v), inclusive};
  };
  const std::vector<std::vector<KeyRange>> keys = {
      {point(2)},
      {KeyRange{bound(1, true), bound(3, false)}},
      {KeyRange{bound(1, false), bound(3, true)}},
      {KeyRange{std::nullopt, bound(1, true)}},  // Nulls too.
      {KeyRange{bound(4, true), std::nullopt}},
      {KeyRange{bound(3, true), bound(1, true)}},  // Reversed: nothing.
      {point(0), point(3), point(5)},              // A hash step's key set.
      {KeyRange{}},                                // Every key: sweeps.
  };
  size_t probed = 0;
  size_t swept = 0;
  for (const char* create : kCreate) {
    for (uint64_t seed : {5u, 17u}) {
      ManualClock clock{Chronon(0)};
      DatabaseOptions options;
      options.clock = &clock;
      options.store_options.partition_rows = 16;
      std::unique_ptr<Database> db = std::move(*Database::Open(options));
      ASSERT_TRUE(db->Execute(create).ok()) << create;
      ASSERT_TRUE(db->Execute("create index on r (n)").ok());
      StoredRelation* rel = *db->GetRelation("r");
      const TemporalClass cls = rel->temporal_class();
      GrowRandomHistory(db.get(), &clock, rel, seed, 80);
      ASSERT_TRUE(db->WithTransaction([&](Transaction* txn) {
                      std::optional<Period> valid;
                      if (SupportsValidTime(cls)) {
                        valid = Period(Chronon(10), Chronon(300));
                      }
                      return rel->Append(txn, {Value("null"), Value()},
                                         valid);
                    }).ok());
      GrowRandomHistory(db.get(), &clock, rel, seed + 1, 40);
      Result<ReadSnapshot> snap = db->BeginReadSnapshot();
      ASSERT_TRUE(snap.ok()) << snap.status().ToString();
      const size_t rows = rel->store()->HeadPin().rows;
      std::vector<ScanSpec> specs(4);
      specs[1].asof = Period::At(Chronon(150));
      specs[2].asof = Period(Chronon(60), Chronon(200));
      specs[3].valid_during = Period(Chronon(100), Chronon(160));
      for (const std::vector<KeyRange>& ranges : keys) {
        const KeyRanges key{1, ranges};
        // The postings in range: what the probe reads.
        size_t postings = 0;
        const auto in_range = [&](const Value& v) {
          for (const KeyRange& r : ranges) {
            if (r.lo && (r.lo->inclusive ? v < r.lo->value
                                         : !(r.lo->value < v))) {
              continue;
            }
            if (r.hi && (r.hi->inclusive ? r.hi->value < v
                                         : !(v < r.hi->value))) {
              continue;
            }
            return true;
          }
          return false;
        };
        rel->store()->ForEach([&](RowId, const BitemporalTuple& t) {
          if (in_range(t.values[1])) ++postings;
        });
        const bool probes = postings <= StoredRelation::kProbeFraction * rows;
        ++(probes ? probed : swept);
        for (ScanSpec spec : specs) {
          const std::vector<RowId> want =
              Sweep(rel->store(), [&](const BitemporalTuple& t) {
                return Selects(cls, spec, t) && in_range(t.values[1]);
              });
          size_t examined = 0;
          std::vector<RowId> head;
          const VersionBatch at_head = rel->Candidates(spec, key, &examined);
          for (size_t i = 0; i < at_head.size(); ++i) {
            if (in_range(at_head.values(i)[1])) head.push_back(at_head.rows[i]);
          }
          spec.snapshot = snap->PinFor(rel->store());
          std::vector<RowId> pinned;
          size_t yield = 0;
          const VersionBatch at_pin = rel->Candidates(spec, key, &yield);
          for (size_t i = 0; i < at_pin.size(); ++i) {
            if (in_range(at_pin.values(i)[1])) pinned.push_back(at_pin.rows[i]);
          }
          const std::string label = std::string(create) + " seed " +
                                    std::to_string(seed) + " key " +
                                    std::to_string(&ranges - &keys[0]);
          EXPECT_EQ(head, want) << label;
          EXPECT_EQ(pinned, want) << label;
          // The probe reads the postings; the fallback reads the sweep.
          EXPECT_EQ(examined, probes ? postings : yield) << label;
        }
      }
    }
  }
  EXPECT_GT(probed, 0u);
  EXPECT_GT(swept, 0u);
}

// The same shapes through TQuel, in every kind: `var.k <op> literal`
// conjuncts on an indexed k probe one key range, and a hash step on an
// indexed k probes its outer side's keys, on the writer path only.
// Writer, pin and reference answer the same rows (writer and pin in the
// same order): over closed versions and `as of` windows, a historical
// correction that re-files its row, null keys (which `<` admits and `=`
// joins), an outer side with no candidates, and an outer side holding
// every key, where the probe passes half the rows and sweeps.
TEST(OneScanPath, KeyRangesAndKeySetsMatchTheReferenceAtEveryPin) {
  for (const char* kind : {"static", "rollback", "historical", "temporal"}) {
    SCOPED_TRACE(kind);
    const std::string k(kind);
    const bool valid_time = k == "historical" || k == "temporal";
    const bool txn_time = k == "rollback" || k == "temporal";
    ReferencePair pair;
    const std::string day0 = "01/01/80";
    for (const std::string& ddl :
         {"create " + k + " relation p (k = int, n = int)",
          "create " + k + " relation q (k = int, m = int)",
          std::string("create index on p (k)"),
          std::string("create index on q (k)"), std::string("range of x is p"),
          std::string("range of y is q")}) {
      pair.Exec(day0, ddl);
    }
    const auto valid = [&](int from, int to) {
      return valid_time ? " valid from \"01/" + std::to_string(from) +
                              "/81\" to \"01/" + std::to_string(to) + "/81\""
                        : std::string();
    };
    for (int i = 0; i < 40; ++i) {
      pair.Exec(day0, "append to p (k = " + std::to_string(i % 10) +
                          ", n = " + std::to_string(i) + ")" +
                          valid(1 + i % 20, 2 + i % 20 + i % 7));
      pair.Exec(day0, "append to q (k = " + std::to_string(i * 3 % 12) +
                          ", m = " + std::to_string(i) + ")" +
                          valid(1 + i % 23, 3 + i % 23));
    }
    pair.Exec(day0, "append to p (n = 100)" + valid(2, 9));  // Null keys.
    pair.Exec(day0, "append to q (m = 100)" + valid(3, 8));
    // Close versions (with transaction time), and, on a historical
    // relation, correct rows in place: a correction re-files its row last
    // in the key's postings.  The reference keeps its facts in another
    // order after a correction, so only the engine's two paths are
    // compared in order there.
    pair.Exec("06/01/80", "replace x (n = x.n + 50)" + valid(4, 12) +
                              " where x.k = 3 or x.k = 4");
    pair.Exec("06/02/80", "delete y" + valid(5, 6) + " where y.m < 12");
    pair.Exec("06/03/80", "replace y (m = y.m + 70) where y.k = 6");
    const bool in_order = k != "historical";

    std::vector<std::string> suffixes = {""};
    if (txn_time) {
      suffixes.push_back(" as of \"03/01/80\"");
      suffixes.push_back(" as of \"03/01/80\" through \"06/02/80\"");
    }
    const std::string when = valid_time ? " when x overlap y" : "";
    size_t rows = 0;
    for (const std::string& as_of : suffixes) {
      SCOPED_TRACE(as_of);
      for (const std::string& q : std::vector<std::string>{
               "retrieve (x.k, x.n) where x.k >= 3 and x.k < 7",
               "retrieve (x.k, x.n) where 2 < x.k and 6 >= x.k",
               "retrieve (x.n) where x.k <= 1",
               "retrieve (x.n) where x.k = 5 and x.k >= 2",
               "retrieve (x.n, y.m) where x.k = y.k and x.k >= 2 and x.k < "
               "5" + when,
               "retrieve (x.n, y.m) where x.k = y.k and x.k < 1" + when,
               "retrieve (x.n, y.m) where y.k = x.k and x.n < 6" + when,
               "retrieve (x.n, y.m) where x.k = y.k" + when}) {
        rows += pair.ExpectSameRows(q + as_of, in_order);
      }
      for (const std::string& q : std::vector<std::string>{
               "retrieve (x.n) where x.k > 7 and x.k < 3",
               "retrieve (x.n, y.m) where x.k = y.k and x.k > 1000" + when}) {
        EXPECT_EQ(pair.ExpectSameRows(q + as_of), 0u) << q;
      }
    }
    EXPECT_GT(rows, 0u);
  }
}

}  // namespace
}  // namespace temporadb
