// Time pushdown equivalence: index-backed batch scans yield exactly the
// rows of a full scan plus filter, and every TQuel query answers the same
// rows, in the same order, with `time_pushdown` on and off (with and
// without the time indexes).

#include <gtest/gtest.h>

#include <functional>

#include "common/random.h"
#include "core/database.h"
#include "temporal/stored_relation.h"

namespace temporadb {
namespace {

// ---------------------------------------------------------------------------
// Pushdown equivalence: index-backed scans == full scan + filter
// ---------------------------------------------------------------------------

std::vector<RowId> Drain(VersionBatchScan scan) {
  std::vector<RowId> out;
  VersionBatch batch;
  while (scan.Next(&batch)) {
    out.insert(out.end(), batch.rows.begin(), batch.rows.end());
  }
  return out;
}

// The rows of every live version `keep` accepts: the full scan + filter.
std::vector<RowId> Sweep(
    const VersionStore* store,
    const std::function<bool(const BitemporalTuple&)>& keep) {
  std::vector<RowId> out;
  store->ForEach([&](RowId row, const BitemporalTuple& t) {
    if (keep(t)) out.push_back(row);
  });
  return out;
}

// Grows a randomized bitemporal history: retroactive appends mixed with
// logical deletes and replaces, the clock advancing between transactions.
void GrowRandomHistory(Database* db, ManualClock* clock, StoredRelation* rel,
                       uint64_t seed, int steps) {
  Random rng(seed);
  for (int step = 0; step < steps; ++step) {
    clock->AdvanceDays(static_cast<int64_t>(rng.UniformRange(1, 4)));
    Status s = db->WithTransaction([&](Transaction* txn) -> Status {
      uint64_t op = rng.Uniform(3);
      if (op == 0 || rel->store()->live_count() < 6) {
        int64_t from = rng.UniformRange(0, 400);
        int64_t len = rng.UniformRange(1, 90);
        return rel->Append(
            txn, {Value(rng.NextName(4)), Value(rng.UniformRange(0, 5))},
            Period(Chronon(from), Chronon(from + len)));
      }
      const int64_t pivot = rng.UniformRange(0, 5);
      TuplePredicate pred = [pivot](const std::vector<Value>& v) {
        return v[1].AsInt() == pivot;
      };
      if (op == 1) {
        return rel->DeleteWhere(txn, pred, std::nullopt).status();
      }
      UpdateSpec updates{ConstUpdate(1, Value(rng.UniformRange(0, 5)))};
      return rel->ReplaceWhere(txn, pred, updates, std::nullopt).status();
    });
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
}

void CheckScanEquivalence(const VersionStore* store, uint64_t seed) {
  Random rng(seed);
  for (int trial = 0; trial < 25; ++trial) {
    const Chronon t(rng.UniformRange(0, 500));
    const int64_t qb = rng.UniformRange(0, 450);
    const Period q(Chronon(qb), Chronon(qb + rng.UniformRange(1, 60)));

    EXPECT_EQ(Drain(store->BatchScanAsOf(t)),
              Sweep(store, [t](const BitemporalTuple& v) {
                return v.txn.Contains(t);
              }))
        << "as of " << t.ToString();
    EXPECT_EQ(Drain(store->BatchScanTxnOverlapping(q)),
              Sweep(store, [q](const BitemporalTuple& v) {
                return v.txn.Overlaps(q);
              }))
        << "txn overlapping " << q.ToString();
    EXPECT_EQ(Drain(store->BatchScanValidDuring(q)),
              Sweep(store, [q](const BitemporalTuple& v) {
                return v.valid.Overlaps(q);
              }))
        << "valid during " << q.ToString();
  }
  EXPECT_EQ(Drain(store->BatchScanCurrent()),
            Sweep(store, [](const BitemporalTuple& v) {
              return v.IsCurrentState();
            }));
}

TEST(PushdownEquivalence, IndexedScansMatchFullScanOnRandomHistories) {
  for (uint64_t seed : {1u, 7u, 42u}) {
    for (bool indexed : {true, false}) {
      ManualClock clock{Chronon(0)};
      DatabaseOptions options;
      options.clock = &clock;
      options.store_options.index_valid_time = indexed;
      options.store_options.index_txn_time = indexed;
      std::unique_ptr<Database> db = std::move(*Database::Open(options));
      ASSERT_TRUE(
          db->Execute("create temporal relation h (name = string, n = int)")
              .ok());
      StoredRelation* rel = *db->GetRelation("h");
      GrowRandomHistory(db.get(), &clock, rel, seed, 120);
      CheckScanEquivalence(rel->store(), seed * 1000 + (indexed ? 1 : 0));
    }
  }
}

TEST(PushdownEquivalence, RelationScanIgnoresWindowsItCannotUse) {
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
// Full-query equivalence: pushdown on == pushdown off
// ---------------------------------------------------------------------------

class QueryPair {
 public:
  explicit QueryPair(bool with_indexes = true) {
    for (int i = 0; i < 2; ++i) {
      DatabaseOptions options;
      options.clock = &clock_;
      options.store_options.time_pushdown = (i == 0);
      options.store_options.index_valid_time = with_indexes;
      options.store_options.index_txn_time = with_indexes;
      db_[i] = std::move(*Database::Open(options));
    }
  }

  void Exec(const std::string& source) {
    for (auto& db : db_) {
      Result<tquel::ExecResult> r = db->Execute(source);
      ASSERT_TRUE(r.ok()) << source << ": " << r.status().ToString();
    }
  }

  // Both sides must yield bit-identical renderings (same rows, same order,
  // same periods).
  void ExpectSameRows(const std::string& query) {
    Result<Rowset> on = db_[0]->Query(query);
    Result<Rowset> off = db_[1]->Query(query);
    ASSERT_TRUE(on.ok()) << query << ": " << on.status().ToString();
    ASSERT_TRUE(off.ok()) << query << ": " << off.status().ToString();
    EXPECT_EQ(on->Render(), off->Render()) << query;
  }

  ManualClock clock_{Chronon(0)};
  std::unique_ptr<Database> db_[2];
};

TEST(PushdownEquivalence, TemporalQueriesMatchWithPushdownOff) {
  QueryPair pair;
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
  // tuple (index-nested-loop when-join).
  pair.ExpectSameRows(
      "retrieve (a = f.name, b = g.name) when f overlap g");
  pair.ExpectSameRows(
      "retrieve (a = f.name, b = g.name) where f.name != g.name "
      "when f overlap g as of \"06/01/82\"");
  pair.ExpectSameRows(
      "retrieve (a = f.name, b = g.name) when f overlap g or f precede g");
  pair.ExpectSameRows(
      "retrieve (a = f.name, b = g.name) when not (f precede g)");
  pair.ExpectSameRows(
      "retrieve (f.name) valid from begin of f to end of f "
      "when f overlap \"06/01/81\"");
}

TEST(PushdownEquivalence, HistoricalQueriesMatchWithPushdownOff) {
  // Run the same when-queries against a historical relation, with and
  // without interval indexes, to cover the fallback paths.
  for (bool indexed : {true, false}) {
    QueryPair pair(indexed);
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
    pair.ExpectSameRows("retrieve (x.name) when x precede \"01/01/83\"");
    pair.ExpectSameRows("retrieve (a = x.name, b = y.name) when x overlap y");
    pair.ExpectSameRows(
        "retrieve (a = x.name, b = y.name) when x precede y and y overlap "
        "\"06/01/84\"");
  }
}

TEST(PushdownEquivalence, RandomizedQueriesMatchWithPushdownOff) {
  for (uint64_t seed : {3u, 11u}) {
    QueryPair pair;
    StoredRelation* rels[2];
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(pair.db_[i]
                      ->Execute(
                          "create temporal relation h (name = string, "
                          "n = int)")
                      .ok());
      rels[i] = *pair.db_[i]->GetRelation("h");
    }
    // Grow the SAME history on both sides (same seed, same clock steps —
    // reset the clock between the two replays).
    for (int i = 0; i < 2; ++i) {
      pair.clock_.SetTime(Chronon(0));
      GrowRandomHistory(pair.db_[i].get(), &pair.clock_, rels[i], seed, 100);
    }
    pair.Exec("range of u is h");
    pair.Exec("range of v is h");
    pair.ExpectSameRows("retrieve (u.name, u.n)");
    pair.ExpectSameRows("retrieve (u.name) when u overlap \"06/01/70\"");
    pair.ExpectSameRows("retrieve (u.name, v.n) when u overlap v");
    pair.ExpectSameRows(
        "retrieve (u.name) as of \"03/01/70\" through \"09/01/70\"");
  }
}

}  // namespace
}  // namespace temporadb
