// Vectorized execution: the batch scans (columnar chronon columns +
// selection-vector kernels) must yield exactly what a brute-force filter
// over every live version yields, in row order — at the version-store
// boundary — and every TQuel query must answer what the reference model
// (workload/reference.h) answers, over all four temporal classes, every
// clause combination and batch sizes {1, 7, 1024}, with the same row order
// in every configuration.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/database.h"
#include "temporal/version_store.h"
#include "txn/clock.h"
#include "txn/txn_manager.h"
#include "workload/reference.h"

namespace temporadb {
namespace {

// --- Store level: BatchScan vs a brute-force filter -------------------------

class BatchVersionScanTest : public ::testing::Test {
 protected:
  BatchVersionScanTest() : manager_(&clock_) {}

  // Seeded random bitemporal history (appends with half-open or bounded
  // valid periods, interleaved transaction-time closes).
  void Populate(size_t n_ops, uint64_t seed) {
    Random rng(seed);
    int64_t day = 1000;
    size_t op = 0;
    while (op < n_ops) {
      clock_.SetTime(Chronon(day));
      Transaction* txn = *manager_.Begin();
      size_t batch = 1 + rng.Uniform(50);
      for (size_t i = 0; i < batch && op < n_ops; ++i, ++op) {
        if (store_.version_count() > 10 && rng.OneIn(4)) {
          RowId row = rng.Uniform(store_.version_count());
          (void)store_.CloseTxn(txn, row, Chronon(day));
        } else {
          BitemporalTuple t;
          t.values = {Value("e" + std::to_string(rng.Uniform(64))),
                      Value(static_cast<int64_t>(rng.Uniform(100000)))};
          int64_t from = 900 + static_cast<int64_t>(rng.Uniform(400));
          t.valid = rng.OneIn(2)
                        ? Period::From(Chronon(from))
                        : Period(Chronon(from),
                                 Chronon(from + 1 +
                                         static_cast<int64_t>(
                                             rng.Uniform(90))));
          t.txn = Period::From(Chronon(day));
          ASSERT_TRUE(store_.Append(txn, std::move(t)).ok());
        }
      }
      ASSERT_TRUE(manager_.Commit(txn).ok());
      day += 1 + static_cast<int64_t>(rng.Uniform(3));
    }
  }

  using Sequence = std::vector<std::pair<RowId, BitemporalTuple>>;

  // Every live version `keep` accepts, in row order.
  Sequence Filter(const std::function<bool(const BitemporalTuple&)>& keep) {
    Sequence out;
    store_.ForEach([&](RowId row, const BitemporalTuple& t) {
      if (keep(t)) out.emplace_back(row, t);
    });
    return out;
  }

  // Flattens a batch scan and checks the per-batch contract along the way:
  // batches are never empty and the copied chronon columns agree with the
  // surviving tuples' periods.
  static Sequence CollectBatches(VersionBatchScan scan) {
    Sequence out;
    VersionBatch batch;
    while (scan.Next(&batch)) {
      EXPECT_FALSE(batch.empty()) << "batch scans must skip empty batches";
      for (size_t i = 0; i < batch.size(); ++i) {
        const BitemporalTuple& t = *batch.tuples[i];
        EXPECT_EQ(batch.valid_from[i], t.valid.begin().days());
        EXPECT_EQ(batch.valid_to[i], t.valid.end().days());
        EXPECT_EQ(batch.tt_start[i], t.txn.begin().days());
        EXPECT_EQ(batch.tt_end[i], t.txn.end().days());
        out.emplace_back(batch.rows[i], t);
      }
    }
    return out;
  }

  // Every probe shape: the brute-force expectation, then the batch scans.
  Sequence RunExpectedProbes() {
    Sequence all;
    auto append = [&all](Sequence v) {
      all.insert(all.end(), v.begin(), v.end());
    };
    const Period txn_window(Chronon(1050), Chronon(1200));
    const Period valid_window(Chronon(1000), Chronon(1060));
    const Period wide(Chronon(950), Chronon(1300));
    append(Filter([](const BitemporalTuple&) { return true; }));
    append(Filter([](const BitemporalTuple& t) { return t.IsCurrentState(); }));
    append(Filter(
        [](const BitemporalTuple& t) { return t.txn.Contains(Chronon(1100)); }));
    append(Filter(
        [&](const BitemporalTuple& t) { return t.txn.Overlaps(txn_window); }));
    append(Filter([&](const BitemporalTuple& t) {
      return t.valid.Overlaps(valid_window);
    }));
    append(Filter([&](const BitemporalTuple& t) {
      return t.valid.Overlaps(wide) && t.IsCurrentState();
    }));
    return all;
  }

  Sequence RunBatchProbes() {
    Sequence all;
    auto append = [&all](Sequence v) {
      all.insert(all.end(), v.begin(), v.end());
    };
    const auto scan = [this](BatchPredicates preds) {
      return CollectBatches(store_.BatchScan(store_.HeadPin(), preds));
    };
    BatchPredicates current;
    current.txn_current = true;
    BatchPredicates asof;
    asof.txn_contains = Chronon(1100);
    BatchPredicates through;
    through.txn_overlaps = Period(Chronon(1050), Chronon(1200));
    BatchPredicates slice;
    slice.valid_overlaps = Period(Chronon(1000), Chronon(1060));
    BatchPredicates current_window = current;
    current_window.valid_overlaps = Period(Chronon(950), Chronon(1300));
    append(scan({}));
    append(scan(current));
    append(scan(asof));
    append(scan(through));
    append(scan(slice));
    append(scan(current_window));
    return all;
  }

  void ExpectSameSequence(const Sequence& got, const Sequence& want,
                          const std::string& label) {
    ASSERT_EQ(got.size(), want.size()) << label;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].first, want[i].first) << label << ", position " << i;
      ASSERT_TRUE(got[i].second == want[i].second)
          << label << ", position " << i;
    }
  }

  ManualClock clock_;
  TxnManager manager_;
  VersionStore store_;
};

TEST_F(BatchVersionScanTest, MatchBruteForceFilterAcrossBatchSizes) {
  Populate(5000, /*seed=*/11);
  Sequence baseline = RunExpectedProbes();
  ASSERT_FALSE(baseline.empty());
  for (size_t batch_rows : {1u, 7u, 1024u}) {
    store_.ConfigureBatchRows(batch_rows);
    ExpectSameSequence(RunBatchProbes(), baseline,
                       "batch_rows=" + std::to_string(batch_rows));
  }
}

TEST_F(BatchVersionScanTest, SecondSeedMatchesAcrossBatchSizes) {
  Populate(5000, /*seed=*/23);
  Sequence baseline = RunExpectedProbes();
  ASSERT_FALSE(baseline.empty());
  for (size_t batch_rows : {1u, 7u, 1024u}) {
    store_.ConfigureBatchRows(batch_rows);
    ExpectSameSequence(RunBatchProbes(), baseline,
                       "batch_rows=" + std::to_string(batch_rows));
  }
}

// --- Full stack: TQuel over every temporal class, against the reference ---

// One relation of each temporal class, populated by a seeded script
// (appends with randomized valid periods plus scattered deletes), as
// (transaction day, statement) steps.
std::vector<std::pair<int64_t, std::string>> FourClassScript() {
  std::vector<std::pair<int64_t, std::string>> steps = {
      {4000, "create relation snap (name = string, n = int)"},
      {4000, "create rollback relation roll (name = string, n = int)"},
      {4000, "create historical relation hist (name = string, n = int)"},
      {4000, "create temporal relation bitemp (name = string, n = int)"},
      {4000, "range of s is snap"},
      {4000, "range of r is roll"},
      {4000, "range of h is hist"},
      {4000, "range of b is bitemp"},
  };
  Random rng(4242);
  const char* relations[] = {"snap", "roll", "hist", "bitemp"};
  const bool has_valid[] = {false, false, true, true};
  for (int i = 0; i < 150; ++i) {
    const int64_t day = 4000 + i * 2;
    size_t which = rng.Uniform(4);
    const std::string rel = relations[which];
    const std::string var(1, rel[0]);
    const std::string name = "e" + std::to_string(rng.Uniform(12));
    if (rng.OneIn(5) && i > 20) {
      steps.emplace_back(day, "delete " + var + " where " + var +
                                  ".name = \"" + name + "\"");
      continue;
    }
    std::string stmt = "append to " + rel + " (name = \"" + name +
                       "\", n = " +
                       std::to_string(static_cast<int64_t>(rng.Uniform(1000))) +
                       ")";
    if (has_valid[which]) {
      int64_t from = 3900 + static_cast<int64_t>(rng.Uniform(300));
      stmt += " valid from \"" + Chronon(from).ToString() + "\" to ";
      stmt += rng.OneIn(3)
                  ? std::string("\"inf\"")
                  : "\"" +
                        Chronon(from + 20 +
                                static_cast<int64_t>(rng.Uniform(150)))
                            .ToString() +
                        "\"";
    }
    steps.emplace_back(day, stmt);
  }
  return steps;
}

std::unique_ptr<Database> BuildFourClassDb(ManualClock* clock,
                                           const VersionStoreOptions& store) {
  DatabaseOptions options;
  options.clock = clock;
  options.store_options = store;
  std::unique_ptr<Database> db = std::move(*Database::Open(options));
  for (const auto& [day, stmt] : FourClassScript()) {
    clock->SetTime(Chronon(day));
    EXPECT_TRUE(db->Execute(stmt).ok()) << stmt;
  }
  return db;
}

// Every clause combination each temporal class admits (where / when /
// valid / as of), plus a when-join; dates land inside the populated
// windows so each query returns rows.
std::vector<std::string> AllClauseQueries() {
  const std::string kWhen = " when $ overlap \"" + Chronon(4010).ToString() +
                            "\"";
  const std::string kValid = " valid from \"" + Chronon(3950).ToString() +
                             "\" to \"" + Chronon(4150).ToString() + "\"";
  const std::string kAsOf = " as of \"" + Chronon(4180).ToString() + "\"";
  const std::string kWhere = " where $.n < 500";
  std::vector<std::string> queries;
  auto add = [&queries](char var, const std::string& clauses) {
    std::string q = "retrieve ($.name, $.n)" + clauses;
    std::string out;
    for (char c : q) {
      if (c == '$') {
        out += var;
      } else {
        out += c;
      }
    }
    queries.push_back(out);
  };
  // Static: bare and where.
  add('s', "");
  add('s', kWhere);
  // Rollback: adds as-of.
  add('r', "");
  add('r', kWhere);
  add('r', kAsOf);
  add('r', kWhere + kAsOf);
  // Historical: adds when and valid.
  add('h', "");
  add('h', kWhere);
  add('h', kWhen);
  add('h', kValid);
  add('h', kWhere + kWhen);
  add('h', kValid + kWhen);
  add('h', kWhere + kValid + kWhen);
  // Bitemporal: every clause at once.
  add('b', "");
  add('b', kWhere);
  add('b', kWhen);
  add('b', kValid);
  add('b', kAsOf);
  add('b', kWhere + kWhen);
  add('b', kWhen + kAsOf);
  add('b', kValid + kWhen + kAsOf);
  add('b', kWhere + kValid + kWhen + kAsOf);
  // A when-join across classes (sequential-valued batch cross product).
  queries.push_back(
      "retrieve (h.name, b.n) where h.name = b.name when h overlap b");
  return queries;
}

TEST(BatchDatabaseTest, QueriesMatchReferenceAcrossBatchSizes) {
  reference::ReferenceModel model;
  for (const auto& [day, stmt] : FourClassScript()) {
    Result<reference::Answer> r = model.Execute(stmt, Chronon(day));
    ASSERT_TRUE(r.ok()) << stmt << ": " << r.status().ToString();
  }
  const std::vector<std::string> queries = AllClauseQueries();
  std::vector<reference::Answer> want;
  size_t nonempty = 0;
  for (const std::string& q : queries) {
    Result<reference::Answer> r = model.Execute(q, Chronon(4400));
    ASSERT_TRUE(r.ok()) << q << ": " << r.status().ToString();
    if (!r->rows.empty()) ++nonempty;
    want.push_back(std::move(*r));
  }
  // The sweep must actually exercise data, not vacuous empties.
  ASSERT_GT(nonempty, queries.size() / 2);

  // Every configuration answers what the reference answers, in the row
  // order of the first configuration.
  std::vector<Rowset> first;
  for (size_t batch_rows : {1u, 7u, 1024u}) {
    const std::string config =
        " (batch_rows=" + std::to_string(batch_rows) + ")";
    ManualClock clock;
    VersionStoreOptions options;
    options.batch_rows = batch_rows;
    std::unique_ptr<Database> db = BuildFourClassDb(&clock, options);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const std::string& q = queries[qi];
      Result<Rowset> got = db->Query(q);
      ASSERT_TRUE(got.ok()) << q << ": " << got.status().message();
      std::vector<reference::Fact> facts;
      for (const Row& row : got->rows()) {
        facts.push_back(reference::Fact{row.values,
                                        row.valid.value_or(Period::All()),
                                        row.txn.value_or(Period::All())});
      }
      ASSERT_EQ(got->temporal_class(), want[qi].result_class) << q << config;
      ASSERT_TRUE(reference::SameFacts(std::move(facts), want[qi].rows))
          << q << config << ": " << got->size() << " rows vs "
          << want[qi].rows.size();
      if (first.size() < queries.size()) {
        first.push_back(std::move(*got));
        continue;
      }
      for (size_t i = 0; i < got->size(); ++i) {
        ASSERT_TRUE(got->rows()[i] == first[qi].rows()[i])
            << q << " row " << i << config;
      }
    }
  }
}

}  // namespace
}  // namespace temporadb
