// A8 — Secondary attribute indexes: selective equality queries through the
// full TQuel stack with and without `create index`, at growing relation
// sizes.  Expected shape: indexed lookup flat in relation size, unindexed
// linear.  Range queries over bands of 1, 16 and 100% of the keys show
// where a key-range probe stops paying: past `kProbeFraction` of the rows
// the probe falls back to the sweep, so the 100% band runs like the scan.

#include <benchmark/benchmark.h>

#include "bench/bench_json.h"

#include "bench/bench_common.h"

using namespace temporadb;

namespace {

// `n` employees, one version each: `name` "e<i>" and `id` i, both indexed
// when `indexed`.  The indexes are built after the load, so that both arms
// sweep the same heap layout (index nodes allocated between the tuples
// slow a sweep of the tuples by up to ~40% on a 4-core Xeon VM).
bench::ScenarioDb Build(size_t n, bool indexed) {
  bench::ScenarioDb sdb = bench::OpenScenarioDb();
  (void)sdb.db->Execute(
      "create temporal relation emp (name = string, rank = string, id = "
      "int)");
  Result<StoredRelation*> rel = sdb.db->GetRelation("emp");
  for (size_t i = 0; i < n; ++i) {
    sdb.clock->SetTime(Chronon(3650 + static_cast<int64_t>(i)));
    (void)sdb.db->WithTransaction([&](Transaction* txn) {
      return (*rel)->Append(txn,
                            {Value("e" + std::to_string(i)), Value("staff"),
                             Value(static_cast<int64_t>(i))},
                            std::nullopt);
    });
  }
  if (indexed) {
    (void)sdb.db->Execute("create index on emp (name)");
    (void)sdb.db->Execute("create index on emp (id)");
  }
  (void)sdb.db->Execute("range of e is emp");
  return sdb;
}

void RunQuery(benchmark::State& state, bool indexed, size_t n,
              const std::string& query) {
  bench::ScenarioDb sdb = Build(n, indexed);
  size_t answer = 0;
  for (auto _ : state) {
    Result<Rowset> rows = sdb.db->Query(query);
    if (!rows.ok()) {
      state.SkipWithError(rows.status().ToString().c_str());
      break;
    }
    answer = rows->size();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["answer_rows"] = static_cast<double>(answer);
  state.counters["relation_size"] = static_cast<double>(n);
}

void RunPointQuery(benchmark::State& state, bool indexed) {
  const size_t n = static_cast<size_t>(state.range(0));
  RunQuery(state, indexed, n,
           "retrieve (e.rank) where e.name = \"e" + std::to_string(n / 2) +
               "\"");
}

void BM_PointQuery_Indexed(benchmark::State& state) {
  RunPointQuery(state, true);
}
void BM_PointQuery_Scan(benchmark::State& state) {
  RunPointQuery(state, false);
}

// `id >= lo and id < hi` over a band of range(1) percent of the keys,
// centred in the key domain.
void RunRangeQuery(benchmark::State& state, bool indexed) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t band = n * static_cast<size_t>(state.range(1)) / 100;
  const size_t lo = (n - band) / 2;
  RunQuery(state, indexed, n,
           "retrieve (e.rank) where e.id >= " + std::to_string(lo) +
               " and e.id < " + std::to_string(lo + band));
  state.counters["band_pct"] = static_cast<double>(state.range(1));
}

void BM_RangeQuery_Indexed(benchmark::State& state) {
  RunRangeQuery(state, true);
}
void BM_RangeQuery_Scan(benchmark::State& state) {
  RunRangeQuery(state, false);
}

// The write-side cost of maintaining the index.
void RunAppends(benchmark::State& state, bool indexed) {
  bench::ScenarioDb sdb = bench::OpenScenarioDb();
  (void)sdb.db->Execute("create temporal relation emp (name = string)");
  if (indexed) (void)sdb.db->Execute("create index on emp (name)");
  Result<StoredRelation*> rel = sdb.db->GetRelation("emp");
  int64_t day = 3650;
  for (auto _ : state) {
    sdb.clock->SetTime(Chronon(day++));
    Status s = sdb.db->WithTransaction([&](Transaction* txn) {
      return (*rel)->Append(txn, {Value("e" + std::to_string(day))},
                            std::nullopt);
    });
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_Append_Indexed(benchmark::State& state) { RunAppends(state, true); }
void BM_Append_NoIndex(benchmark::State& state) { RunAppends(state, false); }

}  // namespace

BENCHMARK(BM_PointQuery_Indexed)->Arg(1000)->Arg(4000)->Arg(16000);
BENCHMARK(BM_PointQuery_Scan)->Arg(1000)->Arg(4000)->Arg(16000);
BENCHMARK(BM_RangeQuery_Indexed)
    ->Args({16000, 1})
    ->Args({16000, 16})
    ->Args({16000, 100});
BENCHMARK(BM_RangeQuery_Scan)
    ->Args({16000, 1})
    ->Args({16000, 16})
    ->Args({16000, 100});
BENCHMARK(BM_Append_Indexed);
BENCHMARK(BM_Append_NoIndex);

TDB_BENCH_MAIN("ablation_attr_index")
