// A5 — Temporal join scaling: TQuel when-joins evaluated through the full
// query stack at increasing relation sizes.
//  - `when x overlap y` alone: the inner side is a dynamic step, scanned
//    once and indexed by valid period, then probed per outer tuple; on the
//    writer path, at a reader pin, and with a one-key outer side (where
//    the inner scan is most of the work).
//  - `where x.key = y.key when x overlap y`: the equality key makes the
//    inner side a hash step.  With `create index on b (key)` the hash step
//    probes only the outer side's keys: one key under a one-key outer side,
//    every key (past half the rows, so the probe sweeps instead) under the
//    whole of a.
//  - the non-temporal equi-join `where x.key = y.key` as a baseline.

#include <benchmark/benchmark.h>

#include <optional>

#include "bench/bench_json.h"

#include "bench/bench_common.h"

using namespace temporadb;

namespace {

// Two historical relations of `per_relation` versions over
// per_relation / 4 + 1 keys; b's key is indexed (after the load) when
// `indexed`.
bench::ScenarioDb BuildPair(size_t per_relation, bool indexed) {
  bench::ScenarioDb sdb = bench::OpenScenarioDb();
  Random rng(5);
  for (const char* name : {"a", "b"}) {
    Schema schema = *Schema::Make({Attribute{"key", Type::String()},
                                   Attribute{"payload", Type::String()}});
    (void)sdb.db->CreateRelation(name, schema, TemporalClass::kHistorical);
    Result<StoredRelation*> rel = sdb.db->GetRelation(name);
    for (size_t i = 0; i < per_relation; ++i) {
      int64_t day = 3650 + static_cast<int64_t>(rng.Uniform(2000));
      sdb.clock->SetTime(Chronon(3650 + static_cast<int64_t>(i)));
      Period valid(Chronon(day),
                   Chronon(day + 1 + static_cast<int64_t>(rng.Uniform(120))));
      (void)sdb.db->WithTransaction([&](Transaction* txn) {
        return (*rel)->Append(
            txn,
            {Value("k" + std::to_string(rng.Uniform(per_relation / 4 + 1))),
             Value("p")},
            valid);
      });
    }
  }
  if (indexed) (void)sdb.db->Execute("create index on b (key)");
  (void)sdb.db->Execute("range of x is a");
  (void)sdb.db->Execute("range of y is b");
  return sdb;
}

// Runs `query` on the writer path, or at one reader pin when `pinned`.
void RunQuery(benchmark::State& state, const char* query,
              bool pinned = false, bool indexed = false) {
  bench::ScenarioDb sdb =
      BuildPair(static_cast<size_t>(state.range(0)), indexed);
  std::optional<ReadSnapshot> snap;
  if (pinned) {
    Result<ReadSnapshot> begun = sdb.db->BeginReadSnapshot();
    if (!begun.ok()) {
      state.SkipWithError(begun.status().ToString().c_str());
      return;
    }
    snap = std::move(*begun);
  }
  size_t answer = 0;
  for (auto _ : state) {
    Result<Rowset> rows = snap.has_value()
                              ? sdb.db->QueryAtSnapshot(*snap, query)
                              : sdb.db->Query(query);
    if (!rows.ok()) {
      state.SkipWithError(rows.status().ToString().c_str());
      break;
    }
    answer = rows->size();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["answer_rows"] = static_cast<double>(answer);
}

// The executor re-derives x's period per outer tuple and probes the
// interval index over b's candidates with it, so the inner step touches
// only overlapping versions.
void BM_WhenOverlap(benchmark::State& state) {
  RunQuery(state, "retrieve (x.key) when x overlap y");
}

void BM_WhenOverlap_Pinned(benchmark::State& state) {
  RunQuery(state, "retrieve (x.key) when x overlap y", /*pinned=*/true);
}

// About four outer tuples: the inner side is still scanned and indexed
// whole, once.
void BM_WhenOverlap_SmallOuter(benchmark::State& state) {
  RunQuery(state, "retrieve (x.key) where x.key = \"k0\" when x overlap y");
}

void BM_WhenJoin_HashJoin(benchmark::State& state) {
  RunQuery(state, "retrieve (x.key) where x.key = y.key when x overlap y");
}

void BM_WhenJoin_HashJoin_Indexed(benchmark::State& state) {
  RunQuery(state, "retrieve (x.key) where x.key = y.key when x overlap y",
           /*pinned=*/false, /*indexed=*/true);
}

// About four outer tuples of one key: the indexed hash step reads that
// key's postings only.
void BM_WhenJoin_SmallOuter_Indexed(benchmark::State& state) {
  RunQuery(state,
           "retrieve (x.key) where x.key = \"k0\" and x.key = y.key when x "
           "overlap y",
           /*pinned=*/false, /*indexed=*/true);
}

void BM_EquiJoinOnly(benchmark::State& state) {
  RunQuery(state, "retrieve (x.key) where x.key = y.key");
}

}  // namespace

BENCHMARK(BM_WhenOverlap)->Arg(50)->Arg(200)->Arg(800)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WhenOverlap_Pinned)->Arg(50)->Arg(200)->Arg(800)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WhenOverlap_SmallOuter)->Arg(50)->Arg(200)->Arg(800)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WhenJoin_HashJoin)->Arg(50)->Arg(200)->Arg(800)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WhenJoin_HashJoin_Indexed)->Arg(50)->Arg(200)->Arg(800)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WhenJoin_SmallOuter_Indexed)->Arg(50)->Arg(200)->Arg(800)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EquiJoinOnly)->Arg(50)->Arg(200)->Arg(800)
    ->Unit(benchmark::kMillisecond);

TDB_BENCH_MAIN("ablation_when_join")
