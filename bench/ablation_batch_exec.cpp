// A9 — Vectorized execution: the batch executor (contiguous chronon columns
// + branch-free selection-vector kernels, ~1024-row batches) on the two
// probes the taxonomy stresses most: wide valid timeslices and the `when`
// overlap join.  Sweeps the batch size and isolates kernel-vs-scalar
// temporal dispatch.

#include <benchmark/benchmark.h>

#include "bench/bench_json.h"

#include "bench/bench_common.h"
#include "common/period.h"
#include "common/random.h"
#include "temporal/kernels.h"

using namespace temporadb;

namespace {

// --- Wide timeslice -------------------------------------------------------

// "What held during [a, b)?" with the window spanning half the populated
// valid-time domain, so nearly every version survives and the cost is the
// sweep's kernel passes, one per batch.
void RunWideTimeslice(benchmark::State& state, size_t batch_rows) {
  VersionStoreOptions options;
  if (batch_rows > 0) options.batch_rows = batch_rows;
  bench::ScenarioDb sdb = bench::OpenScenarioDb(options);
  StoredRelation* rel = bench::PopulateStream(
      sdb.db.get(), sdb.clock.get(), "r", TemporalClass::kHistorical, 64,
      static_cast<size_t>(state.range(0)), 17);
  (void)sdb.db->Execute("range of f is r");
  std::vector<Chronon> boundaries =
      paper::Boundaries(*sdb.db->Query("show r"), &Row::valid);
  Chronon lo = boundaries[boundaries.size() / 4];
  Chronon hi = boundaries[3 * boundaries.size() / 4];
  std::string query = "retrieve (f.name, f.rank) valid from \"" +
                      lo.ToString() + "\" to \"" + hi.ToString() + "\"";
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
  state.counters["history_versions"] =
      static_cast<double>(rel->store()->version_count());
}

void BM_WideTimeslice_Batch(benchmark::State& state) {
  RunWideTimeslice(state, 0);
}
// The sweep: how sensitive is the executor to its unit of flow?
void BM_WideTimeslice_BatchSize(benchmark::State& state) {
  RunWideTimeslice(state, static_cast<size_t>(state.range(1)));
}

// --- When join ------------------------------------------------------------

// Two churned historical relations joined on key where their valid periods
// overlap (the A5 scenario).  The equality key makes the inner side a hash
// step, so each relation is materialized once by one batched sweep.
bench::ScenarioDb BuildJoinPair(size_t per_relation) {
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
                   Chronon(day + 30 + static_cast<int64_t>(rng.Uniform(600))));
      (void)sdb.db->WithTransaction([&](Transaction* txn) {
        return (*rel)->Append(
            txn,
            {Value("k" + std::to_string(rng.Uniform(per_relation / 4 + 1))),
             Value("p")},
            valid);
      });
    }
  }
  (void)sdb.db->Execute("range of x is a");
  (void)sdb.db->Execute("range of y is b");
  return sdb;
}

void BM_WhenJoin_Batch(benchmark::State& state) {
  bench::ScenarioDb sdb = BuildJoinPair(static_cast<size_t>(state.range(0)));
  size_t answer = 0;
  for (auto _ : state) {
    Result<Rowset> rows = sdb.db->Query(
        "retrieve (x.key) where x.key = y.key when x overlap y");
    if (!rows.ok()) {
      state.SkipWithError(rows.status().ToString().c_str());
      break;
    }
    answer = rows->size();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["answer_rows"] = static_cast<double>(answer);
}

// --- Kernel vs scalar dispatch --------------------------------------------

// The isolated storage-boundary question: given n versions' valid periods,
// which survive an overlap window?  Scalar: one `Period::Overlaps` per
// element over an array of Period objects.  Kernel: one branch-free pass
// over two contiguous chronon columns writing a selection vector.  Same
// comparisons, different dispatch and memory layout.
struct PeriodColumns {
  std::vector<Period> periods;
  std::vector<int64_t> begins;
  std::vector<int64_t> ends;
};

PeriodColumns MakePeriods(size_t n) {
  Random rng(31);
  PeriodColumns out;
  out.periods.reserve(n);
  out.begins.reserve(n);
  out.ends.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    int64_t from = 1000 + static_cast<int64_t>(rng.Uniform(4000));
    Period p = rng.OneIn(2)
                   ? Period::From(Chronon(from))
                   : Period(Chronon(from),
                            Chronon(from + 1 +
                                    static_cast<int64_t>(rng.Uniform(120))));
    out.periods.push_back(p);
    out.begins.push_back(p.begin().days());
    out.ends.push_back(p.end().days());
  }
  return out;
}

void BM_Dispatch_ScalarPeriod(benchmark::State& state) {
  const PeriodColumns data = MakePeriods(static_cast<size_t>(state.range(0)));
  const Period window(Chronon(2000), Chronon(4000));
  std::vector<uint32_t> sel(data.periods.size());
  size_t matched = 0;
  for (auto _ : state) {
    size_t count = 0;
    for (size_t i = 0; i < data.periods.size(); ++i) {
      if (data.periods[i].Overlaps(window)) {
        sel[count++] = static_cast<uint32_t>(i);
      }
    }
    matched = count;
    benchmark::DoNotOptimize(sel.data());
  }
  state.counters["matched"] = static_cast<double>(matched);
}

void BM_Dispatch_Kernel(benchmark::State& state) {
  const PeriodColumns data = MakePeriods(static_cast<size_t>(state.range(0)));
  std::vector<uint32_t> sel(data.begins.size());
  size_t matched = 0;
  for (auto _ : state) {
    matched = kernels::SelectOverlaps(data.begins.data(), data.ends.data(),
                                      data.begins.size(), /*q_begin=*/2000,
                                      /*q_end=*/4000, sel.data());
    benchmark::DoNotOptimize(sel.data());
  }
  state.counters["matched"] = static_cast<double>(matched);
}

}  // namespace

BENCHMARK(BM_WideTimeslice_Batch)->Arg(4000)->Arg(16000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WideTimeslice_BatchSize)
    ->Args({16000, 256})->Args({16000, 1024})->Args({16000, 4096})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WhenJoin_Batch)->Arg(500)->Arg(2000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Dispatch_ScalarPeriod)->Arg(4096)->Arg(65536);
BENCHMARK(BM_Dispatch_Kernel)->Arg(4096)->Arg(65536);

TDB_BENCH_MAIN("batch_exec")
