// A4 — Valid timeslice latency: the relation's pinned sweep (what every
// `retrieve` reads) answering valid-time stabs and overlap windows, alone
// and through the full TQuel stack.
//
// The sweep runs one branch-free overlap kernel over every version of the
// epochs whose valid-time bounds meet the window.

#include <benchmark/benchmark.h>

#include "bench/bench_json.h"

#include "bench/bench_common.h"

using namespace temporadb;

namespace {

// The rows of `rel` valid some time during `window`: the relation's scan at
// the head pin.
size_t ValidDuring(const StoredRelation& rel, Period window) {
  ScanSpec spec;
  spec.valid_during = window;
  VersionBatchScan scan = rel.BatchScan(spec);
  VersionBatch batch;
  size_t rows = 0;
  while (scan.Next(&batch)) rows += batch.size();
  return rows;
}

void BM_Timeslice_Sweep(benchmark::State& state) {
  bench::ScenarioDb sdb = bench::OpenScenarioDb();
  StoredRelation* rel = bench::PopulateStream(
      sdb.db.get(), sdb.clock.get(), "r", TemporalClass::kHistorical, 64,
      static_cast<size_t>(state.range(0)), 17);
  std::vector<Chronon> boundaries =
      paper::Boundaries(*sdb.db->Query("show r"), &Row::valid);
  Chronon probe = boundaries[boundaries.size() / 2];
  size_t answer = 0;
  for (auto _ : state) {
    answer = ValidDuring(*rel, Period::At(probe));
    benchmark::DoNotOptimize(answer);
  }
  state.counters["answer_rows"] = static_cast<double>(answer);
  state.counters["history_versions"] =
      static_cast<double>(rel->store()->version_count());
}

// Overlap-range queries ("valid some time during [a, b)") of varying width.
void BM_OverlapWindow_Sweep(benchmark::State& state) {
  bench::ScenarioDb sdb = bench::OpenScenarioDb();
  StoredRelation* rel = bench::PopulateStream(
      sdb.db.get(), sdb.clock.get(), "r", TemporalClass::kHistorical, 64,
      8000, 17);
  std::vector<Chronon> boundaries =
      paper::Boundaries(*sdb.db->Query("show r"), &Row::valid);
  Chronon mid = boundaries[boundaries.size() / 2];
  Period window(mid, mid + state.range(0));
  for (auto _ : state) {
    size_t answer = ValidDuring(*rel, window);
    benchmark::DoNotOptimize(answer);
  }
}

// The same timeslice through the full TQuel stack: the paper's temporal
// cube probe (`as of T when ... at v`) against a churned temporal relation.
// Both windows become scan predicates: the as-of instant and the `when`
// stab prune sealed epochs, and the kernels filter the rest.
void BM_TemporalCube(benchmark::State& state) {
  bench::ScenarioDb sdb = bench::OpenScenarioDb();
  StoredRelation* rel = bench::PopulateStream(
      sdb.db.get(), sdb.clock.get(), "r", TemporalClass::kTemporal, 64,
      static_cast<size_t>(state.range(0)), 17, /*bounded_valid=*/true);
  (void)sdb.db->Execute("range of f is r");
  // The valid periods of the current state.
  std::vector<Chronon> boundaries = paper::Boundaries(
      *sdb.db->Query("retrieve (f.name, f.rank)"), &Row::valid);
  std::string when_at = boundaries[boundaries.size() / 2].ToString();
  // Transaction days advance 1..3 per op from day 3650, so this as-of
  // names a past state about three quarters through the stream — late
  // enough that every version covering the `when` stab (written within
  // ~120 days of the stream's valid-time midpoint) is already stored.
  std::string asof_at = Chronon(3650 + 3 * state.range(0) / 2).ToString();
  std::string query = "retrieve (f.name, f.rank) as of \"" + asof_at +
                      "\" when f overlap \"" + when_at + "\"";
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

}  // namespace

BENCHMARK(BM_Timeslice_Sweep)->Arg(1000)->Arg(4000)->Arg(16000);
BENCHMARK(BM_OverlapWindow_Sweep)->Arg(1)->Arg(30)->Arg(365);
BENCHMARK(BM_TemporalCube)->Arg(1000)->Arg(4000)->Arg(16000)
    ->Unit(benchmark::kMillisecond);

TDB_BENCH_MAIN("ablation_timeslice_latency")
