// A3 — Rollback (`as of`) latency vs. history depth, through the one scan
// path: the relation's pinned sweep at the writer's head pin, with the
// as-of instant pruning sealed transaction-time epochs.
//
// Expected shape: a rollback to a past instant costs the epochs whose
// transaction-time bounds contain the instant plus the hot tail; a
// rollback to "now" costs the epochs that still hold current rows.

#include <benchmark/benchmark.h>

#include "bench/bench_json.h"

#include "bench/bench_common.h"

using namespace temporadb;

namespace {

struct Built {
  bench::ScenarioDb sdb;
  StoredRelation* rel;
  Chronon probe;  // An instant in the middle of history.
};

Built Build(size_t churn) {
  Built out{bench::OpenScenarioDb(), nullptr, Chronon(0)};
  out.rel = bench::PopulateStream(out.sdb.db.get(), out.sdb.clock.get(), "r",
                                  TemporalClass::kRollback, 64, churn, 99);
  // Probe the middle of the transaction-time line: the transaction
  // periods of every stored version (`show r`).
  std::vector<Chronon> boundaries =
      paper::Boundaries(*out.sdb.db->Query("show r"), &Row::txn);
  out.probe = boundaries[boundaries.size() / 2];
  return out;
}

size_t Drain(VersionBatchScan scan) {
  VersionBatch batch;
  size_t rows = 0;
  while (scan.Next(&batch)) rows += batch.size();
  return rows;
}

// Drains the relation's scan: as of the probe instant in the middle of
// history, or (no as-of) the current stored state.
void RunRollback(benchmark::State& state, bool to_probe) {
  Built built = Build(static_cast<size_t>(state.range(0)));
  ScanSpec spec;
  if (to_probe) spec.asof = Period::At(built.probe);
  size_t answer = 0;
  for (auto _ : state) {
    answer = Drain(built.rel->BatchScan(spec));
    benchmark::DoNotOptimize(answer);
  }
  state.counters["answer_rows"] = static_cast<double>(answer);
  state.counters["history_versions"] =
      static_cast<double>(built.rel->store()->version_count());
}

void BM_AsOf(benchmark::State& state) { RunRollback(state, true); }
void BM_Current(benchmark::State& state) { RunRollback(state, false); }

}  // namespace

BENCHMARK(BM_AsOf)->Arg(1000)->Arg(4000)->Arg(16000);
BENCHMARK(BM_Current)->Arg(1000)->Arg(4000)->Arg(16000);

TDB_BENCH_MAIN("ablation_rollback_latency")
