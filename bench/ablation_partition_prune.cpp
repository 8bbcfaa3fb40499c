// A11 — Epoch-partition pruning: narrow timeslice and as-of latency versus
// history depth, against the same history in one unpartitioned store.
//
// The version store seals its append stream into fixed-size transaction-time
// epochs, each carrying a temporal synopsis (time bounds, currency, key
// sketch).  A scan whose pushed-down window provably misses an epoch skips
// it before any batch forms, so a narrow probe against a deep history
// should cost the few epochs it intersects — sublinear in depth — while the
// unpartitioned store's scan stays linear.  The acceptance bar is >=5x at 1M
// versions.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <utility>

#include "bench/bench_json.h"

#include "bench/bench_common.h"

using namespace temporadb;

namespace {

// One populated store per history depth and shape (epoch-partitioned, or
// flat with nothing to prune), built once and shared by every benchmark on
// it (1M versions take a couple of seconds to build; rebuilding per arm
// would dominate the run).  The stats sink is re-pointed per arm.
struct Fixture {
  std::unique_ptr<ManualClock> clock;
  std::unique_ptr<TxnManager> manager;
  std::unique_ptr<VersionStore> store;
  int64_t first_day = 0;
  int64_t last_day = 0;
};

Fixture* DeepHistory(size_t depth, bool partitioned) {
  static std::map<std::pair<size_t, bool>, std::unique_ptr<Fixture>> cache;
  std::unique_ptr<Fixture>& slot = cache[{depth, partitioned}];
  if (slot != nullptr) return slot.get();
  slot = std::make_unique<Fixture>();
  slot->clock = std::make_unique<ManualClock>();
  slot->manager = std::make_unique<TxnManager>(slot->clock.get());
  // Default 4096-row epochs, or one unbounded hot partition.
  VersionStoreOptions store_options;
  if (!partitioned) store_options.partition_rows = 0;
  slot->store = std::make_unique<VersionStore>(store_options);
  bench::LargeHistoryOptions opts;
  opts.versions = depth;
  opts.seed = 17;
  slot->first_day = opts.start_day;
  slot->last_day = bench::PopulateLargeHistory(
      slot->store.get(), slot->manager.get(), slot->clock.get(), opts);
  return slot.get();
}

// Drains the writer's head-pin scan of `store` under `preds`.
size_t Drain(const VersionStore& store, BatchPredicates preds) {
  VersionBatchScan scan = store.BatchScan(store.HeadPin(), preds);
  VersionBatch batch;
  size_t rows = 0;
  while (scan.Next(&batch)) rows += batch.size();
  return rows;
}

void ReportStats(benchmark::State& state, const Fixture* f,
                 const ScanStats& stats, size_t answer) {
  state.counters["answer_rows"] = static_cast<double>(answer);
  state.counters["history_versions"] =
      static_cast<double>(f->store->version_count());
  state.counters["parts_considered"] = static_cast<double>(stats.considered());
  state.counters["parts_pruned"] =
      static_cast<double>(stats.pruned_tt() + stats.pruned_vt());
  state.counters["parts_scanned"] = static_cast<double>(stats.scanned());
}

// Narrow valid timeslice near the start of the stream: epochs sealed after
// the window's week cannot contain a version whose valid period reaches
// that far back (outside the retroactive-correction trickle), so almost
// every later epoch prunes on its valid-time bounds.
void RunTimeslice(benchmark::State& state, bool pruned) {
  Fixture* f = DeepHistory(static_cast<size_t>(state.range(0)), pruned);
  ScanStats stats;
  f->store->set_scan_stats(&stats);
  BatchPredicates preds;
  preds.valid_overlaps =
      Period(Chronon(f->first_day + 40), Chronon(f->first_day + 47));
  size_t answer = 0;
  for (auto _ : state) {
    answer = Drain(*f->store, preds);
    benchmark::DoNotOptimize(answer);
  }
  ReportStats(state, f, stats, answer);
  f->store->set_scan_stats(nullptr);
}

// Rollback to a day shortly after the stream began: every epoch sealed
// later has min(tt_start) above the probe, so the transaction-time bounds
// prune it regardless of how many of its rows are still current.
void RunAsOf(benchmark::State& state, bool pruned) {
  Fixture* f = DeepHistory(static_cast<size_t>(state.range(0)), pruned);
  ScanStats stats;
  f->store->set_scan_stats(&stats);
  BatchPredicates preds;
  preds.txn_contains = Chronon(f->first_day + 40);
  size_t answer = 0;
  for (auto _ : state) {
    answer = Drain(*f->store, preds);
    benchmark::DoNotOptimize(answer);
  }
  ReportStats(state, f, stats, answer);
  f->store->set_scan_stats(nullptr);
}

void BM_Timeslice_Pruned(benchmark::State& state) {
  RunTimeslice(state, true);
}
void BM_Timeslice_Unpruned(benchmark::State& state) {
  RunTimeslice(state, false);
}
void BM_AsOf_Pruned(benchmark::State& state) { RunAsOf(state, true); }
void BM_AsOf_Unpruned(benchmark::State& state) { RunAsOf(state, false); }

}  // namespace

BENCHMARK(BM_Timeslice_Pruned)
    ->Arg(64 << 10)
    ->Arg(256 << 10)
    ->Arg(1 << 20)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Timeslice_Unpruned)
    ->Arg(64 << 10)
    ->Arg(256 << 10)
    ->Arg(1 << 20)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_AsOf_Pruned)
    ->Arg(64 << 10)
    ->Arg(256 << 10)
    ->Arg(1 << 20)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_AsOf_Unpruned)
    ->Arg(64 << 10)
    ->Arg(256 << 10)
    ->Arg(1 << 20)
    ->Unit(benchmark::kMicrosecond);

TDB_BENCH_MAIN("partition_prune")
