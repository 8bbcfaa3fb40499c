// A8 — Morsel-parallel temporal scans and WAL group commit.
//
// Thread sweep (0 = parallelism off, then 1..8 workers) over the probes
// the figures exercise — valid timeslice, rollback cube, and the TQuel
// when-join — against a >=100k-version history; every parallel scan is
// bit-identical to the sequential one (tests/parallel_exec_test.cpp), so
// this file only measures.  Also: commits/sec of group commit versus one
// fsync per commit.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench/bench_json.h"

#include "bench/bench_common.h"
#include "exec/thread_pool.h"
#include "storage/wal.h"
#include "temporal/snapshot.h"

using namespace temporadb;

namespace {

// One churned temporal relation shared by every scan benchmark (building
// >100k versions dominates a per-run setup, so it is cached across the
// whole sweep and only the parallel knobs are re-pointed per run).  About
// 65% of stream ops append a version, so 160k ops leave >100k versions.
constexpr size_t kChurn = 160000;

struct ScanFixture {
  bench::ScenarioDb sdb;
  StoredRelation* rel = nullptr;
  Period stab;     // A narrow valid window: few epochs survive pruning.
  Period window;   // A third of valid-time history: scan-bound candidates.
  Chronon asof;    // A past stored state (rollback probe).
};

ScanFixture& SharedHistory() {
  static ScanFixture* fixture = [] {
    auto* f = new ScanFixture();
    f->sdb = bench::OpenScenarioDb();
    f->rel = bench::PopulateStream(f->sdb.db.get(), f->sdb.clock.get(), "r",
                                   TemporalClass::kTemporal, 64, kChurn, 17,
                                   /*bounded_valid=*/true);
    std::vector<Chronon> boundaries = ValidBoundaries(*f->rel->store());
    Chronon mid = boundaries[boundaries.size() / 2];
    f->stab = Period(mid - 60, mid + 60);
    // Valid times track transaction days (1..3 apart), so a sixth of the
    // total day span on each side of the midpoint covers about a third of
    // all versions — a candidate domain that dwarfs the morsel threshold.
    const int64_t span = 2 * static_cast<int64_t>(kChurn);
    f->window = Period(mid - span / 6, mid + span / 6);
    // A stored state about three quarters through the stream.
    f->asof = Chronon(3650 + 3 * static_cast<int64_t>(kChurn) / 2);
    return f;
  }();
  return *fixture;
}

size_t Drain(VersionBatchScan scan) {
  size_t n = 0;
  VersionBatch batch;
  while (scan.Next(&batch)) n += batch.size();
  return n;
}

// The writer's head-pin scan of the fixture's store under `preds`.
size_t DrainHead(const VersionStore& store, BatchPredicates preds) {
  return Drain(store.BatchScan(store.HeadPin(), preds));
}

BatchPredicates ValidOverlaps(Period window) {
  BatchPredicates preds;
  preds.valid_overlaps = window;
  return preds;
}

// Points the fixture's store at a pool of `threads` workers for one
// benchmark run (0 = sequential), restoring sequential mode on destruction.
class ParallelGuard {
 public:
  ParallelGuard(VersionStore* store, int64_t threads) : store_(store) {
    if (threads > 0) {
      pool_ = std::make_unique<exec::ThreadPool>(
          static_cast<size_t>(threads));
      store_->ConfigureParallel(pool_.get());
    } else {
      store_->ConfigureParallel(nullptr);
    }
  }
  ~ParallelGuard() { store_->ConfigureParallel(nullptr); }

 private:
  VersionStore* store_;
  std::unique_ptr<exec::ThreadPool> pool_;
};

void BM_ParallelTimeslice(benchmark::State& state) {
  ScanFixture& f = SharedHistory();
  ParallelGuard guard(f.rel->store(), state.range(0));
  size_t answer = 0;
  for (auto _ : state) {
    answer = DrainHead(*f.rel->store(), ValidOverlaps(f.window));
    benchmark::DoNotOptimize(answer);
  }
  state.counters["answer_rows"] = static_cast<double>(answer);
  state.counters["history_versions"] =
      static_cast<double>(f.rel->store()->version_count());
}

// A narrow stab: pruning leaves the few epochs whose valid-time bounds
// meet it plus the hot tail, so the morsel workers have little to share.
void BM_ParallelTimesliceStab(benchmark::State& state) {
  ScanFixture& f = SharedHistory();
  ParallelGuard guard(f.rel->store(), state.range(0));
  size_t answer = 0;
  for (auto _ : state) {
    answer = DrainHead(*f.rel->store(), ValidOverlaps(f.stab));
    benchmark::DoNotOptimize(answer);
  }
  state.counters["answer_rows"] = static_cast<double>(answer);
}

void BM_ParallelRollbackCube(benchmark::State& state) {
  ScanFixture& f = SharedHistory();
  ParallelGuard guard(f.rel->store(), state.range(0));
  BatchPredicates preds;
  preds.txn_contains = f.asof;
  size_t answer = 0;
  for (auto _ : state) {
    answer = DrainHead(*f.rel->store(), preds);
    benchmark::DoNotOptimize(answer);
  }
  state.counters["answer_rows"] = static_cast<double>(answer);
}

// The temporal cube: both time predicates evaluated per version over the
// epochs that survive pruning, the shape where the filter work itself
// dominates and the morsel workers carry all of it.
void BM_ParallelTemporalCube(benchmark::State& state) {
  ScanFixture& f = SharedHistory();
  ParallelGuard guard(f.rel->store(), state.range(0));
  BatchPredicates preds;
  preds.txn_contains = f.asof;
  preds.valid_overlaps = f.stab;
  size_t answer = 0;
  for (auto _ : state) {
    answer = DrainHead(*f.rel->store(), preds);
    benchmark::DoNotOptimize(answer);
  }
  state.counters["answer_rows"] = static_cast<double>(answer);
}

// TQuel when-join: the outer full scan parallelizes; the per-outer-tuple
// index probes stay sequential below the morsel threshold by design.
void BM_ParallelWhenJoin(benchmark::State& state) {
  static bench::ScenarioDb* sdb = [] {
    auto* s = new bench::ScenarioDb(bench::OpenScenarioDb());
    Random rng(5);
    for (const char* name : {"a", "b"}) {
      Schema schema = *Schema::Make({Attribute{"key", Type::String()},
                                     Attribute{"payload", Type::String()}});
      (void)s->db->CreateRelation(name, schema, TemporalClass::kHistorical);
      Result<StoredRelation*> rel = s->db->GetRelation(name);
      for (size_t i = 0; i < 6000; ++i) {
        int64_t day = 3650 + static_cast<int64_t>(rng.Uniform(2000));
        s->clock->SetTime(Chronon(3650 + static_cast<int64_t>(i)));
        Period valid(Chronon(day),
                     Chronon(day + 1 + static_cast<int64_t>(rng.Uniform(120))));
        (void)s->db->WithTransaction([&](Transaction* txn) {
          return (*rel)->Append(
              txn, {Value("k" + std::to_string(rng.Uniform(1500))), Value("p")},
              valid);
        });
      }
    }
    (void)s->db->Execute("range of x is a");
    (void)s->db->Execute("range of y is b");
    return s;
  }();
  Result<StoredRelation*> outer = sdb->db->GetRelation("a");
  Result<StoredRelation*> inner = sdb->db->GetRelation("b");
  ParallelGuard outer_guard((*outer)->store(), state.range(0));
  ParallelGuard inner_guard((*inner)->store(), state.range(0));
  size_t answer = 0;
  for (auto _ : state) {
    Result<Rowset> rows = sdb->db->Query(
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

// --- Group commit vs one fsync per commit --------------------------------

std::string GroupCommitWalPath() {
  return "/tmp/tdb_bench_gc_" + std::to_string(::getpid()) + ".log";
}

// `range(0)` committer threads, each committing small 3-record batches
// through the CommitQueue; throughput in commits, with the observed
// coalescing factor (commits per fsync barrier) as a counter.
void BM_GroupCommit(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  constexpr size_t kCommitsPerThread = 50;
  std::string path = GroupCommitWalPath();
  uint64_t barriers = 0;
  size_t commits = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::remove(path.c_str());
    auto wal = WriteAheadLog::Open(path);
    if (!wal.ok()) {
      state.SkipWithError(wal.status().ToString().c_str());
      break;
    }
    CommitQueue queue(wal->get());
    state.ResumeTiming();
    std::vector<std::thread> committers;
    for (size_t t = 0; t < threads; ++t) {
      committers.emplace_back([&queue, t] {
        std::vector<WalBatchEntry> batch(3);
        for (size_t r = 0; r < 3; ++r) {
          batch[r].type = static_cast<uint32_t>(r + 1);
          batch[r].payload = "payload-" + std::to_string(t);
        }
        for (size_t c = 0; c < kCommitsPerThread; ++c) {
          (void)queue.Commit(batch, /*sync=*/true);
        }
      });
    }
    for (std::thread& th : committers) th.join();
    barriers += queue.barriers();
    commits += threads * kCommitsPerThread;
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(static_cast<int64_t>(commits));
  state.counters["commits_per_fsync"] =
      barriers > 0 ? static_cast<double>(commits) / static_cast<double>(barriers)
                   : 0.0;
}

// Baseline: the pre-group-commit discipline — every commit pays its own
// append + fsync, serially (the engine was single-committer).
void BM_PerCommitFsync(benchmark::State& state) {
  constexpr size_t kCommits = 50;
  std::string path = GroupCommitWalPath();
  size_t commits = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::remove(path.c_str());
    auto wal = WriteAheadLog::Open(path);
    if (!wal.ok()) {
      state.SkipWithError(wal.status().ToString().c_str());
      break;
    }
    state.ResumeTiming();
    for (size_t c = 0; c < kCommits; ++c) {
      for (uint32_t r = 1; r <= 3; ++r) {
        benchmark::DoNotOptimize((*wal)->Append(r, "payload"));
      }
      if (!(*wal)->Sync().ok()) {
        state.SkipWithError("sync failed");
        break;
      }
    }
    commits += kCommits;
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(static_cast<int64_t>(commits));
  state.counters["commits_per_fsync"] = 1.0;
}

}  // namespace

BENCHMARK(BM_ParallelTimeslice)->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ParallelTimesliceStab)->Arg(0)->Arg(4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ParallelRollbackCube)->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ParallelTemporalCube)->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ParallelWhenJoin)->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GroupCommit)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_PerCommitFsync)->Unit(benchmark::kMillisecond);

TDB_BENCH_MAIN("parallel_scan")
