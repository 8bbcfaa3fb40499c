// WAL group commit: commits/sec of concurrent committers sharing
// fsync barriers through the CommitQueue, versus one fsync per commit.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.h"

#include "storage/wal.h"

using namespace temporadb;

namespace {

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

BENCHMARK(BM_GroupCommit)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_PerCommitFsync)->Unit(benchmark::kMillisecond);

TDB_BENCH_MAIN("group_commit")
