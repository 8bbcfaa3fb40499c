// A2 — The paper's representation argument (§4.2, Figures 3 vs 4):
// "Implementing a static rollback relation in this way [a full static state
// per transaction] is impractical, due to excessive duplication: the tuples
// that don't change between states must be duplicated in the new state."
//
// Baseline: a snapshot-copy store keeping a complete copy of the static
// state per transaction.  Treatment: temporadb's tuple-stamped rollback
// relation.  Both support the same rollback queries; the bench reports
// bytes retained and per-transaction update cost.

#include <benchmark/benchmark.h>

#include "bench/bench_json.h"

#include <map>
#include <vector>

#include "bench/bench_common.h"

using namespace temporadb;

namespace {

// The naive Figure-3 representation: one full copy of the state per
// transaction.
class SnapshotCopyStore {
 public:
  void Apply(int64_t day, const std::string& name, const std::string& rank,
             bool is_delete) {
    std::map<std::string, std::string> next =
        states_.empty() ? std::map<std::string, std::string>{}
                        : states_.back().second;
    if (is_delete) {
      next.erase(name);
    } else {
      next[name] = rank;
    }
    states_.emplace_back(day, std::move(next));
  }

  // Rollback: latest state with day <= t.
  const std::map<std::string, std::string>* AsOf(int64_t t) const {
    const std::map<std::string, std::string>* result = nullptr;
    for (const auto& [day, state] : states_) {
      if (day <= t) result = &state;
    }
    return result;
  }

  size_t ApproximateBytes() const {
    size_t bytes = 0;
    for (const auto& [day, state] : states_) {
      bytes += sizeof(day);
      for (const auto& [k, v] : state) {
        bytes += k.size() + v.size() + 2 * sizeof(void*) * 2;
      }
    }
    return bytes;
  }

 private:
  std::vector<std::pair<int64_t, std::map<std::string, std::string>>> states_;
};

struct StreamOp {
  int64_t day;
  std::string name;
  std::string rank;
  bool is_delete;
};

std::vector<StreamOp> MakeStream(size_t churn) {
  Random rng(7);
  std::vector<StreamOp> ops;
  int64_t day = 3650;
  const char* ranks[] = {"assistant", "associate", "full"};
  for (size_t i = 0; i < churn; ++i) {
    day += 1;
    ops.push_back(StreamOp{day, "e" + std::to_string(rng.Uniform(64)),
                           ranks[rng.Uniform(3)], rng.OneIn(5)});
  }
  return ops;
}

void BM_SnapshotCopy(benchmark::State& state) {
  const size_t churn = static_cast<size_t>(state.range(0));
  std::vector<StreamOp> ops = MakeStream(churn);
  size_t bytes = 0;
  for (auto _ : state) {
    SnapshotCopyStore store;
    for (const StreamOp& op : ops) {
      store.Apply(op.day, op.name, op.rank, op.is_delete);
    }
    bytes = store.ApproximateBytes();
    benchmark::DoNotOptimize(store.AsOf(ops.back().day));
  }
  state.counters["approx_bytes"] = static_cast<double>(bytes);
  state.counters["bytes_per_op"] =
      static_cast<double>(bytes) / static_cast<double>(churn);
}

void BM_TupleStamped(benchmark::State& state) {
  const size_t churn = static_cast<size_t>(state.range(0));
  std::vector<StreamOp> ops = MakeStream(churn);
  size_t bytes = 0;
  for (auto _ : state) {
    bench::ScenarioDb sdb = bench::OpenScenarioDb();
    Schema schema = *Schema::Make({Attribute{"name", Type::String()},
                                   Attribute{"rank", Type::String()}});
    (void)sdb.db->CreateRelation("r", schema, TemporalClass::kRollback);
    Result<StoredRelation*> rel = sdb.db->GetRelation("r");
    for (const StreamOp& op : ops) {
      sdb.clock->SetTime(Chronon(op.day));
      (void)sdb.db->WithTransaction([&](Transaction* txn) -> Status {
        if (op.is_delete) {
          return bench::UpdateByName(*rel, txn, op.name, std::nullopt,
                                     std::nullopt)
              .status();
        }
        // Upsert: replace if present, else append.
        Result<size_t> n = bench::UpdateByName(*rel, txn, op.name, op.rank,
                                               std::nullopt);
        if (!n.ok()) return n.status();
        if (*n == 0) {
          return (*rel)->Append(txn, {Value(op.name), Value(op.rank)},
                                std::nullopt);
        }
        return Status::OK();
      });
    }
    bytes = (*rel)->store()->ApproximateBytes();
  }
  state.counters["approx_bytes"] = static_cast<double>(bytes);
  state.counters["bytes_per_op"] =
      static_cast<double>(bytes) / static_cast<double>(churn);
}

}  // namespace

BENCHMARK(BM_SnapshotCopy)->Arg(250)->Arg(1000)->Arg(4000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TupleStamped)->Arg(250)->Arg(1000)->Arg(4000)
    ->Unit(benchmark::kMillisecond);

TDB_BENCH_MAIN("ablation_snapshot_vs_stamped")
