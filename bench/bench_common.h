#ifndef TEMPORADB_BENCH_BENCH_COMMON_H_
#define TEMPORADB_BENCH_BENCH_COMMON_H_

#include <chrono>
#include <memory>
#include <optional>
#include <string>

#include "common/random.h"
#include "core/database.h"
#include "core/paper_scenario.h"
#include "temporal/stored_relation.h"
#include "txn/clock.h"

namespace temporadb {
namespace bench {

/// A database with a manual clock, as used by every figure reproducer.
struct ScenarioDb {
  std::unique_ptr<ManualClock> clock;
  std::unique_ptr<Database> db;
};

/// Opens an in-memory database with a manual clock (optionally with index
/// toggles, for the ablations).
ScenarioDb OpenScenarioDb(VersionStoreOptions store_options = {});

/// Prints a figure header in a consistent style.
void PrintFigureHeader(const std::string& id, const std::string& title,
                       const std::string& note);

/// RAII marker for a figure reproducer run: on destruction writes the
/// machine-readable result file `BENCH_<id>.json` (kind, wall-clock ms)
/// next to the binary, mirroring what --benchmark_out produces for the
/// google-benchmark ablations.  Declare one at the top of main().
class FigureRun {
 public:
  explicit FigureRun(std::string id);
  ~FigureRun();

  FigureRun(const FigureRun&) = delete;
  FigureRun& operator=(const FigureRun&) = delete;

 private:
  std::string id_;
  std::chrono::steady_clock::time_point start_;
};

/// On a (name, rank) relation, a `delete` (no `rank`) or a `replace` of
/// the rank of the versions named `name` over valid clause `valid`, run as
/// the TQuel evaluator runs it: select, then the kind's write step.
/// Returns the number of versions changed.
Result<size_t> UpdateByName(StoredRelation* rel, Transaction* txn,
                            const std::string& name,
                            const std::optional<std::string>& rank,
                            std::optional<Period> valid);

/// A synthetic update stream against one (name, rank) relation: `n_entities`
/// keys receiving inserts/replaces/deletes with retroactive and postactive
/// valid periods.  Used by the ablation benches.  Returns the relation.
///
/// `churn` ops are applied; transaction days advance by 1..3 per op.
/// By default half the valid periods are open-ended (`from` onwards); with
/// `bounded_valid` every period closes within ~90 days, so valid-time
/// stabs stay selective at any history size.
StoredRelation* PopulateStream(Database* db, ManualClock* clock,
                               const std::string& relation,
                               TemporalClass cls, size_t n_entities,
                               size_t churn, uint64_t seed,
                               bool bounded_valid = false);

/// Shape of a `PopulateLargeHistory` run.  Defaults give a realistic
/// deep-history workload: a small hot set receives most updates (so old
/// epochs are dominated by closed versions of hot keys), most valid
/// periods are bounded and near the transaction day, and a trickle of
/// retroactive corrections re-states facts far in the past.
struct LargeHistoryOptions {
  size_t versions = 1 << 16;  ///< Total versions appended.
  size_t entities = 1024;     ///< Distinct keys (values[0], int-typed).
  uint64_t seed = 42;
  int64_t start_day = 1000;   ///< First transaction day.

  /// Key skew: 0 keeps the legacy split (the hot eighth of the key space
  /// takes ~80% of the updates); > 0 draws keys from `Zipf(theta)` over the
  /// whole key space instead (rank 0 hottest), as the workload suite does.
  double zipf_theta = 0.0;

  /// One in `retro_one_in` steps is a retroactive correction whose valid
  /// period starts years before the transaction day (0: never).
  uint32_t retro_one_in = 32;

  /// One in `open_one_in` valid periods is open-ended (0: never).
  uint32_t open_one_in = 8;
};

/// Fills a standalone version store (driven directly through `manager`,
/// no Database/WAL around it) with a seeded update history: each step
/// closes the chosen entity's current version at the transaction day and
/// appends its replacement.  One eighth of the entities take ~80% of the
/// updates; ~1/32 of the steps are retroactive corrections whose valid
/// period starts years before the transaction day; ~1/8 of the periods
/// are open-ended.  Deterministic for a fixed options struct.  Returns
/// the final transaction day (probe anchors for the benches).
int64_t PopulateLargeHistory(VersionStore* store, TxnManager* manager,
                             ManualClock* clock,
                             const LargeHistoryOptions& opts);

}  // namespace bench
}  // namespace temporadb

#endif  // TEMPORADB_BENCH_BENCH_COMMON_H_
