// Reproduces Figure 7: a temporal relation as a sequence of *historical
// states* indexed by transaction time, one `retrieve ... as of "<t>"` per
// transaction boundary.  The fourth transaction deletes a tuple that
// "should not have been there in the first place" — and unlike Figure 5,
// every earlier historical state still shows it.

#include <algorithm>
#include <cstdio>

#include "bench/bench_common.h"

using namespace temporadb;

int main() {
  bench::FigureRun bench_run("figure07_temporal_cube");
  bench::PrintFigureHeader(
      "Figure 7", "A Temporal Relation",
      "Four transactions; the last removes an erroneous tuple from the "
      "current historical state, append-only.");
  bench::ScenarioDb sdb = bench::OpenScenarioDb();
  if (!paper::Replay(sdb.db.get(), sdb.clock.get(),
                     paper::CubeScript(TemporalClass::kTemporal))
           .ok()) {
    return 1;
  }
  Result<std::vector<paper::CubeState>> states =
      paper::Cube(sdb.db.get(), "r");
  if (!states.ok()) return 1;
  int txn = 0;
  for (paper::CubeState& state : *states) {
    ++txn;
    std::printf("historical state as of %s (transaction %d):\n",
                state.at.ToString().c_str(), txn);
    const Rowset::RowView view = state.rows.rows();
    std::vector<Row> rows(view.begin(), view.end());
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
      if (a.values != b.values) return a.values < b.values;
      return a.valid->begin() < b.valid->begin();
    });
    for (const Row& row : rows) {
      std::printf("  | %-4s | %-3s | valid %s\n",
                  row.values[0].ToString().c_str(),
                  row.values[1].ToString().c_str(),
                  row.valid->ToString().c_str());
    }
    std::printf("\n");
  }
  std::printf(
      "Rollback to transaction 3 still shows the erroneous tuple \"c\"; "
      "the deletion is recorded, not executed destructively. \"Temporal "
      "relations are append-only.\"\n");
  return 0;
}
