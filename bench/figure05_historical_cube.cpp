// Reproduces Figure 5: an historical relation as a sequence of slices along
// *valid* time, one `retrieve ... when r overlap "<v>"` per valid boundary
// of the current state.  The same transaction script as Figure 3, plus a
// fourth, correcting transaction that removes an erroneous tuple without
// trace — the operation a rollback relation cannot perform.

#include <algorithm>
#include <cstdio>

#include "bench/bench_common.h"

using namespace temporadb;

int main() {
  bench::FigureRun bench_run("figure05_historical_cube");
  bench::PrintFigureHeader(
      "Figure 5", "An Historical Relation",
      "Same transactions as Figure 3, plus a correction erasing an "
      "erroneous first-transaction tuple (\"c\").");
  bench::ScenarioDb sdb = bench::OpenScenarioDb();
  if (!paper::Replay(sdb.db.get(), sdb.clock.get(),
                     paper::CubeScript(TemporalClass::kHistorical))
           .ok()) {
    return 1;
  }
  Result<std::vector<paper::CubeState>> slices =
      paper::Cube(sdb.db.get(), "r");
  if (!slices.ok()) return 1;
  for (paper::CubeState& slice : *slices) {
    std::printf("tuples valid at %s:\n", slice.at.ToString().c_str());
    const Rowset::RowView view = slice.rows.rows();
    std::vector<Row> rows(view.begin(), view.end());
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
      return a.values < b.values;
    });
    for (const Row& row : rows) {
      std::printf("  | %-4s | %-3s |\n", row.values[0].ToString().c_str(),
                  row.values[1].ToString().c_str());
    }
    std::printf("\n");
  }
  std::printf(
      "\"c\" appears in no slice: the correction left no record of the "
      "error (compare Figure 3, where deleted data remains reachable).\n");
  return 0;
}
