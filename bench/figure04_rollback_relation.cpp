// Reproduces Figure 4: the tuple-stamped representation of a static
// rollback relation, and the paper's TQuel query
//
//   retrieve (f.rank) where f.name = "Merrie" as of "12/10/82"
//     =>  associate  (a pure static relation)

#include <cstdio>

#include "bench/bench_common.h"
#include "tquel/printer.h"

using namespace temporadb;

int main() {
  bench::FigureRun bench_run("figure04_rollback_relation");
  bench::PrintFigureHeader("Figure 4", "A Static Rollback Relation", "");
  bench::ScenarioDb sdb = bench::OpenScenarioDb();
  if (!paper::Replay(sdb.db.get(), sdb.clock.get(),
                     paper::RollbackFacultyScript()).ok()) {
    return 1;
  }
  Result<tquel::ExecResult> shown = sdb.db->Execute("show faculty");
  if (!shown.ok()) return 1;
  std::printf("%s\n", shown->rows.Render("faculty").c_str());

  const char* query =
      "retrieve (f.rank) where f.name = \"Merrie\" as of \"12/10/82\"";
  std::printf("TQuel> %s\n\n", query);
  Result<tquel::ExecResult> result = sdb.db->Execute(query);
  if (!result.ok()) {
    std::printf("error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", tquel::FormatResult(*result).c_str());
  std::printf(
      "Note: the promotion took effect 12/01/82 but was recorded 12/15/82; "
      "the rollback database faithfully reports its own (stale) state.\n");
  return 0;
}
