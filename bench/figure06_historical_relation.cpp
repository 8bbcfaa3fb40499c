// Reproduces Figure 6: the tuple-stamped historical relation and the
// paper's historical query
//
//   retrieve (f1.rank)
//   where f1.name = "Merrie" and f2.name = "Tom"
//   when f1 overlap start of f2            =>  full, valid [12/01/82, inf)

#include <cstdio>

#include "bench/bench_common.h"
#include "tquel/printer.h"

using namespace temporadb;

int main() {
  bench::FigureRun bench_run("figure06_historical_relation");
  bench::PrintFigureHeader("Figure 6", "An Historical Relation", "");
  bench::ScenarioDb sdb = bench::OpenScenarioDb();
  if (!paper::Replay(sdb.db.get(), sdb.clock.get(),
                     paper::FacultyScript("historical")).ok()) {
    return 1;
  }
  Result<tquel::ExecResult> shown = sdb.db->Execute("show faculty");
  if (!shown.ok()) return 1;
  std::printf("%s\n", shown->rows.Render("faculty").c_str());

  const char* query =
      "range of f1 is faculty\n"
      "range of f2 is faculty\n"
      "retrieve (f1.rank) where f1.name = \"Merrie\" and f2.name = \"Tom\" "
      "when f1 overlap start of f2";
  std::printf("TQuel> %s\n\n", query);
  Result<tquel::ExecResult> result = sdb.db->Execute(query);
  if (!result.ok()) {
    std::printf("error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", tquel::FormatResult(*result).c_str());
  std::printf(
      "The answer differs from Figure 4's 'associate': the historical "
      "relation records corrected knowledge of reality, but cannot reveal "
      "that the database was once inconsistent with it.\n");
  return 0;
}
