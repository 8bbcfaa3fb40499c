// Reproduces Figure 2: a static relation and the paper's Quel query
//
//   range of f is faculty
//   retrieve (f.rank) where f.name = "Merrie"     =>  full

#include <cstdio>

#include "bench/bench_common.h"
#include "tquel/printer.h"

using namespace temporadb;

int main() {
  bench::FigureRun bench_run("figure02_static");
  bench::PrintFigureHeader("Figure 2", "A Static Relation", "");
  bench::ScenarioDb sdb = bench::OpenScenarioDb();
  if (!paper::Replay(sdb.db.get(), nullptr,
                     paper::StaticFacultyScript()).ok()) return 1;

  Result<tquel::ExecResult> shown = sdb.db->Execute("show faculty");
  if (!shown.ok()) return 1;
  std::printf("%s\n", shown->rows.Render("faculty").c_str());

  const char* query =
      "range of f is faculty\n"
      "retrieve (f.rank) where f.name = \"Merrie\"";
  std::printf("TQuel> %s\n\n", query);
  Result<tquel::ExecResult> result = sdb.db->Execute(query);
  if (!result.ok()) {
    std::printf("error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", tquel::FormatResult(*result).c_str());
  return 0;
}
