// Reproduces Figure 8 — the paper's centerpiece: the seven-row bitemporal
// faculty relation, and the query answered *differently* as of two
// transaction times:
//
//   retrieve (f1.rank)
//   where f1.name = "Merrie" and f2.name = "Tom"
//   when f1 overlap start of f2
//   as of "12/10/82"      =>  associate
//   as of "12/20/82"      =>  full

#include <cstdio>

#include "bench/bench_common.h"
#include "tquel/printer.h"

using namespace temporadb;

int main() {
  bench::FigureRun bench_run("figure08_temporal_relation");
  bench::PrintFigureHeader("Figure 8", "A Temporal Relation", "");
  bench::ScenarioDb sdb = bench::OpenScenarioDb();
  if (!paper::Replay(sdb.db.get(), sdb.clock.get(),
                     paper::FacultyScript("temporal")).ok()) {
    return 1;
  }
  Result<tquel::ExecResult> shown = sdb.db->Execute("show faculty");
  if (!shown.ok()) return 1;
  std::printf("%s\n", shown->rows.Render("faculty").c_str());

  if (!sdb.db->Execute("range of f1 is faculty").ok()) return 1;
  if (!sdb.db->Execute("range of f2 is faculty").ok()) return 1;

  for (const char* asof : {"12/10/82", "12/20/82"}) {
    std::string query =
        "retrieve (f1.rank) where f1.name = \"Merrie\" and "
        "f2.name = \"Tom\" when f1 overlap start of f2 as of \"" +
        std::string(asof) + "\"";
    std::printf("TQuel> %s\n\n", query.c_str());
    Result<tquel::ExecResult> result = sdb.db->Execute(query);
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", tquel::FormatResult(*result).c_str());
  }
  std::printf(
      "Merrie's promotion (effective 12/01/82) was recorded 12/15/82: the "
      "temporal relation answers the same historical question differently "
      "as of different recording dates — \"completely capturing the "
      "history of retroactive/postactive changes.\"\n");
  return 0;
}
