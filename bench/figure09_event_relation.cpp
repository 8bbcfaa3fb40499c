// Reproduces Figure 9: the temporal *event* relation 'promotion', carrying
// all three kinds of time at once:
//   - 'effective'       user-defined time (the date on the letter; opaque),
//   - valid time (at)   when the promotion was validated (letter signed),
//   - transaction time  when the event was recorded in the database.

#include <cstdio>

#include "bench/bench_common.h"
#include "tquel/printer.h"

using namespace temporadb;

int main() {
  bench::FigureRun bench_run("figure09_event_relation");
  bench::PrintFigureHeader("Figure 9", "A Temporal Event Relation", "");
  bench::ScenarioDb sdb = bench::OpenScenarioDb();
  if (!paper::Replay(sdb.db.get(), sdb.clock.get(),
                     paper::PromotionEventsScript()).ok()) {
    return 1;
  }
  Result<tquel::ExecResult> shown = sdb.db->Execute("show promotion");
  if (!shown.ok()) return 1;
  std::printf("%s\n", shown->rows.Render("promotion").c_str());

  std::printf(
      "Merrie's retroactive promotion to full was signed (valid at) "
      "12/11/82, four days before it was recorded (transaction) 12/15/82; "
      "the letter is dated (user-defined 'effective') 12/01/82.\n\n");

  // A query over user-defined time: the DBMS compares 'effective' as plain
  // data, exactly as the paper prescribes for application time.
  const char* query =
      "range of p is promotion\n"
      "retrieve (p.name, p.rank, p.effective) "
      "where p.effective < \"01/01/83\"";
  std::printf("TQuel> %s\n\n", query);
  Result<tquel::ExecResult> result = sdb.db->Execute(query);
  if (!result.ok()) return 1;
  std::printf("%s\n", tquel::FormatResult(*result).c_str());
  return 0;
}
