// Trend analysis — the paper's motivating question "How did the number of
// faculty change over the last 5 years?" (§4.1), which a static database
// cannot answer.
//
// Strategy: one TQuel aggregate per valid chronon, `when f overlap "<d>"`
// slicing the historical relation at that chronon: a total count, and a
// count per rank.

#include <cstdio>

#include "core/database.h"

using namespace temporadb;

int main() {
  ManualClock clock;
  DatabaseOptions options;
  options.clock = &clock;
  auto db = std::move(*Database::Open(options));

  std::printf("== trend analysis over valid time ==\n\n");

  clock.SetDate("01/01/85").ok();
  (void)db->Execute(
      "create historical relation faculty (name = string, rank = string)");
  (void)db->Execute("range of f is faculty");

  // Department history, recorded with hindsight (all valid-time).
  struct Hire {
    const char* name;
    const char* rank;
    const char* from;
    const char* to;  // nullptr = still here.
  };
  const Hire hires[] = {
      {"merrie", "associate", "09/01/77", nullptr},
      {"tom", "associate", "12/05/82", nullptr},
      {"mike", "assistant", "01/01/83", "03/01/84"},
      {"ann", "full", "07/01/80", nullptr},
      {"bob", "assistant", "09/01/81", "06/01/83"},
      {"cam", "associate", "09/01/84", nullptr},
  };
  for (const Hire& h : hires) {
    std::string stmt = std::string("append to faculty (name = \"") + h.name +
                       "\", rank = \"" + h.rank + "\") valid from \"" +
                       h.from + "\" to \"" + (h.to ? h.to : "inf") + "\"";
    if (!db->Execute(stmt).ok()) return 1;
  }

  std::printf("| as of    | faculty count | by rank                      |\n");
  std::printf("|----------|---------------|------------------------------|\n");
  for (int year = 1980; year <= 1985; ++year) {
    Date probe = *Date::FromYmd(year, 1, 1);
    const std::string when = " when f overlap \"" + probe.ToString() + "\"";
    Result<Rowset> total = db->Query("retrieve (n = count(f.name))" + when);
    Result<Rowset> by_rank =
        db->Query("retrieve (f.rank, n = count(f.name))" + when);
    if (!total.ok() || !by_rank.ok()) return 1;
    std::string breakdown;
    for (const Row& row : by_rank->rows()) {
      breakdown += row.values[0].AsString() + ":" +
                   row.values[1].ToString() + " ";
    }
    std::printf("| %s | %13s | %-28s |\n", probe.ToString().c_str(),
                total->rows()[0].values[0].ToString().c_str(),
                breakdown.c_str());
  }
  std::printf(
      "\nEach row is a valid timeslice of one historical relation — the "
      "query a snapshot database has already forgotten the data for.\n");
  return 0;
}
