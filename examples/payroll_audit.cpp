// Payroll with retroactive raises and audit — the paper's §3 example made
// executable.
//
// "In many commercial settings, salary updates are batched together and
// executed against the database only once or twice a month" while raises
// take effect at other dates.  A bitemporal payroll relation supports:
//  - paying correctly after retroactive raises (valid-time queries),
//  - auditing what the payroll system believed when each check was cut
//    (transaction-time rollback), and therefore
//  - computing back pay owed, from the gap between the two.

#include <cstdio>

#include "core/database.h"

using namespace temporadb;

namespace {

Status Must(Result<tquel::ExecResult> r) {
  return r.ok() ? Status::OK() : r.status();
}

// Salary of `name` valid at `v`, as of transaction time `t` (or current).
int64_t SalaryAt(Database* db, const char* name, const char* v,
                 const char* as_of) {
  std::string q = std::string("retrieve (s.salary) where s.name = \"") +
                  name + "\" when s overlap \"" + v + "\"";
  if (as_of != nullptr) q += std::string(" as of \"") + as_of + "\"";
  Result<Rowset> rows = db->Query(q);
  if (!rows.ok() || rows->empty()) return -1;
  return rows->rows()[0].values[0].AsInt();
}

}  // namespace

int main() {
  ManualClock clock;
  DatabaseOptions options;
  options.clock = &clock;
  auto db = std::move(*Database::Open(options));

  std::printf("== payroll with retroactive raises ==\n\n");

  clock.SetDate("01/02/83").ok();
  if (!Must(db->Execute("create temporal relation salaries "
                        "(name = string, salary = int)"))
           .ok()) return 1;
  (void)db->Execute("range of s is salaries");
  (void)db->Execute(
      "append to salaries (name = \"Merrie\", salary = 40000) "
      "valid from \"01/01/83\" to \"inf\"");

  // 12/01/83: HR batches in a raise that took effect 08/01/83 — the
  // paper's exact retroactive-raise example.
  clock.SetDate("12/01/83").ok();
  (void)db->Execute(
      "replace s (salary = 44000) valid from \"08/01/83\" to \"inf\" "
      "where s.name = \"Merrie\"");

  std::printf("Checks were cut monthly using the salary the database "
              "showed on payday:\n\n");
  std::printf("| payday   | paid on (db as of payday) | truth (current "
              "knowledge) | back pay |\n");
  std::printf("|----------|---------------------------|----------------"
              "-----------|----------|\n");
  int64_t total_backpay = 0;
  const char* paydays[] = {"08/31/83", "09/30/83", "10/31/83", "11/30/83",
                           "12/31/83"};
  for (const char* payday : paydays) {
    int64_t believed = SalaryAt(db.get(), "Merrie", payday, payday);
    int64_t truth = SalaryAt(db.get(), "Merrie", payday, nullptr);
    int64_t monthly_gap = (truth - believed) / 12;
    total_backpay += monthly_gap;
    std::printf("| %s | %25lld | %25lld | %8lld |\n", payday,
                static_cast<long long>(believed),
                static_cast<long long>(truth),
                static_cast<long long>(monthly_gap));
  }
  std::printf("\nTotal back pay owed to Merrie: %lld\n\n",
              static_cast<long long>(total_backpay));

  std::printf(
      "The December run pays at the new rate AND can compute the exact "
      "shortfall for Aug-Nov, because the temporal relation kept both "
      "when the raise was true (valid time) and when the database learned "
      "of it (transaction time).\n");
  return 0;
}
