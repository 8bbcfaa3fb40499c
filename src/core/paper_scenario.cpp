#include "core/paper_scenario.h"

#include <set>

#include "common/strings.h"

namespace temporadb {
namespace paper {

Status Replay(Database* db, ManualClock* clock,
              const std::vector<ScriptStep>& steps) {
  for (const ScriptStep& step : steps) {
    if (!step.date.empty()) TDB_RETURN_IF_ERROR(clock->SetDate(step.date));
    Result<tquel::ExecResult> result = db->Execute(step.stmt);
    if (!result.ok()) return result.status();
  }
  return Status::OK();
}

std::vector<ScriptStep> StaticFacultyScript() {
  return {
      {"", "create static relation faculty (name = string, rank = string)"},
      {"", "append to faculty (name = \"Merrie\", rank = \"full\")"},
      {"", "append to faculty (name = \"Tom\", rank = \"associate\")"},
  };
}

std::vector<ScriptStep> RollbackFacultyScript() {
  return {
      {"", "create rollback relation faculty (name = string, rank = string)"},
      {"", "range of f is faculty"},
      {"08/25/77",
       "append to faculty (name = \"Merrie\", rank = \"associate\")"},
      {"12/07/82", "append to faculty (name = \"Tom\", rank = \"associate\")"},
      {"12/15/82", "replace f (rank = \"full\") where f.name = \"Merrie\""},
      {"01/10/83",
       "append to faculty (name = \"Mike\", rank = \"assistant\")"},
      {"02/25/84", "delete f where f.name = \"Mike\""},
  };
}

std::vector<ScriptStep> FacultyScript(const std::string& kind) {
  return {
      {"", "create " + kind +
               " relation faculty (name = string, rank = string)"},
      {"", "range of f is faculty"},
      {"08/25/77",
       "append to faculty (name = \"Merrie\", rank = \"associate\") "
       "valid from \"09/01/77\" to \"inf\""},
      {"12/01/82",
       "append to faculty (name = \"Tom\", rank = \"full\") "
       "valid from \"12/05/82\" to \"inf\""},
      // The error is discovered; in an historical relation the correction
      // leaves no trace.
      {"12/07/82",
       "replace f (rank = \"associate\") valid from \"12/05/82\" to \"inf\" "
       "where f.name = \"Tom\""},
      {"12/15/82",
       "replace f (rank = \"full\") valid from \"12/01/82\" to \"inf\" "
       "where f.name = \"Merrie\""},
      {"01/10/83",
       "append to faculty (name = \"Mike\", rank = \"assistant\") "
       "valid from \"01/01/83\" to \"inf\""},
      {"02/25/84",
       "delete f valid from \"03/01/84\" to \"inf\" where f.name = \"Mike\""},
  };
}

std::vector<ScriptStep> PromotionEventsScript() {
  // valid-at is the date the promotion letter was signed; `effective` is
  // the user-defined date printed on the letter (uninterpreted by the
  // DBMS); the transaction date is when the event was recorded.
  return {
      {"", "create temporal event relation promotion "
           "(name = string, rank = string, effective = date)"},
      {"", "range of p is promotion"},
      {"08/25/77",
       "append to promotion (name = \"Merrie\", rank = \"associate\", "
       "effective = \"09/01/77\") valid at \"08/25/77\""},
      {"12/01/82",
       "append to promotion (name = \"Tom\", rank = \"full\", "
       "effective = \"12/05/82\") valid at \"12/05/82\""},
      {"12/07/82", "delete p valid at \"12/05/82\" where p.name = \"Tom\""},
      {"", "append to promotion (name = \"Tom\", rank = \"associate\", "
           "effective = \"12/05/82\") valid at \"12/07/82\""},
      {"12/15/82",
       "append to promotion (name = \"Merrie\", rank = \"full\", "
       "effective = \"12/01/82\") valid at \"12/11/82\""},
      {"01/10/83",
       "append to promotion (name = \"Mike\", rank = \"assistant\", "
       "effective = \"01/01/83\") valid at \"01/01/83\""},
      {"02/25/84",
       "append to promotion (name = \"Mike\", rank = \"left\", "
       "effective = \"03/01/84\") valid at \"02/25/84\""},
  };
}

std::vector<ScriptStep> CubeScript(TemporalClass temporal_class) {
  const auto ins = [](const char* name, int value) {
    return StringPrintf("append to r (name = \"%s\", value = %d)", name,
                        value);
  };
  // Valid-time kinds date each fact from its insertion transaction, which
  // keeps the historical (Figure 5) and rollback (Figure 3) cubes visually
  // parallel.  Transaction 1 adds three tuples ("c" is erroneous), 2 adds
  // one, 3 deletes a first-transaction tuple and adds another.
  std::vector<ScriptStep> steps = {
      {"", StringPrintf("create %s relation r (name = string, value = int)",
                        std::string(TemporalClassName(temporal_class))
                            .c_str())},
      {"", "range of x is r"},
      {"01/01/80", ins("a", 1)},
      {"", ins("b", 2)},
      {"", ins("c", 3)},
      {"02/01/80", ins("d", 4)},
      {"03/01/80", "delete x where x.name = \"b\""},
      {"", ins("e", 5)},
  };
  // Transaction 4 (valid-time kinds only): "c" never should have existed.
  // In an historical relation this is a physical correction; in a temporal
  // relation a logical deletion of its entire validity, recorded
  // append-only.
  if (temporal_class == TemporalClass::kHistorical) {
    steps.push_back({"04/01/80", "correct x where x.name = \"c\""});
  } else if (temporal_class == TemporalClass::kTemporal) {
    steps.push_back({"04/01/80",
                     "delete x valid from \"-inf\" to \"inf\" where "
                     "x.name = \"c\""});
  }
  return steps;
}

std::vector<Chronon> Boundaries(const Rowset& rows,
                                std::optional<Period> Row::*period) {
  std::set<Chronon> boundaries;
  for (const Row& row : rows.rows()) {
    const std::optional<Period>& p = row.*period;
    if (!p.has_value()) continue;
    for (Chronon c : {p->begin(), p->end()}) {
      if (c.IsFinite()) boundaries.insert(c);
    }
  }
  return std::vector<Chronon>(boundaries.begin(), boundaries.end());
}

Result<std::vector<CubeState>> Cube(Database* db,
                                    const std::string& relation) {
  TDB_ASSIGN_OR_RETURN(Rowset shown, db->Query("show " + relation));
  TDB_RETURN_IF_ERROR(
      db->Execute("range of " + relation + " is " + relation).status());
  std::string targets;
  for (const Attribute& attr : shown.schema().attributes()) {
    targets += (targets.empty() ? "" : ", ") + relation + "." + attr.name;
  }
  const bool txn = shown.has_txn_time();
  const std::string cut =
      txn ? " as of \"" : " when " + relation + " overlap \"";
  std::vector<CubeState> states;
  for (Chronon at : Boundaries(shown, txn ? &Row::txn : &Row::valid)) {
    std::string stmt =
        "retrieve (" + targets + ")" + cut + at.ToString() + "\"";
    TDB_ASSIGN_OR_RETURN(Rowset rows, db->Query(stmt));
    states.push_back(CubeState{at, std::move(stmt), std::move(rows)});
  }
  return states;
}

}  // namespace paper
}  // namespace temporadb
