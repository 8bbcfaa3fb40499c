#ifndef TEMPORADB_CORE_PAPER_SCENARIO_H_
#define TEMPORADB_CORE_PAPER_SCENARIO_H_

#include <optional>
#include <string>
#include <vector>

#include "core/database.h"
#include "txn/clock.h"

namespace temporadb {
namespace paper {

/// The paper's worked example (the `faculty` relation and the `promotion`
/// event relation) as TQuel scripts: each step sets a manual clock to one
/// of the paper's 1977-1984 transaction dates and runs one statement.  The
/// engine replays them through `Replay`; the reference model
/// (workload/reference.h) replays the same text.  Tests check the stored
/// relations tuple-for-tuple against Figures 2-9; the figure benches print
/// them.
struct ScriptStep {
  std::string date;  ///< MM/DD/YY; empty: keep the clock.
  std::string stmt;
};

/// Runs `steps` against `db`, setting `clock` before each dated step
/// (`clock` may be null when no step has a date).  `db` must have been
/// opened with `clock` as its transaction-time source.
Status Replay(Database* db, ManualClock* clock,
              const std::vector<ScriptStep>& steps);

/// Figure 2: the static `faculty` relation (Merrie full, Tom associate).
std::vector<ScriptStep> StaticFacultyScript();

/// Figures 3/4: the static rollback `faculty` relation.  Transactions:
///   08/25/77  append (Merrie, associate)
///   12/07/82  append (Tom, associate)
///   12/15/82  replace Merrie -> full
///   01/10/83  append (Mike, assistant)
///   02/25/84  delete Mike
std::vector<ScriptStep> RollbackFacultyScript();

/// Figures 5-8: the historical (Figure 6) or temporal (Figure 8) `faculty`
/// relation; `kind` is "historical" or "temporal".  Transactions:
///   08/25/77  append Merrie associate, valid from 09/01/77   (postactive)
///   12/01/82  append Tom full, valid from 12/05/82           (postactive)
///   12/07/82  replace Tom -> associate, valid from 12/05/82  (correction)
///   12/15/82  replace Merrie -> full, valid from 12/01/82    (retroactive)
///   01/10/83  append Mike assistant, valid from 01/01/83     (retroactive)
///   02/25/84  delete Mike, valid from 03/01/84               (postactive)
/// In an historical relation only the final knowledge survives.
std::vector<ScriptStep> FacultyScript(const std::string& kind);

/// Figure 9: the temporal event relation `promotion` with the user-defined
/// `effective` date attribute.
std::vector<ScriptStep> PromotionEventsScript();

/// The abstract transaction script of Figures 3/5/7 on a relation `r(name,
/// value)`: (1) add three tuples, (2) add one, (3) delete one from the first
/// transaction and add another, and — for valid-time kinds — (4) remove an
/// erroneous tuple inserted by the first transaction.  `temporal_class`
/// picks the relation kind.
std::vector<ScriptStep> CubeScript(TemporalClass temporal_class);

/// The distinct finite endpoints of `rows`' `period` (`&Row::txn` or
/// `&Row::valid`), ascending: the instants at which their state changed.
std::vector<Chronon> Boundaries(const Rowset& rows,
                                std::optional<Period> Row::*period);

/// One state of a cube: the boundary it is taken at, the statement that
/// reads it, and the statement's answer.
struct CubeState {
  Chronon at;
  std::string stmt;
  Rowset rows;
};

/// The cube of Figures 3, 5 and 7: `relation` read as a sequence of states,
/// one `retrieve` of all its attributes per boundary of its `show` rows.  A
/// relation with transaction time is cut along transaction periods
/// (`as of "<t>"`, Figures 3 and 7), an historical one along valid periods
/// (`when <relation> overlap "<v>"`, Figure 5); a static relation has no
/// states.  Declares `relation` as a range variable over itself.
Result<std::vector<CubeState>> Cube(Database* db, const std::string& relation);

}  // namespace paper
}  // namespace temporadb

#endif  // TEMPORADB_CORE_PAPER_SCENARIO_H_
