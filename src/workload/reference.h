#ifndef TEMPORADB_WORKLOAD_REFERENCE_H_
#define TEMPORADB_WORKLOAD_REFERENCE_H_

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "catalog/temporal_class.h"
#include "common/chronon.h"
#include "common/period.h"
#include "common/result.h"
#include "common/value.h"
#include "tquel/ast.h"

namespace temporadb {
namespace reference {

/// A stored or derived fact: values plus valid and transaction periods
/// (`Period::All()` in a dimension the relation does not maintain).
struct Fact {
  std::vector<Value> values;
  Period valid = Period::All();
  Period txn = Period::All();

  friend bool operator==(const Fact& a, const Fact& b) {
    return a.values == b.values && a.valid == b.valid && a.txn == b.txn;
  }
};

/// Multiset equality: the same facts, each as often, in any order.
bool SameFacts(std::vector<Fact> a, std::vector<Fact> b);

/// Renders a fact for diagnostics: `(v1, v2) v[b, e) t[b, e)`.
std::string FactToString(const Fact& fact);

/// A relation: its kind, attributes and one flat vector of facts.
struct Relation {
  TemporalClass kind = TemporalClass::kStatic;
  TemporalDataModel model = TemporalDataModel::kInterval;
  std::vector<std::pair<std::string, ValueType>> attributes;
  std::vector<Fact> facts;
};

/// What one statement produced: a `retrieve`/`show` result's attribute
/// names, temporal class and rows; the facts a DML statement selected.
struct Answer {
  std::vector<std::string> names;
  TemporalClass result_class = TemporalClass::kStatic;
  std::vector<Fact> rows;
  size_t count = 0;
};

/// An executable specification of TQuel over the paper's four kinds of
/// relation, written from §4–§5 and the clause matrix (DESIGN.md §11.3)
/// rather than from the engine.  Every relation is a flat vector of facts.
/// An update is a selection over the facts visible to it followed by a
/// rewrite of the selected facts:
///
/// | kind       | delete                    | replace                        |
/// |------------|---------------------------|--------------------------------|
/// | static     | drop the fact             | overwrite its values           |
/// | rollback   | end its transaction time  | end it, add the new values     |
/// | historical | cut the period from valid | cut, add new values on the cut |
/// | temporal   | end it, add the remnants  | end it, remnants + new values  |
///
/// DML sees only current facts (transaction time open) on kinds with
/// transaction time, and on a valid-time kind the facts overlapping the
/// statement's valid period (default: from now on).  `correct` erases
/// historical facts outright.  `retrieve` enumerates every combination of
/// the participants' visible facts (a where-conjunct naming one variable
/// filters that variable's facts first; nothing else is planned).  A
/// derived row's default periods intersect the target-list variables'
/// (EXPERIMENTS.md); a row empty in a dimension the result keeps is
/// dropped.  Aggregates group the combinations into a static result.
///
/// The model shares only the parser, the AST and the `common/` value and
/// time types with the engine (checked by tools/tdb_lint.py).
class ReferenceModel {
 public:
  /// Executes each statement of `source` at transaction time `now` (clamped
  /// never to decrease); returns the last answer.  A failing statement
  /// changes nothing.
  Result<Answer> Execute(std::string_view source, Chronon now);
  Result<Answer> Execute(const tquel::Statement& stmt, Chronon now);

  const Relation* Find(const std::string& name) const;  ///< Null if none.
  const std::map<std::string, Relation>& relations() const {
    return relations_;
  }

 private:
  Result<Answer> Create(const tquel::CreateStmt& s);
  Result<Answer> Retrieve(const tquel::RetrieveStmt& s) const;
  Result<Answer> Append(const tquel::AppendStmt& s);
  /// `delete` (no assignments), `replace` and `correct`.
  Result<Answer> Update(
      const std::string& variable, const tquel::AstExprPtr& where,
      const tquel::AstTemporalPredPtr& when,
      const std::optional<tquel::ValidClause>& valid,
      const std::vector<std::pair<std::string, tquel::AstExprPtr>>*
          assignments,
      bool correct = false);

  std::map<std::string, Relation> relations_;
  std::map<std::string, std::string> ranges_;
  Chronon now_ = Chronon::Beginning();
};

}  // namespace reference
}  // namespace temporadb

#endif  // TEMPORADB_WORKLOAD_REFERENCE_H_
