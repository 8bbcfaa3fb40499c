#ifndef TEMPORADB_TQUEL_ANALYZER_H_
#define TEMPORADB_TQUEL_ANALYZER_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "rel/aggregate.h"
#include "rel/expression.h"
#include "rel/temporal_ops.h"
#include "temporal/stored_relation.h"
#include "tquel/ast.h"

namespace temporadb {
namespace tquel {

/// One range variable participating in a statement.
struct Participant {
  std::string name;            ///< Range-variable name.
  StoredRelation* relation;    ///< The relation it ranges over.
  size_t value_offset;         ///< Offset of its attributes in the flattened
                               ///< evaluation row.
};

/// Resolution context handed in by the database facade.
struct AnalyzerContext {
  /// Resolves a relation name to its stored relation.
  std::function<Result<StoredRelation*>(std::string_view)> get_relation;
  /// The session's range-variable table (var -> relation name).
  const std::map<std::string, std::string>* ranges = nullptr;
};

/// A fully analyzed retrieve statement, ready for evaluation.
///
/// Analysis is where the taxonomy (Figure 10) is *enforced*:
///  - a `when` or `valid` clause requires every participating relation to
///    maintain valid time (historical/temporal), else `NotSupported`;
///  - an `as of` clause requires transaction time (rollback/temporal);
///  - the result's temporal class is the meet of the participants' derived
///    classes (`DerivedClass`): querying a rollback relation yields a static
///    result, a temporal relation a temporal one, etc.
struct BoundRetrieve {
  std::vector<Participant> participants;
  size_t total_arity = 0;

  std::vector<ExprPtr> target_exprs;
  std::vector<std::string> target_names;
  /// The type of the values `target_exprs[i]` yields (for an aggregate,
  /// its input's): the type of result column i before aggregation.
  std::vector<ValueType> target_types;
  std::vector<size_t> target_vars;  ///< Participant ordinals used in targets.

  /// Where target i (for an aggregate, its input) is a plain column
  /// reference, `target_columns[i]` holds its participant ordinal and
  /// attribute index, and the evaluator copies that value instead of
  /// evaluating `target_exprs[i]`; nullopt for any other target.
  struct ColumnRef {
    size_t participant;
    size_t attr;
  };
  std::vector<std::optional<ColumnRef>> target_columns;

  /// Aggregation (Quel's count/sum/avg/min/max/any in the target list).
  /// When present, non-aggregate targets become grouping keys, aggregation
  /// collapses time, and the result is a static rowset.  `target_exprs[i]`
  /// holds the aggregate's *input* expression for aggregate targets.
  bool has_aggregates = false;
  struct AggTarget {
    bool is_aggregate = false;
    AggFunc func = AggFunc::kCount;
  };
  std::vector<AggTarget> target_aggs;  ///< Parallel to targets.

  ExprPtr where;                    ///< Null when absent.
  TemporalPredPtr when;             ///< Null when absent.

  bool valid_at = false;            ///< `valid at` (event) form.
  TemporalExprPtr valid_from;       ///< Null => default valid period.
  TemporalExprPtr valid_to;

  TemporalExprPtr asof_at;          ///< Null => no rollback.
  TemporalExprPtr asof_through;

  /// `probe_keys[i]`: participant i's attribute-index key range
  /// (`ProbeKey`), which `StoredRelation::Candidates` probes in place of a
  /// scan.  The full where clause still runs afterwards, so a key is a pure
  /// access-path choice.
  std::vector<std::optional<KeyRanges>> probe_keys;

  /// Join planning, filled only when more than one participant is bound
  /// and no top-level where conjunct and not the `when` can fail (the rule
  /// of `ProbeKey`).  Like `probe_keys`, both only choose which tuple
  /// combinations the evaluator builds; every combination it builds still
  /// runs the full `where` and `when`.
  ///
  /// `join_keys[i]`: the where clause's top-level `x.attr = y.attr`
  /// conjuncts between participant i and an *earlier* participant, whose
  /// attributes share one hashable type (not float: -0.0 and 0.0 compare
  /// equal but hash apart; int = float compares across types).
  struct JoinKey {
    size_t attr;        ///< Attribute of participant i.
    size_t outer;       ///< The earlier participant's ordinal.
    size_t outer_attr;  ///< Its attribute.
  };
  std::vector<std::vector<JoinKey>> join_keys;

  /// `local_filters[i]`: the top-level where conjuncts that reference only
  /// participant i, compiled over that participant's own values.  Null when
  /// there are none.
  std::vector<ExprPtr> local_filters;

  TemporalClass result_class = TemporalClass::kStatic;
  TemporalDataModel result_model = TemporalDataModel::kInterval;
  std::optional<std::string> into;
};

/// Analyzes a retrieve statement against the session's ranges and catalog.
Result<BoundRetrieve> AnalyzeRetrieve(const RetrieveStmt& stmt,
                                      const AnalyzerContext& ctx);

/// The attribute-index key range participant `p` of `participants` probes,
/// for retrieve and DML alike: the first top-level `var.attr = literal`
/// conjunct of `where` over `p` on an indexed attribute picks the
/// attribute, else the first `var.attr {<, <=, >, >=} literal` one; every
/// such conjunct on that attribute narrows the one range.  The literal
/// (either side) must denote a value of the attribute's type (no float
/// literal on an int attribute, date literals parsed, string keys only for
/// string attributes).  None if a top-level conjunct of `where` or the
/// `when` clause can fail at run time: a probe runs them on fewer rows than
/// the scan would, and the statement must fail exactly as the scan does.
std::optional<KeyRanges> ProbeKey(
    const AstExprPtr& where, const AstTemporalPredPtr& when,
    const std::vector<Participant>& participants, size_t p);

/// Compiles a scalar AST expression against a participant list; `allow_columns`
/// false rejects any attribute reference (append-statement constants).
Result<ExprPtr> CompileScalarExpr(const AstExprPtr& ast,
                                  const std::vector<Participant>& participants,
                                  bool allow_columns = true);

/// Infers the static type of a compiled expression's AST.
Result<ValueType> InferType(const AstExprPtr& ast,
                            const std::vector<Participant>& participants);

/// Compiles a temporal expression; range-variable references resolve to the
/// participant's ordinal.  With `allow_vars` false (as-of clauses, DML valid
/// clauses) any variable reference is an error.
Result<TemporalExprPtr> CompileTemporalExpr(
    const AstTemporalExprPtr& ast,
    const std::vector<Participant>& participants, bool allow_vars = true);

/// Compiles a temporal predicate (when clause).
Result<TemporalPredPtr> CompileTemporalPred(
    const AstTemporalPredPtr& ast,
    const std::vector<Participant>& participants);

/// Evaluates a var-free temporal expression to a period.
Result<Period> EvalConstPeriod(const AstTemporalExprPtr& ast);

/// Resolves a DML valid clause to a concrete period (nullopt when absent).
Result<std::optional<Period>> ResolveDmlValidClause(
    const std::optional<ValidClause>& clause);

}  // namespace tquel
}  // namespace temporadb

#endif  // TEMPORADB_TQUEL_ANALYZER_H_
