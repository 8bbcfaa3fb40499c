#ifndef TEMPORADB_TQUEL_AST_H_
#define TEMPORADB_TQUEL_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "catalog/temporal_class.h"

namespace temporadb {
namespace tquel {

// ---------------------------------------------------------------------------
// Scalar expressions
// ---------------------------------------------------------------------------

struct AstExpr;
using AstExprPtr = std::shared_ptr<AstExpr>;

enum class AstExprKind {
  kIntLiteral,
  kFloatLiteral,
  kStringLiteral,
  kColumn,     // var.attr or bare attr (resolved by the analyzer).
  kBinary,     // comparison / arithmetic / logical
  kNot,
  kAggregate,  // count/sum/avg/min/max/any over an expression.
};

/// Aggregate functions allowed in retrieve target lists (Quel's aggregate
/// operators).
enum class AstAggFunc { kCount, kSum, kAvg, kMin, kMax, kAny };

/// "count", "sum", ...
std::string_view AstAggFuncName(AstAggFunc f);

enum class AstBinaryOp {
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAdd, kSub, kMul, kDiv, kMod,
  kAnd, kOr,
};

/// An unresolved scalar expression (names, not indexes).
struct AstExpr {
  AstExprKind kind;
  // Literals.
  std::string literal;  // Original spelling / string body.
  // Column: `variable.attribute` (variable empty when written bare).
  std::string variable;
  std::string attribute;
  // Binary / Not / Aggregate.
  AstBinaryOp op = AstBinaryOp::kEq;
  AstAggFunc agg = AstAggFunc::kCount;  // kAggregate only.
  AstExprPtr left;   // Not/Aggregate: the operand.
  AstExprPtr right;  // Binary only.

  /// True if this expression or any descendant is an aggregate.
  bool ContainsAggregate() const;

  /// Source-like rendering (used by the printer and error messages).
  std::string ToString() const;
};

// ---------------------------------------------------------------------------
// Temporal expressions and predicates
// ---------------------------------------------------------------------------

struct AstTemporalExpr;
using AstTemporalExprPtr = std::shared_ptr<AstTemporalExpr>;

enum class AstTemporalExprKind {
  kVar,        // A range variable: its valid period.
  kDate,       // A date literal (string form, parsed by the analyzer).
  kBeginOf,
  kEndOf,
  kOverlap,    // Intersection.
  kExtend,     // Span.
};

struct AstTemporalExpr {
  AstTemporalExprKind kind;
  std::string name;  // kVar: variable; kDate: literal text.
  AstTemporalExprPtr left;
  AstTemporalExprPtr right;

  std::string ToString() const;
};

struct AstTemporalPred;
using AstTemporalPredPtr = std::shared_ptr<AstTemporalPred>;

enum class AstTemporalPredKind {
  kPrecede,
  kOverlap,
  kEqual,
  kAnd,
  kOr,
  kNot,
};

struct AstTemporalPred {
  AstTemporalPredKind kind;
  // kPrecede/kOverlap/kEqual.
  AstTemporalExprPtr left_expr;
  AstTemporalExprPtr right_expr;
  // kAnd/kOr/kNot.
  AstTemporalPredPtr left_pred;
  AstTemporalPredPtr right_pred;

  std::string ToString() const;
};

// ---------------------------------------------------------------------------
// Clauses
// ---------------------------------------------------------------------------

/// `valid from e1 to e2` or `valid at e`.
struct ValidClause {
  bool at = false;  // True: event form (`valid at e`).
  AstTemporalExprPtr from;  // Or the `at` expression.
  AstTemporalExprPtr to;    // Null in the `at` form.

  std::string ToString() const;
};

/// `as of e [through e2]`.
struct AsOfClause {
  AstTemporalExprPtr at;
  AstTemporalExprPtr through;  // Null unless the range form was used.

  std::string ToString() const;
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

/// `create [<class>] [<model>] relation name (attr = type, ...)`.
struct CreateStmt {
  TemporalClass temporal_class = TemporalClass::kStatic;
  TemporalDataModel data_model = TemporalDataModel::kInterval;
  bool persistent = false;
  std::string name;
  std::vector<std::pair<std::string, std::string>> attributes;  // name, type.
};

/// `destroy name`.
struct DestroyStmt {
  std::string name;
};

/// `range of var is relation`.
struct RangeStmt {
  std::string variable;
  std::string relation;
};

/// One element of a retrieve target list: `name = expr` or `var.attr`.
struct TargetItem {
  std::string name;  // Output attribute name.
  AstExprPtr expr;
};

/// `retrieve [into name] (targets) [valid ...] [where ...] [when ...]
///  [as of ...]`.
struct RetrieveStmt {
  std::optional<std::string> into;
  std::vector<TargetItem> targets;
  std::optional<ValidClause> valid;
  AstExprPtr where;            // Null when absent.
  AstTemporalPredPtr when;     // Null when absent.
  std::optional<AsOfClause> as_of;
};

/// `append to relation (attr = expr, ...) [valid ...]`.
struct AppendStmt {
  std::string relation;
  std::vector<std::pair<std::string, AstExprPtr>> assignments;
  std::optional<ValidClause> valid;
};

/// `delete var [where ...] [when ...] [valid ...]`.
struct DeleteStmt {
  std::string variable;
  AstExprPtr where;         // Null when absent.
  AstTemporalPredPtr when;  // Null when absent.
  std::optional<ValidClause> valid;
};

/// `replace var (attr = expr, ...) [valid ...] [where ...] [when ...]`.
struct ReplaceStmt {
  std::string variable;
  std::vector<std::pair<std::string, AstExprPtr>> assignments;
  std::optional<ValidClause> valid;
  AstExprPtr where;         // Null when absent.
  AstTemporalPredPtr when;  // Null when absent.
};

/// `correct var [where ...]` — the historical physical-erase extension.
struct CorrectStmt {
  std::string variable;
  AstExprPtr where;  // Null when absent.
};

/// `show relation` — dumps the stored representation (Figures 4/6/8 views).
struct ShowStmt {
  std::string relation;
};

/// `create index on <relation> (<attribute>)` — a secondary B+-tree index
/// walked for key ranges: equality and literal bounds, and a hash step's
/// outer keys.
struct CreateIndexStmt {
  std::string relation;
  std::string attribute;
};

/// `begin transaction`, `commit`, `abort` — explicit multi-statement
/// transactions; executed by the database facade, not the evaluator.
struct BeginTxnStmt {};
struct CommitStmt {};
struct AbortStmt {};

using Statement =
    std::variant<CreateStmt, DestroyStmt, RangeStmt, RetrieveStmt, AppendStmt,
                 DeleteStmt, ReplaceStmt, CorrectStmt, ShowStmt,
                 CreateIndexStmt, BeginTxnStmt, CommitStmt, AbortStmt>;

/// Pretty-prints any statement in TQuel syntax.
std::string StatementToString(const Statement& stmt);

}  // namespace tquel
}  // namespace temporadb

#endif  // TEMPORADB_TQUEL_AST_H_
