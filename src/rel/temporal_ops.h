#ifndef TEMPORADB_REL_TEMPORAL_OPS_H_
#define TEMPORADB_REL_TEMPORAL_OPS_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/period.h"
#include "common/result.h"

namespace temporadb {

// ---------------------------------------------------------------------------
// TQuel temporal expressions and predicates
// ---------------------------------------------------------------------------

/// A binding of each range variable to the valid period of the tuple it is
/// currently bound to (indexed by range-variable ordinal).
using PeriodBinding = std::vector<Period>;

/// A TQuel temporal *expression* (`valid` clause and `when` operands):
/// evaluates to a Period under a binding.  Grammar:
///   e ::= <range var> | <date literal> | begin of e | end of e
///       | e overlap e (intersection) | e extend e (span)
class TemporalExpr {
 public:
  virtual ~TemporalExpr() = default;
  virtual Result<Period> Eval(const PeriodBinding& binding) const = 0;
  virtual std::string ToString() const = 0;

  /// The range-variable ordinal when this expression is exactly a bare
  /// range-variable reference; nullopt otherwise.  Used by pushdown
  /// extraction to recognize `<var> overlap <window>` shapes.
  virtual std::optional<size_t> AsVarRef() const { return std::nullopt; }

  /// True when every range variable referenced by this expression has
  /// ordinal < `prefix` — i.e. the expression can be evaluated once the
  /// first `prefix` participants of a join are bound.  Literals bind
  /// nothing and return true.
  virtual bool OnlyBindsBelow(size_t prefix) const {
    (void)prefix;
    return true;
  }
};

using TemporalExprPtr = std::shared_ptr<const TemporalExpr>;

TemporalExprPtr MakeVarPeriod(size_t var_index, std::string display_name);
TemporalExprPtr MakePeriodLiteral(Period p, std::string display);
TemporalExprPtr MakeBeginOf(TemporalExprPtr inner);
TemporalExprPtr MakeEndOf(TemporalExprPtr inner);
TemporalExprPtr MakeOverlapExpr(TemporalExprPtr left, TemporalExprPtr right);
TemporalExprPtr MakeExtendExpr(TemporalExprPtr left, TemporalExprPtr right);

/// A TQuel temporal *predicate* (`when` clause):
///   p ::= e precede e | e overlap e | e equal e
///       | p and p | p or p | not p
class TemporalPred {
 public:
  virtual ~TemporalPred() = default;
  virtual Result<bool> Eval(const PeriodBinding& binding) const = 0;
  virtual std::string ToString() const = 0;

  /// Extracts a *sound implied overlap window* for range variable `var`
  /// from this predicate, given that participants with ordinal < `prefix`
  /// are already bound in `binding` (entries at ordinal >= `prefix` are
  /// never read).
  ///
  /// The contract: if the returned window is `W`, then for every tuple
  /// whose (nonempty) valid period does NOT overlap `W`, this predicate is
  /// guaranteed false under any extension of `binding` that binds `var` to
  /// that tuple.  A scan may therefore skip such tuples.  An *empty* `W`
  /// means the predicate can never hold (prune everything); nullopt means
  /// no window could be derived (scan unconstrained) — always safe.
  ///
  /// Recognized shapes: `var overlap/equal e`, `var precede e`,
  /// `e precede var` (with `e` evaluable from the bound prefix), plus
  /// `and` (either side's window) and `or` (the span of both sides'
  /// windows).  `not` derives nothing.
  virtual std::optional<Period> PushdownWindow(size_t var,
                                               const PeriodBinding& binding,
                                               size_t prefix) const {
    (void)var;
    (void)binding;
    (void)prefix;
    return std::nullopt;
  }
};

using TemporalPredPtr = std::shared_ptr<const TemporalPred>;

TemporalPredPtr MakePrecedePred(TemporalExprPtr left, TemporalExprPtr right);
TemporalPredPtr MakeOverlapPred(TemporalExprPtr left, TemporalExprPtr right);
TemporalPredPtr MakeEqualPred(TemporalExprPtr left, TemporalExprPtr right);
TemporalPredPtr MakeAndPred(TemporalPredPtr left, TemporalPredPtr right);
TemporalPredPtr MakeOrPred(TemporalPredPtr left, TemporalPredPtr right);
TemporalPredPtr MakeNotPred(TemporalPredPtr inner);

}  // namespace temporadb

#endif  // TEMPORADB_REL_TEMPORAL_OPS_H_
