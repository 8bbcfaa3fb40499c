#include "tquel/analyzer.h"

#include <algorithm>
#include <charconv>
#include <set>

#include "common/strings.h"

namespace temporadb {
namespace tquel {

namespace {

// ---------------------------------------------------------------------------
// Participant collection
// ---------------------------------------------------------------------------

// Collects range-variable names referenced by the statement, in order of
// first appearance.  Bare attribute names are resolved against the declared
// ranges (unique match required).
class ParticipantCollector {
 public:
  explicit ParticipantCollector(const AnalyzerContext& ctx) : ctx_(ctx) {}

  Status AddVar(const std::string& var) {
    if (ctx_.ranges == nullptr || !ctx_.ranges->contains(var)) {
      return Status::InvalidArgument(StringPrintf(
          "unknown range variable '%s' (declare it with 'range of %s is "
          "<relation>')",
          var.c_str(), var.c_str()));
    }
    for (const std::string& existing : order_) {
      if (existing == var) return Status::OK();
    }
    order_.push_back(var);
    return Status::OK();
  }

  Status WalkExpr(const AstExprPtr& e) {
    if (e == nullptr) return Status::OK();
    switch (e->kind) {
      case AstExprKind::kColumn:
        if (!e->variable.empty()) {
          return AddVar(e->variable);
        }
        return ResolveBareAttribute(e->attribute);
      case AstExprKind::kBinary:
        TDB_RETURN_IF_ERROR(WalkExpr(e->left));
        return WalkExpr(e->right);
      case AstExprKind::kNot:
      case AstExprKind::kAggregate:
        return WalkExpr(e->left);
      default:
        return Status::OK();
    }
  }

  Status WalkTemporalExpr(const AstTemporalExprPtr& e) {
    if (e == nullptr) return Status::OK();
    switch (e->kind) {
      case AstTemporalExprKind::kVar:
        return AddVar(e->name);
      case AstTemporalExprKind::kDate:
        return Status::OK();
      default:
        TDB_RETURN_IF_ERROR(WalkTemporalExpr(e->left));
        return WalkTemporalExpr(e->right);
    }
  }

  Status WalkTemporalPred(const AstTemporalPredPtr& p) {
    if (p == nullptr) return Status::OK();
    TDB_RETURN_IF_ERROR(WalkTemporalExpr(p->left_expr));
    TDB_RETURN_IF_ERROR(WalkTemporalExpr(p->right_expr));
    TDB_RETURN_IF_ERROR(WalkTemporalPred(p->left_pred));
    return WalkTemporalPred(p->right_pred);
  }

  // Builds the participant list with offsets.
  Result<std::vector<Participant>> Build() {
    std::vector<Participant> participants;
    size_t offset = 0;
    for (const std::string& var : order_) {
      const std::string& rel_name = ctx_.ranges->at(var);
      TDB_ASSIGN_OR_RETURN(StoredRelation * rel,
                           ctx_.get_relation(rel_name));
      participants.push_back(Participant{var, rel, offset});
      offset += rel->schema().size();
    }
    return participants;
  }

 private:
  Status ResolveBareAttribute(const std::string& attr) {
    // Prefer an already-collected participant; otherwise search all
    // declared ranges for a unique relation carrying the attribute.
    for (const std::string& var : order_) {
      TDB_ASSIGN_OR_RETURN(StoredRelation * rel,
                           ctx_.get_relation(ctx_.ranges->at(var)));
      if (rel->schema().IndexOf(attr).has_value()) return Status::OK();
    }
    std::string found_var;
    if (ctx_.ranges != nullptr) {
      for (const auto& [var, rel_name] : *ctx_.ranges) {
        Result<StoredRelation*> rel = ctx_.get_relation(rel_name);
        if (!rel.ok()) continue;
        if ((*rel)->schema().IndexOf(attr).has_value()) {
          if (!found_var.empty() && ctx_.ranges->at(found_var) != rel_name) {
            return Status::InvalidArgument(StringPrintf(
                "attribute '%s' is ambiguous; qualify it with a range "
                "variable",
                attr.c_str()));
          }
          if (found_var.empty()) found_var = var;
        }
      }
    }
    if (found_var.empty()) {
      return Status::InvalidArgument(
          StringPrintf("unknown attribute '%s'", attr.c_str()));
    }
    return AddVar(found_var);
  }

  const AnalyzerContext& ctx_;
  std::vector<std::string> order_;
};

// Finds the participant ordinal for a variable name.
Result<size_t> FindParticipant(const std::vector<Participant>& participants,
                               const std::string& var) {
  for (size_t i = 0; i < participants.size(); ++i) {
    if (participants[i].name == var) return i;
  }
  return Status::Internal(
      StringPrintf("range variable '%s' not collected", var.c_str()));
}

// Resolves a column reference to (participant ordinal, attribute index).
Result<std::pair<size_t, size_t>> ResolveColumn(
    const std::vector<Participant>& participants, const std::string& var,
    const std::string& attr) {
  if (!var.empty()) {
    TDB_ASSIGN_OR_RETURN(size_t p, FindParticipant(participants, var));
    std::optional<size_t> idx = participants[p].relation->schema().IndexOf(attr);
    if (!idx.has_value()) {
      return Status::InvalidArgument(StringPrintf(
          "relation '%s' (range variable '%s') has no attribute '%s'",
          participants[p].relation->info().name.c_str(), var.c_str(),
          attr.c_str()));
    }
    return std::make_pair(p, *idx);
  }
  std::optional<std::pair<size_t, size_t>> found;
  for (size_t p = 0; p < participants.size(); ++p) {
    std::optional<size_t> idx = participants[p].relation->schema().IndexOf(attr);
    if (idx.has_value()) {
      if (found.has_value()) {
        return Status::InvalidArgument(StringPrintf(
            "attribute '%s' is ambiguous; qualify it", attr.c_str()));
      }
      found = std::make_pair(p, *idx);
    }
  }
  if (!found.has_value()) {
    return Status::InvalidArgument(
        StringPrintf("unknown attribute '%s'", attr.c_str()));
  }
  return *found;
}

Result<Value> ParseNumericLiteral(const AstExpr& e) {
  if (e.kind == AstExprKind::kIntLiteral) {
    int64_t v = 0;
    auto [ptr, ec] =
        std::from_chars(e.literal.data(), e.literal.data() + e.literal.size(), v);
    if (ec != std::errc()) {
      return Status::ParseError("bad integer literal: " + e.literal);
    }
    return Value(v);
  }
  char* endp = nullptr;
  double d = std::strtod(e.literal.c_str(), &endp);
  if (endp != e.literal.c_str() + e.literal.size()) {
    return Status::ParseError("bad float literal: " + e.literal);
  }
  return Value(d);
}

bool IsComparison(AstBinaryOp op) {
  switch (op) {
    case AstBinaryOp::kEq:
    case AstBinaryOp::kNe:
    case AstBinaryOp::kLt:
    case AstBinaryOp::kLe:
    case AstBinaryOp::kGt:
    case AstBinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

CompareOp ToCompareOp(AstBinaryOp op) {
  switch (op) {
    case AstBinaryOp::kEq:
      return CompareOp::kEq;
    case AstBinaryOp::kNe:
      return CompareOp::kNe;
    case AstBinaryOp::kLt:
      return CompareOp::kLt;
    case AstBinaryOp::kLe:
      return CompareOp::kLe;
    case AstBinaryOp::kGt:
      return CompareOp::kGt;
    default:
      return CompareOp::kGe;
  }
}

}  // namespace

Result<ValueType> InferType(const AstExprPtr& ast,
                            const std::vector<Participant>& participants) {
  switch (ast->kind) {
    case AstExprKind::kIntLiteral:
      return ValueType::kInt;
    case AstExprKind::kFloatLiteral:
      return ValueType::kFloat;
    case AstExprKind::kStringLiteral:
      return ValueType::kString;
    case AstExprKind::kColumn: {
      TDB_ASSIGN_OR_RETURN(
          auto loc, ResolveColumn(participants, ast->variable, ast->attribute));
      return participants[loc.first]
          .relation->schema()
          .at(loc.second)
          .type.value_type();
    }
    case AstExprKind::kBinary: {
      if (IsComparison(ast->op) || ast->op == AstBinaryOp::kAnd ||
          ast->op == AstBinaryOp::kOr) {
        return ValueType::kBool;
      }
      TDB_ASSIGN_OR_RETURN(ValueType l, InferType(ast->left, participants));
      TDB_ASSIGN_OR_RETURN(ValueType r, InferType(ast->right, participants));
      return (l == ValueType::kFloat || r == ValueType::kFloat)
                 ? ValueType::kFloat
                 : ValueType::kInt;
    }
    case AstExprKind::kNot:
      return ValueType::kBool;
    case AstExprKind::kAggregate:
      switch (ast->agg) {
        case AstAggFunc::kCount:
          return ValueType::kInt;
        case AstAggFunc::kAvg:
          return ValueType::kFloat;
        default:
          return InferType(ast->left, participants);
      }
  }
  return Status::Internal("unhandled expression kind");
}

Result<ExprPtr> CompileScalarExpr(const AstExprPtr& ast,
                                  const std::vector<Participant>& participants,
                                  bool allow_columns) {
  switch (ast->kind) {
    case AstExprKind::kIntLiteral:
    case AstExprKind::kFloatLiteral: {
      TDB_ASSIGN_OR_RETURN(Value v, ParseNumericLiteral(*ast));
      return MakeLiteral(std::move(v));
    }
    case AstExprKind::kStringLiteral:
      return MakeLiteral(Value(ast->literal));
    case AstExprKind::kColumn: {
      if (!allow_columns) {
        return Status::InvalidArgument(StringPrintf(
            "attribute reference '%s' is not allowed here (constants only)",
            ast->ToString().c_str()));
      }
      TDB_ASSIGN_OR_RETURN(
          auto loc, ResolveColumn(participants, ast->variable, ast->attribute));
      size_t flat =
          participants[loc.first].value_offset + loc.second;
      return MakeColumnRef(flat, ast->ToString());
    }
    case AstExprKind::kBinary: {
      // Date coercion: comparing a date attribute against a string literal
      // parses the literal as a date at compile time.
      AstExprPtr left_ast = ast->left;
      AstExprPtr right_ast = ast->right;
      if (IsComparison(ast->op)) {
        Result<ValueType> lt = InferType(left_ast, participants);
        Result<ValueType> rt = InferType(right_ast, participants);
        if (lt.ok() && rt.ok()) {
          if (*lt == ValueType::kDate &&
              right_ast->kind == AstExprKind::kStringLiteral) {
            TDB_ASSIGN_OR_RETURN(Date d, Date::Parse(right_ast->literal));
            TDB_ASSIGN_OR_RETURN(ExprPtr left,
                                 CompileScalarExpr(left_ast, participants,
                                                   allow_columns));
            return MakeCompare(ToCompareOp(ast->op), std::move(left),
                               MakeLiteral(Value(d)));
          }
          if (*rt == ValueType::kDate &&
              left_ast->kind == AstExprKind::kStringLiteral) {
            TDB_ASSIGN_OR_RETURN(Date d, Date::Parse(left_ast->literal));
            TDB_ASSIGN_OR_RETURN(ExprPtr right,
                                 CompileScalarExpr(right_ast, participants,
                                                   allow_columns));
            return MakeCompare(ToCompareOp(ast->op), MakeLiteral(Value(d)),
                               std::move(right));
          }
        }
      }
      TDB_ASSIGN_OR_RETURN(
          ExprPtr left, CompileScalarExpr(left_ast, participants, allow_columns));
      TDB_ASSIGN_OR_RETURN(ExprPtr right, CompileScalarExpr(
                                              right_ast, participants,
                                              allow_columns));
      if (IsComparison(ast->op)) {
        return MakeCompare(ToCompareOp(ast->op), std::move(left),
                           std::move(right));
      }
      switch (ast->op) {
        case AstBinaryOp::kAdd:
          return MakeArith(ArithOp::kAdd, std::move(left), std::move(right));
        case AstBinaryOp::kSub:
          return MakeArith(ArithOp::kSub, std::move(left), std::move(right));
        case AstBinaryOp::kMul:
          return MakeArith(ArithOp::kMul, std::move(left), std::move(right));
        case AstBinaryOp::kDiv:
          return MakeArith(ArithOp::kDiv, std::move(left), std::move(right));
        case AstBinaryOp::kMod:
          return MakeArith(ArithOp::kMod, std::move(left), std::move(right));
        case AstBinaryOp::kAnd:
          return MakeLogical(LogicalOp::kAnd, std::move(left),
                             std::move(right));
        case AstBinaryOp::kOr:
          return MakeLogical(LogicalOp::kOr, std::move(left),
                             std::move(right));
        default:
          return Status::Internal("unhandled binary op");
      }
    }
    case AstExprKind::kNot: {
      TDB_ASSIGN_OR_RETURN(
          ExprPtr inner, CompileScalarExpr(ast->left, participants,
                                           allow_columns));
      return MakeNot(std::move(inner));
    }
    case AstExprKind::kAggregate:
      return Status::NotSupported(
          "aggregates are only allowed as whole target-list entries "
          "(e.g. 'retrieve (n = count(f.name))')");
  }
  return Status::Internal("unhandled expression kind");
}

Result<TemporalExprPtr> CompileTemporalExpr(
    const AstTemporalExprPtr& ast,
    const std::vector<Participant>& participants, bool allow_vars) {
  switch (ast->kind) {
    case AstTemporalExprKind::kVar: {
      if (!allow_vars) {
        return Status::InvalidArgument(StringPrintf(
            "range variable '%s' is not allowed in this temporal "
            "expression (constants only)",
            ast->name.c_str()));
      }
      TDB_ASSIGN_OR_RETURN(size_t p, FindParticipant(participants, ast->name));
      return MakeVarPeriod(p, ast->name);
    }
    case AstTemporalExprKind::kDate: {
      TDB_ASSIGN_OR_RETURN(Date d, Date::Parse(ast->name));
      Period p = d.IsForever() ? Period(Chronon::Forever(), Chronon::Forever())
                               : Period::At(d.chronon());
      return MakePeriodLiteral(p, "\"" + ast->name + "\"");
    }
    case AstTemporalExprKind::kBeginOf: {
      TDB_ASSIGN_OR_RETURN(TemporalExprPtr inner,
                           CompileTemporalExpr(ast->left, participants,
                                               allow_vars));
      return MakeBeginOf(std::move(inner));
    }
    case AstTemporalExprKind::kEndOf: {
      TDB_ASSIGN_OR_RETURN(TemporalExprPtr inner,
                           CompileTemporalExpr(ast->left, participants,
                                               allow_vars));
      return MakeEndOf(std::move(inner));
    }
    case AstTemporalExprKind::kOverlap: {
      TDB_ASSIGN_OR_RETURN(TemporalExprPtr left,
                           CompileTemporalExpr(ast->left, participants,
                                               allow_vars));
      TDB_ASSIGN_OR_RETURN(TemporalExprPtr right,
                           CompileTemporalExpr(ast->right, participants,
                                               allow_vars));
      return MakeOverlapExpr(std::move(left), std::move(right));
    }
    case AstTemporalExprKind::kExtend: {
      TDB_ASSIGN_OR_RETURN(TemporalExprPtr left,
                           CompileTemporalExpr(ast->left, participants,
                                               allow_vars));
      TDB_ASSIGN_OR_RETURN(TemporalExprPtr right,
                           CompileTemporalExpr(ast->right, participants,
                                               allow_vars));
      return MakeExtendExpr(std::move(left), std::move(right));
    }
  }
  return Status::Internal("unhandled temporal expression kind");
}

Result<TemporalPredPtr> CompileTemporalPred(
    const AstTemporalPredPtr& ast,
    const std::vector<Participant>& participants) {
  switch (ast->kind) {
    case AstTemporalPredKind::kPrecede:
    case AstTemporalPredKind::kOverlap:
    case AstTemporalPredKind::kEqual: {
      TDB_ASSIGN_OR_RETURN(TemporalExprPtr left,
                           CompileTemporalExpr(ast->left_expr, participants));
      TDB_ASSIGN_OR_RETURN(TemporalExprPtr right,
                           CompileTemporalExpr(ast->right_expr, participants));
      if (ast->kind == AstTemporalPredKind::kPrecede) {
        return MakePrecedePred(std::move(left), std::move(right));
      }
      if (ast->kind == AstTemporalPredKind::kOverlap) {
        return MakeOverlapPred(std::move(left), std::move(right));
      }
      return MakeEqualPred(std::move(left), std::move(right));
    }
    case AstTemporalPredKind::kAnd:
    case AstTemporalPredKind::kOr: {
      TDB_ASSIGN_OR_RETURN(TemporalPredPtr left,
                           CompileTemporalPred(ast->left_pred, participants));
      TDB_ASSIGN_OR_RETURN(TemporalPredPtr right,
                           CompileTemporalPred(ast->right_pred, participants));
      if (ast->kind == AstTemporalPredKind::kAnd) {
        return MakeAndPred(std::move(left), std::move(right));
      }
      return MakeOrPred(std::move(left), std::move(right));
    }
    case AstTemporalPredKind::kNot: {
      TDB_ASSIGN_OR_RETURN(TemporalPredPtr inner,
                           CompileTemporalPred(ast->left_pred, participants));
      return MakeNotPred(std::move(inner));
    }
  }
  return Status::Internal("unhandled temporal predicate kind");
}

Result<Period> EvalConstPeriod(const AstTemporalExprPtr& ast) {
  TDB_ASSIGN_OR_RETURN(TemporalExprPtr expr,
                       CompileTemporalExpr(ast, {}, /*allow_vars=*/false));
  return expr->Eval({});
}

Result<std::optional<Period>> ResolveDmlValidClause(
    const std::optional<ValidClause>& clause) {
  if (!clause.has_value()) return std::optional<Period>();
  TDB_ASSIGN_OR_RETURN(Period from, EvalConstPeriod(clause->from));
  if (clause->at) {
    return std::optional<Period>(Period::At(from.begin()));
  }
  TDB_ASSIGN_OR_RETURN(Period to, EvalConstPeriod(clause->to));
  Chronon b = from.begin();
  Chronon e = to.begin();
  if (b >= e) {
    return Status::InvalidArgument(StringPrintf(
        "valid clause denotes an empty period [%s, %s)",
        b.ToString().c_str(), e.ToString().c_str()));
  }
  return std::optional<Period>(Period(b, e));
}

namespace {

// Calls `fn` on each conjunct of the where clause's top-level AND-chain.
void ForEachConjunct(const AstExprPtr& e,
                     const std::function<void(const AstExprPtr&)>& fn) {
  if (e == nullptr) return;
  if (e->kind == AstExprKind::kBinary && e->op == AstBinaryOp::kAnd) {
    ForEachConjunct(e->left, fn);
    ForEachConjunct(e->right, fn);
    return;
  }
  fn(e);
}

bool IsLiteral(const AstExprPtr& x) {
  return x->kind == AstExprKind::kIntLiteral ||
         x->kind == AstExprKind::kFloatLiteral ||
         x->kind == AstExprKind::kStringLiteral;
}

ValueType AttributeType(const std::vector<Participant>& participants,
                        std::pair<size_t, size_t> loc) {
  return participants[loc.first]
      .relation->schema()
      .at(loc.second)
      .type.value_type();
}

// A `var.attr <op> literal` conjunct, op one of = < <= > >=, as a range of
// the attribute's keys.
struct KeyConstraint {
  size_t participant;
  size_t attr;
  bool equality;
  KeyRange range;
};

// Matches a key constraint (the literal on either side).  The literal must
// denote a value of the attribute's type: no float literal on an int
// attribute, date literals parsed, string keys only for string attributes.
std::optional<KeyConstraint> MatchKeyConstraint(
    const AstExprPtr& e, const std::vector<Participant>& participants) {
  if (e->kind != AstExprKind::kBinary || !IsComparison(e->op) ||
      e->op == AstBinaryOp::kNe) {
    return {};
  }
  const AstExprPtr* column = &e->left;
  const AstExprPtr* literal = &e->right;
  const bool flipped =
      e->right->kind == AstExprKind::kColumn && IsLiteral(e->left);
  if (flipped) {
    std::swap(column, literal);
  } else if (e->left->kind != AstExprKind::kColumn || !IsLiteral(e->right)) {
    return {};
  }
  Result<std::pair<size_t, size_t>> loc = ResolveColumn(
      participants, (*column)->variable, (*column)->attribute);
  if (!loc.ok()) return {};
  const ValueType attr_type = AttributeType(participants, *loc);
  Value key;
  switch ((*literal)->kind) {
    case AstExprKind::kIntLiteral: {
      Result<Value> v = ParseNumericLiteral(**literal);
      if (!v.ok() || attr_type != ValueType::kInt) return {};
      key = *v;
      break;
    }
    case AstExprKind::kFloatLiteral: {
      Result<Value> v = ParseNumericLiteral(**literal);
      if (!v.ok() || attr_type != ValueType::kFloat) return {};
      key = *v;
      break;
    }
    case AstExprKind::kStringLiteral:
      if (attr_type == ValueType::kDate) {
        Result<Date> d = Date::Parse((*literal)->literal);
        if (!d.ok()) return {};
        key = Value(*d);
      } else if (attr_type == ValueType::kString) {
        key = Value((*literal)->literal);
      } else {
        return {};
      }
      break;
    default:
      return {};
  }
  const AstBinaryOp op = e->op;
  KeyRange range;
  if (op == AstBinaryOp::kEq) {
    range = KeyRange::Point(key);
  } else {
    // `x < lit` and `lit > x` bound x from above.
    const bool upper =
        (op == AstBinaryOp::kLt || op == AstBinaryOp::kLe) != flipped;
    const bool inclusive = op == AstBinaryOp::kLe || op == AstBinaryOp::kGe;
    (upper ? range.hi : range.lo) = KeyBound{std::move(key), inclusive};
  }
  return KeyConstraint{loc->first, loc->second, op == AstBinaryOp::kEq,
                       std::move(range)};
}

// Narrows `r` to the keys `with` also holds.
void Intersect(KeyRange* r, const KeyRange& with) {
  if (with.lo.has_value() &&
      (!r->lo.has_value() || r->lo->value < with.lo->value ||
       (!(with.lo->value < r->lo->value) && !with.lo->inclusive))) {
    r->lo = with.lo;
  }
  if (with.hi.has_value() &&
      (!r->hi.has_value() || with.hi->value < r->hi->value ||
       (!(r->hi->value < with.hi->value) && !with.hi->inclusive))) {
    r->hi = with.hi;
  }
}

// Records a `x.attr = y.attr` conjunct between two participants as a join
// key of the later one, when both attributes share one hashable type.
void CollectJoinKey(const AstExprPtr& e, BoundRetrieve* bound) {
  if (e->kind != AstExprKind::kBinary || e->op != AstBinaryOp::kEq ||
      e->left->kind != AstExprKind::kColumn ||
      e->right->kind != AstExprKind::kColumn) {
    return;
  }
  Result<std::pair<size_t, size_t>> l = ResolveColumn(
      bound->participants, e->left->variable, e->left->attribute);
  Result<std::pair<size_t, size_t>> r = ResolveColumn(
      bound->participants, e->right->variable, e->right->attribute);
  if (!l.ok() || !r.ok() || l->first == r->first) return;
  const ValueType type = AttributeType(bound->participants, *l);
  if (type != AttributeType(bound->participants, *r)) return;
  const auto [inner, outer] = l->first > r->first ? std::make_pair(*l, *r)
                                                  : std::make_pair(*r, *l);
  bound->join_keys[inner.first].push_back(
      BoundRetrieve::JoinKey{inner.second, outer.first, outer.second});
}

// Adds the ordinals of the participants `e` references to `out`.
void ReferencedParticipants(const AstExprPtr& e,
                            const std::vector<Participant>& participants,
                            std::set<size_t>* out) {
  if (e == nullptr) return;
  if (e->kind == AstExprKind::kColumn) {
    Result<std::pair<size_t, size_t>> loc =
        ResolveColumn(participants, e->variable, e->attribute);
    if (loc.ok()) out->insert(loc->first);
    return;
  }
  ReferencedParticipants(e->left, participants, out);
  ReferencedParticipants(e->right, participants, out);
}

// Whether evaluating `e` can never fail: comparisons between columns and
// literals whose types `Value::Compare` accepts (a stored value is null or
// of its attribute's type, and null compares with anything), joined by
// and/or/not.  Arithmetic can fail (division by zero), so it never does.
bool CannotFail(const AstExprPtr& e,
                const std::vector<Participant>& participants) {
  if (e->kind == AstExprKind::kNot) return CannotFail(e->left, participants);
  if (e->kind != AstExprKind::kBinary) return false;
  if (e->op == AstBinaryOp::kAnd || e->op == AstBinaryOp::kOr) {
    return CannotFail(e->left, participants) &&
           CannotFail(e->right, participants);
  }
  const AstExprPtr& l = e->left;
  const AstExprPtr& r = e->right;
  if (!IsComparison(e->op) ||
      (l->kind != AstExprKind::kColumn && !IsLiteral(l)) ||
      (r->kind != AstExprKind::kColumn && !IsLiteral(r))) {
    return false;
  }
  Result<ValueType> lt = InferType(l, participants);
  Result<ValueType> rt = InferType(r, participants);
  if (!lt.ok() || !rt.ok()) return false;
  const auto numeric = [](ValueType t) {
    return t == ValueType::kInt || t == ValueType::kFloat;
  };
  if (*lt == *rt || (numeric(*lt) && numeric(*rt))) return true;
  // CompileScalarExpr parses a string literal compared with a date.
  return (*lt == ValueType::kDate && r->kind == AstExprKind::kStringLiteral) ||
         (*rt == ValueType::kDate && l->kind == AstExprKind::kStringLiteral);
}

// Whether evaluating a temporal expression or predicate can never fail:
// only `begin of` / `end of` can, on an empty period.
bool CannotFail(const AstTemporalExprPtr& e) {
  if (e == nullptr) return true;
  return e->kind != AstTemporalExprKind::kBeginOf &&
         e->kind != AstTemporalExprKind::kEndOf && CannotFail(e->left) &&
         CannotFail(e->right);
}
bool CannotFail(const AstTemporalPredPtr& p) {
  return p == nullptr ||
         (CannotFail(p->left_expr) && CannotFail(p->right_expr) &&
          CannotFail(p->left_pred) && CannotFail(p->right_pred));
}

// Whether no top-level conjunct of `where` and nothing in `when` can fail.
// Only then may a plan run them on fewer tuple combinations than the nested
// loop: the statement must fail exactly as the nested loop does.
bool CannotFail(const AstExprPtr& where, const AstTemporalPredPtr& when,
                const std::vector<Participant>& participants) {
  bool safe = CannotFail(when);
  ForEachConjunct(where, [&](const AstExprPtr& c) {
    safe = safe && CannotFail(c, participants);
  });
  return safe;
}

// Compiles the conjunction of `conjuncts` over `p`'s own values.
Result<ExprPtr> CompileLocalFilter(const std::vector<AstExprPtr>& conjuncts,
                                   const Participant& p) {
  const std::vector<Participant> alone{Participant{p.name, p.relation, 0}};
  ExprPtr filter;
  for (const AstExprPtr& c : conjuncts) {
    TDB_ASSIGN_OR_RETURN(ExprPtr e, CompileScalarExpr(c, alone));
    filter = filter == nullptr ? std::move(e)
                               : MakeLogical(LogicalOp::kAnd,
                                             std::move(filter), std::move(e));
  }
  return filter;
}

}  // namespace

Result<BoundRetrieve> AnalyzeRetrieve(const RetrieveStmt& stmt,
                                      const AnalyzerContext& ctx) {
  if (stmt.targets.empty()) {
    return Status::InvalidArgument("retrieve needs a target list");
  }

  // 1. Collect participants in order of first appearance.
  ParticipantCollector collector(ctx);
  for (const TargetItem& t : stmt.targets) {
    TDB_RETURN_IF_ERROR(collector.WalkExpr(t.expr));
  }
  TDB_RETURN_IF_ERROR(collector.WalkExpr(stmt.where));
  TDB_RETURN_IF_ERROR(collector.WalkTemporalPred(stmt.when));
  if (stmt.valid.has_value()) {
    TDB_RETURN_IF_ERROR(collector.WalkTemporalExpr(stmt.valid->from));
    TDB_RETURN_IF_ERROR(collector.WalkTemporalExpr(stmt.valid->to));
  }
  BoundRetrieve bound;
  TDB_ASSIGN_OR_RETURN(bound.participants, collector.Build());
  if (bound.participants.empty()) {
    return Status::InvalidArgument(
        "retrieve references no relation (constant-only queries are not "
        "supported)");
  }
  for (const Participant& p : bound.participants) {
    bound.total_arity += p.relation->schema().size();
  }

  // 2. Clause legality per the taxonomy (Figure 10).
  const bool wants_valid = stmt.when != nullptr || stmt.valid.has_value();
  const bool wants_asof = stmt.as_of.has_value();
  for (const Participant& p : bound.participants) {
    TemporalClass cls = p.relation->temporal_class();
    if (wants_valid && !SupportsValidTime(cls)) {
      return Status::NotSupported(StringPrintf(
          "historical constructs ('when'/'valid') require valid time, but "
          "relation '%s' is %s",
          p.relation->info().name.c_str(),
          std::string(TemporalClassName(cls)).c_str()));
    }
    if (wants_asof && !SupportsTransactionTime(cls)) {
      return Status::NotSupported(StringPrintf(
          "rollback ('as of') requires transaction time, but relation '%s' "
          "is %s",
          p.relation->info().name.c_str(),
          std::string(TemporalClassName(cls)).c_str()));
    }
  }

  // 3. Aggregation: detect and validate placement.
  for (const TargetItem& t : stmt.targets) {
    if (t.expr->ContainsAggregate()) {
      if (t.expr->kind != AstExprKind::kAggregate) {
        return Status::NotSupported(
            "aggregates must be whole target-list entries (no arithmetic "
            "over aggregates yet)");
      }
      bound.has_aggregates = true;
    }
  }
  if (stmt.where != nullptr && stmt.where->ContainsAggregate()) {
    return Status::NotSupported("aggregates are not allowed in where");
  }
  if (bound.has_aggregates && stmt.valid.has_value()) {
    return Status::NotSupported(
        "a valid clause cannot be combined with aggregation (aggregation "
        "collapses time; slice first, then aggregate)");
  }

  // 4. Result class: meet of the participants' derived classes; aggregation
  // collapses to static.
  TemporalClass result = DerivedClass(bound.participants[0].relation->temporal_class());
  for (size_t i = 1; i < bound.participants.size(); ++i) {
    result = MeetClass(
        result, DerivedClass(bound.participants[i].relation->temporal_class()));
  }
  if (bound.has_aggregates) result = TemporalClass::kStatic;
  bound.result_class = result;
  bound.result_model = (stmt.valid.has_value() && stmt.valid->at)
                           ? TemporalDataModel::kEvent
                           : TemporalDataModel::kInterval;

  // 5. Compile targets (for aggregates: the input expression).
  for (const TargetItem& t : stmt.targets) {
    BoundRetrieve::AggTarget agg;
    const AstExprPtr& value_expr =
        t.expr->kind == AstExprKind::kAggregate ? t.expr->left : t.expr;
    if (t.expr->kind == AstExprKind::kAggregate) {
      agg.is_aggregate = true;
      switch (t.expr->agg) {
        case AstAggFunc::kCount:
          agg.func = AggFunc::kCount;
          break;
        case AstAggFunc::kSum:
          agg.func = AggFunc::kSum;
          break;
        case AstAggFunc::kAvg:
          agg.func = AggFunc::kAvg;
          break;
        case AstAggFunc::kMin:
          agg.func = AggFunc::kMin;
          break;
        case AstAggFunc::kMax:
          agg.func = AggFunc::kMax;
          break;
        case AstAggFunc::kAny:
          agg.func = AggFunc::kAny;
          break;
      }
    }
    bound.target_aggs.push_back(agg);
    TDB_ASSIGN_OR_RETURN(ExprPtr expr,
                         CompileScalarExpr(value_expr, bound.participants));
    TDB_ASSIGN_OR_RETURN(ValueType vt,
                         InferType(value_expr, bound.participants));
    bound.target_exprs.push_back(std::move(expr));
    std::optional<BoundRetrieve::ColumnRef> column;
    if (value_expr->kind == AstExprKind::kColumn) {
      TDB_ASSIGN_OR_RETURN(auto loc,
                           ResolveColumn(bound.participants,
                                         value_expr->variable,
                                         value_expr->attribute));
      column = BoundRetrieve::ColumnRef{loc.first, loc.second};
    }
    bound.target_columns.push_back(column);
    bound.target_names.push_back(t.name);
    bound.target_types.push_back(vt);
    // Track which participants feed the target list (they determine the
    // default temporal periods of the result).
    std::function<void(const AstExprPtr&)> mark = [&](const AstExprPtr& e) {
      if (e == nullptr) return;
      if (e->kind == AstExprKind::kColumn) {
        Result<std::pair<size_t, size_t>> loc =
            ResolveColumn(bound.participants, e->variable, e->attribute);
        if (loc.ok()) {
          size_t ord = loc->first;
          bool seen = false;
          for (size_t existing : bound.target_vars) {
            if (existing == ord) seen = true;
          }
          if (!seen) bound.target_vars.push_back(ord);
        }
      }
      mark(e->left);
      mark(e->right);
    };
    mark(t.expr);
  }
  if (bound.target_vars.empty()) {
    // Constant targets: every participant contributes to the default
    // periods.
    for (size_t i = 0; i < bound.participants.size(); ++i) {
      bound.target_vars.push_back(i);
    }
  }

  // 5. Compile clauses.
  for (size_t i = 0; i < bound.participants.size(); ++i) {
    bound.probe_keys.push_back(
        ProbeKey(stmt.where, stmt.when, bound.participants, i));
  }
  if (stmt.where != nullptr) {
    TDB_ASSIGN_OR_RETURN(bound.where,
                         CompileScalarExpr(stmt.where, bound.participants));
    // Join planning runs only for joins (single-variable reads keep their
    // plain access path), and only when nothing can fail.
    const size_t n = bound.participants.size();
    const bool plan =
        n > 1 && CannotFail(stmt.where, stmt.when, bound.participants);
    std::vector<std::vector<AstExprPtr>> local(plan ? n : 0);
    if (plan) bound.join_keys.resize(n);
    ForEachConjunct(stmt.where, [&](const AstExprPtr& c) {
      if (!plan) return;
      CollectJoinKey(c, &bound);
      std::set<size_t> vars;
      ReferencedParticipants(c, bound.participants, &vars);
      if (vars.size() == 1) local[*vars.begin()].push_back(c);
    });
    for (size_t i = 0; i < local.size(); ++i) {
      TDB_ASSIGN_OR_RETURN(ExprPtr filter,
                           CompileLocalFilter(local[i], bound.participants[i]));
      bound.local_filters.push_back(std::move(filter));
    }
  }
  if (stmt.when != nullptr) {
    TDB_ASSIGN_OR_RETURN(bound.when,
                         CompileTemporalPred(stmt.when, bound.participants));
  }
  if (stmt.valid.has_value()) {
    bound.valid_at = stmt.valid->at;
    TDB_ASSIGN_OR_RETURN(
        bound.valid_from,
        CompileTemporalExpr(stmt.valid->from, bound.participants));
    if (!stmt.valid->at) {
      TDB_ASSIGN_OR_RETURN(
          bound.valid_to,
          CompileTemporalExpr(stmt.valid->to, bound.participants));
    }
  }
  if (stmt.as_of.has_value()) {
    // As-of expressions must be constant (they select the database state
    // before any tuples are bound).
    TDB_ASSIGN_OR_RETURN(bound.asof_at,
                         CompileTemporalExpr(stmt.as_of->at,
                                             bound.participants,
                                             /*allow_vars=*/false));
    if (stmt.as_of->through != nullptr) {
      TDB_ASSIGN_OR_RETURN(bound.asof_through,
                           CompileTemporalExpr(stmt.as_of->through,
                                               bound.participants,
                                               /*allow_vars=*/false));
    }
  }
  bound.into = stmt.into;
  return bound;
}

std::optional<KeyRanges> ProbeKey(
    const AstExprPtr& where, const AstTemporalPredPtr& when,
    const std::vector<Participant>& participants, size_t p) {
  if (!CannotFail(where, when, participants)) return std::nullopt;
  std::vector<KeyConstraint> keys;
  ForEachConjunct(where, [&](const AstExprPtr& c) {
    std::optional<KeyConstraint> k = MatchKeyConstraint(c, participants);
    if (k.has_value() && k->participant == p &&
        participants[p].relation->store()->AttributeIndex(k->attr) !=
            nullptr) {
      keys.push_back(std::move(*k));
    }
  });
  if (keys.empty()) return std::nullopt;
  auto chosen = std::find_if(keys.begin(), keys.end(),
                             [](const KeyConstraint& k) { return k.equality; });
  if (chosen == keys.end()) chosen = keys.begin();
  // The B+-tree orders keys as `Value::Compare` does, so the walk finds
  // exactly the stored values the conjuncts admit.
  KeyRange range;
  for (const KeyConstraint& k : keys) {
    if (k.attr == chosen->attr) Intersect(&range, k.range);
  }
  return KeyRanges{chosen->attr, {std::move(range)}};
}

}  // namespace tquel
}  // namespace temporadb
