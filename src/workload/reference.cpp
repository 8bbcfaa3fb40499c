#include "workload/reference.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <memory>
#include <set>
#include <tuple>
#include <type_traits>

#include "common/date.h"
#include "common/strings.h"
#include "tquel/parser.h"

namespace temporadb {
namespace reference {
namespace {

using tquel::AstAggFunc;
using tquel::AstBinaryOp;
using tquel::AstExprKind;
using tquel::AstExprPtr;
using tquel::AstTemporalExprKind;
using tquel::AstTemporalExprPtr;
using tquel::AstTemporalPredKind;
using tquel::AstTemporalPredPtr;

// The facts bound to a statement's range variables, in participant order.
using Binding = std::vector<const Fact*>;

// A statement's range variables, in order of first appearance.
struct Scope {
  std::vector<std::string> names;
  std::vector<const Relation*> relations;
};

// ---------------------------------------------------------------------------
// Scalar expressions, with names resolved against a scope
// ---------------------------------------------------------------------------

struct Expr {
  enum class Op { kLiteral, kColumn, kBinary, kNot } op = Op::kLiteral;
  Value value;                            // kLiteral.
  size_t var = 0, attr = 0;               // kColumn.
  AstBinaryOp binary = AstBinaryOp::kEq;  // kBinary.
  std::shared_ptr<Expr> left, right;
};
using ExprPtr = std::shared_ptr<Expr>;

// The six comparison operators lead AstBinaryOp.
bool IsComparison(AstBinaryOp op) { return op <= AstBinaryOp::kGe; }

// (variable, attribute) of `var.attr`; a bare `attr` must name exactly one.
Result<std::pair<size_t, size_t>> ResolveColumn(const Scope& scope,
                                                const std::string& var,
                                                const std::string& attr) {
  std::optional<std::pair<size_t, size_t>> found;
  for (size_t v = 0; v < scope.names.size(); ++v) {
    if (!var.empty() && scope.names[v] != var) continue;
    const auto& attrs = scope.relations[v]->attributes;
    for (size_t a = 0; a < attrs.size(); ++a) {
      if (attrs[a].first != attr) continue;
      if (found.has_value()) {
        return Status::InvalidArgument("ambiguous attribute '" + attr + "'");
      }
      found = std::make_pair(v, a);
    }
  }
  if (!found.has_value()) {
    return Status::InvalidArgument("unknown attribute '" + attr + "'");
  }
  return *found;
}

ExprPtr Literal(Value v) {
  auto e = std::make_shared<Expr>();
  e->value = std::move(v);
  return e;
}

Result<ExprPtr> Bind(const AstExprPtr& ast, const Scope& scope,
                     bool allow_columns = true) {
  const std::string& text = ast->literal;
  switch (ast->kind) {
    case AstExprKind::kIntLiteral: {
      int64_t v = 0;
      if (std::from_chars(text.data(), text.data() + text.size(), v).ec !=
          std::errc()) {
        return Status::ParseError("bad integer literal: " + text);
      }
      return Literal(Value(v));
    }
    case AstExprKind::kFloatLiteral: {
      char* end = nullptr;
      const double d = std::strtod(text.c_str(), &end);
      if (end != text.c_str() + text.size()) {
        return Status::ParseError("bad float literal: " + text);
      }
      return Literal(Value(d));
    }
    case AstExprKind::kStringLiteral:
      return Literal(Value(text));
    case AstExprKind::kAggregate:
      return Status::NotSupported("an aggregate must be a whole target");
    default:
      break;
  }
  auto e = std::make_shared<Expr>();
  if (ast->kind == AstExprKind::kColumn) {
    if (!allow_columns) {
      return Status::InvalidArgument("no attribute allowed here: " +
                                     ast->ToString());
    }
    TDB_ASSIGN_OR_RETURN(auto loc,
                         ResolveColumn(scope, ast->variable, ast->attribute));
    e->op = Expr::Op::kColumn;
    std::tie(e->var, e->attr) = loc;
    return e;
  }
  e->op = ast->kind == AstExprKind::kNot ? Expr::Op::kNot : Expr::Op::kBinary;
  e->binary = ast->op;
  TDB_ASSIGN_OR_RETURN(e->left, Bind(ast->left, scope, allow_columns));
  if (e->op == Expr::Op::kNot) return e;
  TDB_ASSIGN_OR_RETURN(e->right, Bind(ast->right, scope, allow_columns));
  if (!IsComparison(ast->op)) return e;
  // A string literal compared with a date attribute denotes a date.
  const auto is_date = [&](const ExprPtr& x) {
    return x->op == Expr::Op::kColumn &&
           scope.relations[x->var]->attributes[x->attr].second ==
               ValueType::kDate;
  };
  for (auto [column, literal, side] :
       {std::tuple(e->left, ast->right, &e->right),
        std::tuple(e->right, ast->left, &e->left)}) {
    if (is_date(column) && literal->kind == AstExprKind::kStringLiteral) {
      TDB_ASSIGN_OR_RETURN(Date d, Date::Parse(literal->literal));
      *side = Literal(Value(d));
      break;
    }
  }
  return e;
}

template <typename T>
Result<Value> Arith(AstBinaryOp op, T a, T b) {
  if ((op == AstBinaryOp::kDiv || op == AstBinaryOp::kMod) && b == T{0}) {
    return Status::InvalidArgument("division by zero");
  }
  switch (op) {
    case AstBinaryOp::kAdd:
      return Value(a + b);
    case AstBinaryOp::kSub:
      return Value(a - b);
    case AstBinaryOp::kMul:
      return Value(a * b);
    case AstBinaryOp::kDiv:
      return Value(a / b);
    default:
      if constexpr (std::is_integral_v<T>) {
        return Value(a % b);
      } else {
        return Value(std::fmod(a, b));
      }
  }
}

Result<Value> Eval(const Expr& e, const Binding& binding) {
  if (e.op == Expr::Op::kLiteral) return e.value;
  if (e.op == Expr::Op::kColumn) return binding[e.var]->values[e.attr];
  TDB_ASSIGN_OR_RETURN(Value l, Eval(*e.left, binding));
  if (e.op == Expr::Op::kNot) {
    if (l.type() != ValueType::kBool) {
      return Status::InvalidArgument("'not' of a non-boolean");
    }
    return Value(!l.AsBool());
  }
  TDB_ASSIGN_OR_RETURN(Value r, Eval(*e.right, binding));
  const AstBinaryOp op = e.binary;
  if (op == AstBinaryOp::kAnd || op == AstBinaryOp::kOr) {
    if (l.type() != ValueType::kBool || r.type() != ValueType::kBool) {
      return Status::InvalidArgument("logical operand is not boolean");
    }
    return Value(op == AstBinaryOp::kAnd ? l.AsBool() && r.AsBool()
                                         : l.AsBool() || r.AsBool());
  }
  if (!IsComparison(op)) {
    if (l.type() == ValueType::kInt && r.type() == ValueType::kInt) {
      return Arith(op, l.AsInt(), r.AsInt());
    }
    TDB_ASSIGN_OR_RETURN(double a, l.AsNumeric());
    TDB_ASSIGN_OR_RETURN(double b, r.AsNumeric());
    return Arith(op, a, b);
  }
  TDB_ASSIGN_OR_RETURN(int c, Value::Compare(l, r));
  return Value(op == AstBinaryOp::kEq   ? c == 0
               : op == AstBinaryOp::kNe ? c != 0
               : op == AstBinaryOp::kLt ? c < 0
               : op == AstBinaryOp::kLe ? c <= 0
               : op == AstBinaryOp::kGt ? c > 0
                                        : c >= 0);
}

Result<bool> Test(const Expr& e, const Binding& binding) {
  TDB_ASSIGN_OR_RETURN(Value v, Eval(e, binding));
  if (v.type() != ValueType::kBool) {
    return Status::InvalidArgument("predicate did not evaluate to a boolean");
  }
  return v.AsBool();
}

void ReferencedVars(const Expr& e, std::set<size_t>* out) {
  if (e.op == Expr::Op::kColumn) out->insert(e.var);
  if (e.left != nullptr) ReferencedVars(*e.left, out);
  if (e.right != nullptr) ReferencedVars(*e.right, out);
}

// The conjuncts of a where clause's top-level `and` chain.
void Conjuncts(const AstExprPtr& e, std::vector<AstExprPtr>* out) {
  if (e == nullptr) return;
  if (e->kind == AstExprKind::kBinary && e->op == AstBinaryOp::kAnd) {
    Conjuncts(e->left, out);
    Conjuncts(e->right, out);
    return;
  }
  out->push_back(e);
}

// ---------------------------------------------------------------------------
// Temporal expressions and predicates, over the bound facts' valid periods
// ---------------------------------------------------------------------------

Result<Period> EvalPeriod(const AstTemporalExprPtr& e, const Scope& scope,
                          const Binding& binding) {
  switch (e->kind) {
    case AstTemporalExprKind::kVar: {
      const auto it =
          std::find(scope.names.begin(), scope.names.end(), e->name);
      if (it == scope.names.end() || binding.empty()) {
        return Status::InvalidArgument("range variable '" + e->name +
                                       "' is not allowed here");
      }
      return binding[it - scope.names.begin()]->valid;
    }
    case AstTemporalExprKind::kDate: {
      // A date is the chronon it names; "forever" an empty period there.
      TDB_ASSIGN_OR_RETURN(Date d, Date::Parse(e->name));
      return d.IsForever() ? Period(Chronon::Forever(), Chronon::Forever())
                           : Period::At(d.chronon());
    }
    case AstTemporalExprKind::kBeginOf:
    case AstTemporalExprKind::kEndOf: {
      TDB_ASSIGN_OR_RETURN(Period p, EvalPeriod(e->left, scope, binding));
      if (p.IsEmpty()) {
        return Status::InvalidArgument("endpoint of an empty period");
      }
      return Period::At(e->kind == AstTemporalExprKind::kBeginOf ? p.begin()
                                                                 : p.end());
    }
    default: {
      TDB_ASSIGN_OR_RETURN(Period l, EvalPeriod(e->left, scope, binding));
      TDB_ASSIGN_OR_RETURN(Period r, EvalPeriod(e->right, scope, binding));
      return e->kind == AstTemporalExprKind::kOverlap ? l.Intersect(r)
                                                      : l.Extend(r);
    }
  }
}

Result<bool> EvalPred(const AstTemporalPredPtr& p, const Scope& scope,
                      const Binding& binding) {
  if (p->kind == AstTemporalPredKind::kAnd ||
      p->kind == AstTemporalPredKind::kOr) {
    TDB_ASSIGN_OR_RETURN(bool l, EvalPred(p->left_pred, scope, binding));
    if (l == (p->kind == AstTemporalPredKind::kOr)) return l;
    return EvalPred(p->right_pred, scope, binding);
  }
  if (p->kind == AstTemporalPredKind::kNot) {
    TDB_ASSIGN_OR_RETURN(bool v, EvalPred(p->left_pred, scope, binding));
    return !v;
  }
  TDB_ASSIGN_OR_RETURN(Period l, EvalPeriod(p->left_expr, scope, binding));
  TDB_ASSIGN_OR_RETURN(Period r, EvalPeriod(p->right_expr, scope, binding));
  if (p->kind == AstTemporalPredKind::kPrecede) return l.Precedes(r);
  if (p->kind == AstTemporalPredKind::kOverlap) return l.Overlaps(r);
  return l == r;
}

Result<Period> ConstPeriod(const AstTemporalExprPtr& ast) {
  return EvalPeriod(ast, Scope{}, {});
}

// A DML `valid` clause: `valid at e` names one chronon, `valid from a to b`
// the non-empty period [a, b).
Result<std::optional<Period>> DmlValid(
    const std::optional<tquel::ValidClause>& clause) {
  if (!clause.has_value()) return std::optional<Period>();
  TDB_ASSIGN_OR_RETURN(Period from, ConstPeriod(clause->from));
  if (clause->at) return std::optional<Period>(Period::At(from.begin()));
  TDB_ASSIGN_OR_RETURN(Period to, ConstPeriod(clause->to));
  if (from.begin() >= to.begin()) {
    return Status::InvalidArgument("valid clause denotes an empty period");
  }
  return std::optional<Period>(Period(from.begin(), to.begin()));
}

// ---------------------------------------------------------------------------
// Attribute types, stored values and the DML rewrite
// ---------------------------------------------------------------------------

// The type names of `create`, with their aliases (Quel's width-qualified
// iN / fN / cN are left to the engine's parser).
Result<ValueType> ParseType(std::string_view text) {
  static const std::map<std::string, ValueType> kNames = {
      {"int", ValueType::kInt},       {"integer", ValueType::kInt},
      {"float", ValueType::kFloat},   {"double", ValueType::kFloat},
      {"string", ValueType::kString}, {"text", ValueType::kString},
      {"c", ValueType::kString},      {"date", ValueType::kDate},
      {"bool", ValueType::kBool},     {"boolean", ValueType::kBool}};
  const auto it = kNames.find(ToLowerAscii(Trim(text)));
  if (it == kNames.end()) {
    return Status::InvalidArgument("unknown type name: " + std::string(text));
  }
  return it->second;
}

// A value as an attribute of `type` stores it: a string names a date, an
// int widens to a float, null fits anywhere.
Result<Value> Store(ValueType type, Value v) {
  if (type == ValueType::kDate && v.type() == ValueType::kString) {
    TDB_ASSIGN_OR_RETURN(Date d, Date::Parse(v.AsString()));
    return Value(d);
  }
  if (v.is_null() || v.type() == type) return v;
  if (type == ValueType::kFloat && v.type() == ValueType::kInt) {
    return Value(static_cast<double>(v.AsInt()));
  }
  return Status::InvalidArgument("cannot store a " +
                                 std::string(ValueTypeName(v.type())) +
                                 " in a " + std::string(ValueTypeName(type)));
}

// The valid period a DML statement covers: without valid time, none (every
// fact); with it, the clause's, else from now on (an event: now).
Result<std::optional<Period>> Window(const Relation& rel,
                                     std::optional<Period> valid,
                                     Chronon now) {
  if (!SupportsValidTime(rel.kind)) {
    if (valid.has_value()) {
      return Status::NotSupported("no valid time, so no 'valid' clause");
    }
    return valid;
  }
  const bool event = rel.model == TemporalDataModel::kEvent;
  if (!valid.has_value()) {
    return std::optional<Period>(event ? Period::At(now) : Period::From(now));
  }
  if (valid->IsEmpty() || (event && !valid->IsInstant())) {
    return Status::InvalidArgument(
        "empty valid period, or an event's spanning more than one chronon");
  }
  return valid;
}

// Drops the facts marked in `drop` and adds `added`.
void Rewrite(Relation* rel, const std::vector<bool>& drop,
             std::vector<Fact> added) {
  size_t kept = 0;
  for (size_t i = 0; i < rel->facts.size(); ++i) {
    if (drop[i]) continue;
    if (kept != i) rel->facts[kept] = std::move(rel->facts[i]);
    ++kept;
  }
  rel->facts.resize(kept);
  for (Fact& f : added) rel->facts.push_back(std::move(f));
}

// The facts a DML statement selects: the current ones on a kind with
// transaction time, those overlapping `window` on one with valid time, then
// those satisfying `when` and `where`.
Result<std::vector<size_t>> Select(const Relation& rel, const Scope& scope,
                                   std::optional<Period> window,
                                   const AstTemporalPredPtr& when,
                                   const ExprPtr& where) {
  std::vector<size_t> out;
  const bool current_only = SupportsTransactionTime(rel.kind);
  for (size_t i = 0; i < rel.facts.size(); ++i) {
    const Fact& f = rel.facts[i];
    if (current_only && !f.txn.end().IsForever()) continue;
    if (window.has_value() && !f.valid.Overlaps(*window)) continue;
    const Binding binding{&f};
    bool keep = true;
    if (when != nullptr) {
      TDB_ASSIGN_OR_RETURN(keep, EvalPred(when, scope, binding));
    }
    if (keep && where != nullptr) {
      TDB_ASSIGN_OR_RETURN(keep, Test(*where, binding));
    }
    if (keep) out.push_back(i);
  }
  return out;
}

// Groups the raw rows of an aggregate retrieve by their plain targets and
// folds each aggregate target over its group (a static result).  With no
// plain target an empty input still has its one group.
Result<std::vector<Fact>> Aggregate(const std::vector<AstExprPtr>& targets,
                                    const std::vector<Fact>& raw) {
  struct Fold {
    int64_t count = 0;
    double sum = 0;
    bool float_sum = false;
    Value min, max, any;
  };
  std::vector<bool> plain;
  for (const AstExprPtr& t : targets) {
    plain.push_back(t->kind != AstExprKind::kAggregate);
  }
  std::map<std::vector<Value>, std::vector<Fold>> groups;
  if (std::none_of(plain.begin(), plain.end(), [](bool p) { return p; })) {
    groups[{}].resize(targets.size());
  }
  for (const Fact& row : raw) {
    std::vector<Value> key;
    for (size_t i = 0; i < targets.size(); ++i) {
      if (plain[i]) key.push_back(row.values[i]);
    }
    std::vector<Fold>& folds = groups[key];
    folds.resize(targets.size());
    for (size_t i = 0; i < targets.size(); ++i) {
      Fold& f = folds[i];
      const Value& v = row.values[i];
      ++f.count;
      if (plain[i] || targets[i]->agg == AstAggFunc::kCount) continue;
      if (targets[i]->agg == AstAggFunc::kSum ||
          targets[i]->agg == AstAggFunc::kAvg) {
        TDB_ASSIGN_OR_RETURN(double d, v.AsNumeric());
        f.sum += d;
        f.float_sum = f.float_sum || v.type() == ValueType::kFloat;
      }
      if (f.min.is_null() || v < f.min) f.min = v;
      if (f.max.is_null() || f.max < v) f.max = v;
      if (f.any.is_null()) f.any = v;
    }
  }
  std::vector<Fact> out;
  for (const auto& [key, folds] : groups) {
    Fact row;
    for (size_t i = 0, k = 0; i < targets.size(); ++i) {
      const Fold& f = folds[i];
      const bool some = f.count > 0;
      switch (plain[i] ? AstAggFunc::kAny : targets[i]->agg) {
        case AstAggFunc::kCount:
          row.values.push_back(Value(f.count));
          break;
        case AstAggFunc::kSum:
          row.values.push_back(!some         ? Value()
                               : f.float_sum ? Value(f.sum)
                                   : Value(static_cast<int64_t>(f.sum)));
          break;
        case AstAggFunc::kAvg:
          row.values.push_back(
              some ? Value(f.sum / static_cast<double>(f.count)) : Value());
          break;
        case AstAggFunc::kMin:
          row.values.push_back(f.min);
          break;
        case AstAggFunc::kMax:
          row.values.push_back(f.max);
          break;
        case AstAggFunc::kAny:
          row.values.push_back(plain[i] ? key[k++] : f.any);
          break;
      }
    }
    out.push_back(std::move(row));
  }
  return out;
}

bool FactLess(const Fact& a, const Fact& b) {
  if (a.values != b.values) return a.values < b.values;
  const auto key = [](const Fact& f) {
    return std::make_tuple(f.valid.begin(), f.valid.end(), f.txn.begin(),
                           f.txn.end());
  };
  return key(a) < key(b);
}

}  // namespace

bool SameFacts(std::vector<Fact> a, std::vector<Fact> b) {
  if (a.size() != b.size()) return false;
  std::sort(a.begin(), a.end(), FactLess);
  std::sort(b.begin(), b.end(), FactLess);
  return a == b;
}

std::string FactToString(const Fact& fact) {
  std::string out = "(";
  for (size_t i = 0; i < fact.values.size(); ++i) {
    out += (i > 0 ? ", " : "") + fact.values[i].ToString();
  }
  return out + ") v" + fact.valid.ToString() + " t" + fact.txn.ToString();
}

const Relation* ReferenceModel::Find(const std::string& name) const {
  const auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : &it->second;
}

Result<Answer> ReferenceModel::Execute(std::string_view source, Chronon now) {
  TDB_ASSIGN_OR_RETURN(std::vector<tquel::Statement> stmts,
                       tquel::Parse(source));
  Answer last;
  for (const tquel::Statement& stmt : stmts) {
    TDB_ASSIGN_OR_RETURN(last, Execute(stmt, now));
  }
  return last;
}

Result<Answer> ReferenceModel::Execute(const tquel::Statement& stmt,
                                       Chronon now) {
  // Transaction time never runs backwards.
  now_ = std::max(now_, now);
  if (const auto* s = std::get_if<tquel::CreateStmt>(&stmt)) return Create(*s);
  if (const auto* s = std::get_if<tquel::RetrieveStmt>(&stmt)) {
    return Retrieve(*s);
  }
  if (const auto* s = std::get_if<tquel::AppendStmt>(&stmt)) return Append(*s);
  if (const auto* s = std::get_if<tquel::DeleteStmt>(&stmt)) {
    return Update(s->variable, s->where, s->when, s->valid, nullptr);
  }
  if (const auto* s = std::get_if<tquel::ReplaceStmt>(&stmt)) {
    return Update(s->variable, s->where, s->when, s->valid, &s->assignments);
  }
  if (const auto* s = std::get_if<tquel::CorrectStmt>(&stmt)) {
    return Update(s->variable, s->where, nullptr, {}, nullptr, true);
  }
  Answer none;
  if (const auto* s = std::get_if<tquel::DestroyStmt>(&stmt)) {
    if (relations_.erase(s->name) == 0) return Status::NotFound(s->name);
    std::erase_if(ranges_, [&](const auto& r) { return r.second == s->name; });
    return none;
  }
  if (const auto* s = std::get_if<tquel::RangeStmt>(&stmt)) {
    if (Find(s->relation) == nullptr) return Status::NotFound(s->relation);
    ranges_[s->variable] = s->relation;
    return none;
  }
  if (const auto* s = std::get_if<tquel::ShowStmt>(&stmt)) {
    const Relation* rel = Find(s->relation);
    if (rel == nullptr) return Status::NotFound(s->relation);
    for (const auto& attr : rel->attributes) none.names.push_back(attr.first);
    none.result_class = rel->kind;
    none.rows = rel->facts;
    return none;
  }
  if (const auto* s = std::get_if<tquel::CreateIndexStmt>(&stmt)) {
    // An index changes no answer; only its names must exist.
    const Relation* rel = Find(s->relation);
    if (rel == nullptr || !ResolveColumn({{""}, {rel}}, "", s->attribute).ok()) {
      return Status::InvalidArgument("cannot index " + s->attribute);
    }
    return none;
  }
  return Status::NotSupported("transaction control is not modelled");
}

Result<Answer> ReferenceModel::Create(const tquel::CreateStmt& s) {
  if (s.name.empty() || relations_.contains(s.name)) {
    return Status::AlreadyExists("relation '" + s.name + "'");
  }
  Relation rel;
  rel.kind = s.temporal_class;
  rel.model = s.data_model;
  std::set<std::string> seen;
  for (const auto& [name, type_name] : s.attributes) {
    TDB_ASSIGN_OR_RETURN(ValueType type, ParseType(type_name));
    if (name.empty() || !seen.insert(name).second) {
      return Status::InvalidArgument("bad attribute name '" + name + "'");
    }
    rel.attributes.emplace_back(name, type);
  }
  if (rel.attributes.empty() || (rel.model == TemporalDataModel::kEvent &&
                                 !SupportsValidTime(rel.kind))) {
    return Status::InvalidArgument(
        "a relation needs an attribute, and an event relation valid time");
  }
  relations_.emplace(s.name, std::move(rel));
  return Answer{};
}

Result<Answer> ReferenceModel::Retrieve(const tquel::RetrieveStmt& s) const {
  // 1. The participants: range variables in order of first appearance.  A
  // bare attribute names a variable already in play, else the one range
  // whose relation has it.
  Scope scope;
  auto add = [&](const std::string& var) -> Status {
    const auto range = ranges_.find(var);
    if (range == ranges_.end() || Find(range->second) == nullptr) {
      return Status::InvalidArgument("unknown range variable '" + var + "'");
    }
    if (std::find(scope.names.begin(), scope.names.end(), var) ==
        scope.names.end()) {
      scope.names.push_back(var);
      scope.relations.push_back(Find(range->second));
    }
    return Status::OK();
  };
  auto bare = [&](const std::string& attr) -> Status {
    if (ResolveColumn(scope, "", attr).ok()) return Status::OK();
    std::string found;
    for (const auto& [var, name] : ranges_) {
      const Relation* rel = Find(name);
      if (rel == nullptr || !ResolveColumn({{var}, {rel}}, "", attr).ok()) {
        continue;
      }
      if (!found.empty() && ranges_.at(found) != name) {
        return Status::InvalidArgument("ambiguous attribute '" + attr + "'");
      }
      if (found.empty()) found = var;
    }
    if (found.empty()) return Status::InvalidArgument("unknown " + attr);
    return add(found);
  };
  std::function<Status(const AstExprPtr&)> walk =
      [&](const AstExprPtr& e) -> Status {
    if (e == nullptr) return Status::OK();
    if (e->kind == AstExprKind::kColumn) {
      return e->variable.empty() ? bare(e->attribute) : add(e->variable);
    }
    TDB_RETURN_IF_ERROR(walk(e->left));
    return walk(e->right);
  };
  std::function<Status(const AstTemporalExprPtr&)> walk_period =
      [&](const AstTemporalExprPtr& e) -> Status {
    if (e == nullptr) return Status::OK();
    if (e->kind == AstTemporalExprKind::kVar) return add(e->name);
    TDB_RETURN_IF_ERROR(walk_period(e->left));
    return walk_period(e->right);
  };
  std::function<Status(const AstTemporalPredPtr&)> walk_pred =
      [&](const AstTemporalPredPtr& p) -> Status {
    if (p == nullptr) return Status::OK();
    TDB_RETURN_IF_ERROR(walk_period(p->left_expr));
    TDB_RETURN_IF_ERROR(walk_period(p->right_expr));
    TDB_RETURN_IF_ERROR(walk_pred(p->left_pred));
    return walk_pred(p->right_pred);
  };
  for (const tquel::TargetItem& t : s.targets) TDB_RETURN_IF_ERROR(walk(t.expr));
  TDB_RETURN_IF_ERROR(walk(s.where));
  TDB_RETURN_IF_ERROR(walk_pred(s.when));
  if (s.valid.has_value()) {
    TDB_RETURN_IF_ERROR(walk_period(s.valid->from));
    TDB_RETURN_IF_ERROR(walk_period(s.valid->to));
  }
  const size_t n = scope.names.size();
  if (n == 0) return Status::InvalidArgument("retrieve names no relation");

  // 2. The clause matrix: `when` and `valid` need valid time, `as of`
  // transaction time, in every participant.
  for (const Relation* rel : scope.relations) {
    if (((s.when != nullptr || s.valid.has_value()) &&
         !SupportsValidTime(rel->kind)) ||
        (s.as_of.has_value() && !SupportsTransactionTime(rel->kind))) {
      return Status::NotSupported("clause needs a time the relation lacks");
    }
  }

  // 3. Targets.  An aggregate is a whole target, and aggregation collapses
  // time; the default periods come from the variables the targets name.
  Answer answer;
  bool aggregated = false;
  std::vector<AstExprPtr> target_asts;
  std::vector<ExprPtr> targets;
  std::vector<size_t> target_vars;
  for (const tquel::TargetItem& t : s.targets) {
    const bool agg = t.expr->kind == AstExprKind::kAggregate;
    aggregated = aggregated || agg;
    TDB_ASSIGN_OR_RETURN(ExprPtr e, Bind(agg ? t.expr->left : t.expr, scope));
    std::set<size_t> vars;
    ReferencedVars(*e, &vars);
    for (size_t v : vars) {
      if (std::find(target_vars.begin(), target_vars.end(), v) ==
          target_vars.end()) {
        target_vars.push_back(v);
      }
    }
    target_asts.push_back(t.expr);
    targets.push_back(std::move(e));
    answer.names.push_back(t.name);
  }
  if (target_vars.empty()) {
    for (size_t v = 0; v < n; ++v) target_vars.push_back(v);
  }
  if (answer.names.empty() || (aggregated && s.valid.has_value())) {
    return Status::InvalidArgument("no targets, or an aggregated valid clause");
  }
  TemporalClass cls = DerivedClass(scope.relations[0]->kind);
  for (size_t v = 1; v < n; ++v) {
    cls = MeetClass(cls, DerivedClass(scope.relations[v]->kind));
  }
  answer.result_class = aggregated ? TemporalClass::kStatic : cls;
  const bool keep_valid = SupportsValidTime(answer.result_class);
  const bool keep_txn = SupportsTransactionTime(answer.result_class);

  // 4. The where clause, split into the conjuncts of one variable and the
  // rest; the rollback window: `as of a` is the state at a, `as of a
  // through b` every state from a through b inclusive.
  std::vector<AstExprPtr> conjunct_asts;
  Conjuncts(s.where, &conjunct_asts);
  std::vector<std::vector<ExprPtr>> local(n);
  std::vector<ExprPtr> joint;
  for (const AstExprPtr& c : conjunct_asts) {
    TDB_ASSIGN_OR_RETURN(ExprPtr e, Bind(c, scope));
    std::set<size_t> vars;
    ReferencedVars(*e, &vars);
    (vars.size() == 1 ? local[*vars.begin()] : joint).push_back(std::move(e));
  }
  std::optional<Period> asof;
  if (s.as_of.has_value()) {
    TDB_ASSIGN_OR_RETURN(Period at, ConstPeriod(s.as_of->at));
    asof = Period::At(at.begin());
    if (s.as_of->through != nullptr) {
      TDB_ASSIGN_OR_RETURN(Period through, ConstPeriod(s.as_of->through));
      asof = Period(at.begin(), through.begin().Next());
    }
    if (asof->IsEmpty()) return Status::InvalidArgument("empty as-of window");
  }

  // 5. Each participant's visible facts — alive in the as-of window, else
  // current on a kind with transaction time — that pass its own conjuncts.
  std::vector<std::vector<const Fact*>> facts(n);
  Binding binding(n);
  for (size_t v = 0; v < n; ++v) {
    const bool with_txn = SupportsTransactionTime(scope.relations[v]->kind);
    for (const Fact& f : scope.relations[v]->facts) {
      if (asof.has_value() ? !f.txn.Overlaps(*asof)
                           : with_txn && !f.txn.end().IsForever()) {
        continue;
      }
      binding[v] = &f;
      bool keep = true;
      for (size_t k = 0; keep && k < local[v].size(); ++k) {
        TDB_ASSIGN_OR_RETURN(keep, Test(*local[v][k], binding));
      }
      if (keep) facts[v].push_back(&f);
    }
  }

  // 6. Every combination of them.
  std::vector<size_t> pos(n, 0);
  bool more = std::none_of(facts.begin(), facts.end(),
                           [](const auto& f) { return f.empty(); });
  while (more) {
    for (size_t v = 0; v < n; ++v) binding[v] = facts[v][pos[v]];
    size_t v = n;
    while (v > 0 && ++pos[v - 1] == facts[v - 1].size()) pos[--v] = 0;
    more = v > 0;

    bool keep = true;
    for (size_t k = 0; keep && k < joint.size(); ++k) {
      TDB_ASSIGN_OR_RETURN(keep, Test(*joint[k], binding));
    }
    if (keep && s.when != nullptr) {
      TDB_ASSIGN_OR_RETURN(keep, EvalPred(s.when, scope, binding));
    }
    if (!keep) continue;
    Fact row;
    if (keep_valid && s.valid.has_value()) {
      TDB_ASSIGN_OR_RETURN(Period from,
                           EvalPeriod(s.valid->from, scope, binding));
      row.valid = Period::At(from.begin());
      if (!s.valid->at) {
        TDB_ASSIGN_OR_RETURN(Period to,
                             EvalPeriod(s.valid->to, scope, binding));
        row.valid = Period(from.begin(), to.begin());
      }
    }
    for (size_t t : target_vars) {
      if (keep_valid && !s.valid.has_value()) {
        row.valid = row.valid.Intersect(binding[t]->valid);
      }
      if (keep_txn) row.txn = row.txn.Intersect(binding[t]->txn);
    }
    if (row.valid.IsEmpty() || row.txn.IsEmpty()) continue;
    for (const ExprPtr& e : targets) {
      TDB_ASSIGN_OR_RETURN(Value value, Eval(*e, binding));
      row.values.push_back(std::move(value));
    }
    answer.rows.push_back(std::move(row));
  }
  if (aggregated) {
    TDB_ASSIGN_OR_RETURN(answer.rows, Aggregate(target_asts, answer.rows));
  }
  answer.count = answer.rows.size();
  return answer;
}

Result<Answer> ReferenceModel::Append(const tquel::AppendStmt& s) {
  if (!relations_.contains(s.relation)) return Status::NotFound(s.relation);
  Relation& rel = relations_.at(s.relation);
  Fact fact;
  fact.values.assign(rel.attributes.size(), Value());
  for (const auto& [attr, ast] : s.assignments) {
    TDB_ASSIGN_OR_RETURN(auto loc, ResolveColumn({{""}, {&rel}}, "", attr));
    TDB_ASSIGN_OR_RETURN(ExprPtr e, Bind(ast, Scope{}, false));
    TDB_ASSIGN_OR_RETURN(Value v, Eval(*e, {}));
    TDB_ASSIGN_OR_RETURN(fact.values[loc.second],
                         Store(rel.attributes[loc.second].second, v));
  }
  TDB_ASSIGN_OR_RETURN(std::optional<Period> clause, DmlValid(s.valid));
  TDB_ASSIGN_OR_RETURN(std::optional<Period> valid,
                       Window(rel, clause, now_));
  fact.valid = valid.value_or(Period::All());
  if (SupportsTransactionTime(rel.kind)) fact.txn = Period::From(now_);
  rel.facts.push_back(std::move(fact));
  Answer a;
  a.count = 1;
  return a;
}

Result<Answer> ReferenceModel::Update(
    const std::string& variable, const AstExprPtr& where,
    const AstTemporalPredPtr& when,
    const std::optional<tquel::ValidClause>& valid,
    const std::vector<std::pair<std::string, AstExprPtr>>* assignments,
    bool correct) {
  const auto range = ranges_.find(variable);
  if (range == ranges_.end() || !relations_.contains(range->second)) {
    return Status::InvalidArgument("unknown range variable '" + variable + "'");
  }
  Relation* rel = &relations_.at(range->second);
  const Scope scope{{variable}, {rel}};
  ExprPtr predicate;
  if (where != nullptr) {
    TDB_ASSIGN_OR_RETURN(predicate, Bind(where, scope));
  }
  if (when != nullptr && !SupportsValidTime(rel->kind)) {
    return Status::NotSupported("'when' needs valid time");
  }
  if (correct && rel->kind != TemporalClass::kHistorical) {
    return Status::NotSupported("only historical facts can be corrected");
  }
  TDB_ASSIGN_OR_RETURN(std::optional<Period> clause, DmlValid(valid));
  std::optional<Period> window;
  if (!correct) {
    TDB_ASSIGN_OR_RETURN(window, Window(*rel, clause, now_));
  }
  const bool replace = assignments != nullptr;
  std::vector<std::pair<size_t, ExprPtr>> sets;
  for (size_t i = 0; replace && i < assignments->size(); ++i) {
    const auto& [attr, ast] = (*assignments)[i];
    TDB_ASSIGN_OR_RETURN(auto loc, ResolveColumn(scope, "", attr));
    TDB_ASSIGN_OR_RETURN(ExprPtr e, Bind(ast, scope));
    sets.emplace_back(loc.second, std::move(e));
  }
  TDB_ASSIGN_OR_RETURN(std::vector<size_t> victims,
                       Select(*rel, scope, window, when, predicate));

  // A replace computes every new value from the fact's old values.
  std::vector<std::vector<Value>> updated;
  for (size_t i = 0; replace && i < victims.size(); ++i) {
    const Fact& f = rel->facts[victims[i]];
    std::vector<Value> values = f.values;
    for (const auto& [attr, e] : sets) {
      TDB_ASSIGN_OR_RETURN(Value v, Eval(*e, {&f}));
      TDB_ASSIGN_OR_RETURN(values[attr],
                           Store(rel->attributes[attr].second, std::move(v)));
    }
    updated.push_back(std::move(values));
  }

  // The rewrite (see the table in reference.h).  With valid time the fact
  // survives outside the window and a replace adds the new values over the
  // part inside it; historical facts are rewritten in place, temporal ones
  // end and are recorded anew from now on.
  const Period from_now = Period::From(now_);
  const bool historical = rel->kind == TemporalClass::kHistorical;
  std::vector<bool> drop(rel->facts.size(), false);
  std::vector<Fact> added;
  for (size_t k = 0; k < victims.size(); ++k) {
    Fact& f = rel->facts[victims[k]];
    if (correct || rel->kind == TemporalClass::kStatic) {
      if (replace) f.values = std::move(updated[k]);
      drop[victims[k]] = !replace;
      continue;
    }
    if (!window.has_value()) {
      if (replace) added.push_back({std::move(updated[k]), f.valid, from_now});
    } else {
      const Period txn = historical ? f.txn : from_now;
      const Period cut = *window;
      for (Period remnant :
           {Period(f.valid.begin(), MinChronon(f.valid.end(), cut.begin())),
            Period(MaxChronon(f.valid.begin(), cut.end()), f.valid.end())}) {
        if (!remnant.IsEmpty()) added.push_back({f.values, remnant, txn});
      }
      if (replace) {
        added.push_back({std::move(updated[k]), f.valid.Intersect(cut), txn});
      }
    }
    drop[victims[k]] = historical;
    if (!historical) f.txn = Period(f.txn.begin(), now_);
  }
  Rewrite(rel, drop, std::move(added));
  Answer a;
  a.count = victims.size();
  return a;
}

}  // namespace reference
}  // namespace temporadb
