#include "rel/temporal_ops.h"

namespace temporadb {

// ---------------------------------------------------------------------------
// Temporal expressions
// ---------------------------------------------------------------------------

namespace {

class VarPeriodExpr final : public TemporalExpr {
 public:
  VarPeriodExpr(size_t index, std::string name)
      : index_(index), name_(std::move(name)) {}

  Result<Period> Eval(const PeriodBinding& binding) const override {
    if (index_ >= binding.size()) {
      return Status::Internal("range variable not bound");
    }
    return binding[index_];
  }

  std::string ToString() const override { return name_; }

  std::optional<size_t> AsVarRef() const override { return index_; }

  bool OnlyBindsBelow(size_t prefix) const override {
    return index_ < prefix;
  }

 private:
  size_t index_;
  std::string name_;
};

class PeriodLiteralExpr final : public TemporalExpr {
 public:
  PeriodLiteralExpr(Period p, std::string display)
      : period_(p), display_(std::move(display)) {}

  Result<Period> Eval(const PeriodBinding&) const override { return period_; }

  std::string ToString() const override { return display_; }

 private:
  Period period_;
  std::string display_;
};

class EndpointExpr final : public TemporalExpr {
 public:
  EndpointExpr(bool begin, TemporalExprPtr inner)
      : begin_(begin), inner_(std::move(inner)) {}

  Result<Period> Eval(const PeriodBinding& binding) const override {
    TDB_ASSIGN_OR_RETURN(Period p, inner_->Eval(binding));
    if (p.IsEmpty()) {
      return Status::InvalidArgument("endpoint of an empty period");
    }
    return begin_ ? p.BeginEvent() : p.EndEvent();
  }

  std::string ToString() const override {
    return std::string(begin_ ? "begin of " : "end of ") + inner_->ToString();
  }

  bool OnlyBindsBelow(size_t prefix) const override {
    return inner_->OnlyBindsBelow(prefix);
  }

 private:
  bool begin_;
  TemporalExprPtr inner_;
};

class BinaryPeriodExpr final : public TemporalExpr {
 public:
  BinaryPeriodExpr(bool overlap, TemporalExprPtr left, TemporalExprPtr right)
      : overlap_(overlap), left_(std::move(left)), right_(std::move(right)) {}

  Result<Period> Eval(const PeriodBinding& binding) const override {
    TDB_ASSIGN_OR_RETURN(Period l, left_->Eval(binding));
    TDB_ASSIGN_OR_RETURN(Period r, right_->Eval(binding));
    return overlap_ ? l.Intersect(r) : l.Extend(r);
  }

  std::string ToString() const override {
    return "(" + left_->ToString() + (overlap_ ? " overlap " : " extend ") +
           right_->ToString() + ")";
  }

  bool OnlyBindsBelow(size_t prefix) const override {
    return left_->OnlyBindsBelow(prefix) && right_->OnlyBindsBelow(prefix);
  }

 private:
  bool overlap_;
  TemporalExprPtr left_;
  TemporalExprPtr right_;
};

enum class PredKind { kPrecede, kOverlap, kEqual };

class ComparePred final : public TemporalPred {
 public:
  ComparePred(PredKind kind, TemporalExprPtr left, TemporalExprPtr right)
      : kind_(kind), left_(std::move(left)), right_(std::move(right)) {}

  Result<bool> Eval(const PeriodBinding& binding) const override {
    TDB_ASSIGN_OR_RETURN(Period l, left_->Eval(binding));
    TDB_ASSIGN_OR_RETURN(Period r, right_->Eval(binding));
    switch (kind_) {
      case PredKind::kPrecede:
        return l.Precedes(r);
      case PredKind::kOverlap:
        return l.Overlaps(r);
      case PredKind::kEqual:
        return l == r;
    }
    return Status::Internal("unhandled temporal predicate");
  }

  std::string ToString() const override {
    const char* op = kind_ == PredKind::kPrecede
                         ? " precede "
                         : (kind_ == PredKind::kOverlap ? " overlap "
                                                        : " equal ");
    return "(" + left_->ToString() + op + right_->ToString() + ")";
  }

  std::optional<Period> PushdownWindow(size_t var,
                                       const PeriodBinding& binding,
                                       size_t prefix) const override {
    // Recognize `<var> <op> e` / `e <op> <var>` where `e` is evaluable from
    // the already-bound prefix (so it cannot reference `var` itself).
    const bool var_left =
        left_->AsVarRef() == var && right_->OnlyBindsBelow(prefix);
    const bool var_right =
        right_->AsVarRef() == var && left_->OnlyBindsBelow(prefix);
    if (!var_left && !var_right) return std::nullopt;
    Result<Period> other =
        var_left ? right_->Eval(binding) : left_->Eval(binding);
    // An unevaluable window (e.g. `end of` an empty intersection) is not an
    // error here: extraction just declines and the scan stays full.  The
    // leaf predicate evaluation reports the error with full context.
    if (!other.ok()) return std::nullopt;
    const Period w = *other;
    switch (kind_) {
      case PredKind::kOverlap:
      case PredKind::kEqual:
        // `p overlap w` is the window verbatim; `p equal w` implies it
        // (stored valid periods are nonempty, so an empty `w` means the
        // predicate can never hold — an empty window, prune all).
        return w;
      case PredKind::kPrecede:
        // Precedes is false against an empty operand; surface that as an
        // empty window rather than a half-line one.
        if (w.IsEmpty()) return w;
        if (var_left) {
          // p precede w  ⇒  p ⊆ [beginning, w.begin)
          return Period(Chronon::Beginning(), w.begin());
        }
        // w precede p  ⇒  p ⊆ [w.end, forever)
        return Period::From(w.end());
    }
    return std::nullopt;
  }

 private:
  PredKind kind_;
  TemporalExprPtr left_;
  TemporalExprPtr right_;
};

class LogicalPred final : public TemporalPred {
 public:
  LogicalPred(bool is_and, TemporalPredPtr left, TemporalPredPtr right)
      : is_and_(is_and), left_(std::move(left)), right_(std::move(right)) {}

  Result<bool> Eval(const PeriodBinding& binding) const override {
    TDB_ASSIGN_OR_RETURN(bool l, left_->Eval(binding));
    if (is_and_ && !l) return false;
    if (!is_and_ && l) return true;
    return right_->Eval(binding);
  }

  std::string ToString() const override {
    return "(" + left_->ToString() + (is_and_ ? " and " : " or ") +
           right_->ToString() + ")";
  }

  std::optional<Period> PushdownWindow(size_t var,
                                       const PeriodBinding& binding,
                                       size_t prefix) const override {
    std::optional<Period> l = left_->PushdownWindow(var, binding, prefix);
    std::optional<Period> r = right_->PushdownWindow(var, binding, prefix);
    if (is_and_) {
      // Both conjuncts must hold, so either side's window alone is sound.
      // Intersecting them is NOT (a period can overlap each of two windows
      // while missing their intersection) — prefer the shorter one.
      if (l.has_value() && r.has_value()) {
        return l->Duration() <= r->Duration() ? l : r;
      }
      return l.has_value() ? l : r;
    }
    // A disjunction needs a window from *both* sides; their span covers
    // every tuple either side could accept.  An empty side contributes
    // nothing (that disjunct can never hold).
    if (!l.has_value() || !r.has_value()) return std::nullopt;
    if (l->IsEmpty()) return r;
    if (r->IsEmpty()) return l;
    return l->Extend(*r);
  }

 private:
  bool is_and_;
  TemporalPredPtr left_;
  TemporalPredPtr right_;
};

class NotPred final : public TemporalPred {
 public:
  explicit NotPred(TemporalPredPtr inner) : inner_(std::move(inner)) {}

  Result<bool> Eval(const PeriodBinding& binding) const override {
    TDB_ASSIGN_OR_RETURN(bool b, inner_->Eval(binding));
    return !b;
  }

  std::string ToString() const override {
    return "not " + inner_->ToString();
  }

 private:
  TemporalPredPtr inner_;
};

}  // namespace

TemporalExprPtr MakeVarPeriod(size_t var_index, std::string display_name) {
  return std::make_shared<VarPeriodExpr>(var_index, std::move(display_name));
}

TemporalExprPtr MakePeriodLiteral(Period p, std::string display) {
  return std::make_shared<PeriodLiteralExpr>(p, std::move(display));
}

TemporalExprPtr MakeBeginOf(TemporalExprPtr inner) {
  return std::make_shared<EndpointExpr>(true, std::move(inner));
}

TemporalExprPtr MakeEndOf(TemporalExprPtr inner) {
  return std::make_shared<EndpointExpr>(false, std::move(inner));
}

TemporalExprPtr MakeOverlapExpr(TemporalExprPtr left, TemporalExprPtr right) {
  return std::make_shared<BinaryPeriodExpr>(true, std::move(left),
                                            std::move(right));
}

TemporalExprPtr MakeExtendExpr(TemporalExprPtr left, TemporalExprPtr right) {
  return std::make_shared<BinaryPeriodExpr>(false, std::move(left),
                                            std::move(right));
}

TemporalPredPtr MakePrecedePred(TemporalExprPtr left, TemporalExprPtr right) {
  return std::make_shared<ComparePred>(PredKind::kPrecede, std::move(left),
                                       std::move(right));
}

TemporalPredPtr MakeOverlapPred(TemporalExprPtr left, TemporalExprPtr right) {
  return std::make_shared<ComparePred>(PredKind::kOverlap, std::move(left),
                                       std::move(right));
}

TemporalPredPtr MakeEqualPred(TemporalExprPtr left, TemporalExprPtr right) {
  return std::make_shared<ComparePred>(PredKind::kEqual, std::move(left),
                                       std::move(right));
}

TemporalPredPtr MakeAndPred(TemporalPredPtr left, TemporalPredPtr right) {
  return std::make_shared<LogicalPred>(true, std::move(left),
                                       std::move(right));
}

TemporalPredPtr MakeOrPred(TemporalPredPtr left, TemporalPredPtr right) {
  return std::make_shared<LogicalPred>(false, std::move(left),
                                       std::move(right));
}

TemporalPredPtr MakeNotPred(TemporalPredPtr inner) {
  return std::make_shared<NotPred>(std::move(inner));
}

}  // namespace temporadb
