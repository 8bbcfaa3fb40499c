#include "rel/batch_cursor.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/strings.h"
#include "rel/kernels.h"

namespace temporadb {

namespace {

// Copies row `i`'s explicit values into `scratch` (reused across rows) for
// expression evaluation — the columnar layout is transposed back only at
// the expression boundary, not per operator.
void GatherValues(const Batch& b, size_t i, std::vector<Value>* scratch) {
  scratch->clear();
  scratch->reserve(b.width());
  for (size_t c = 0; c < b.width(); ++c) scratch->push_back(b.columns[c][i]);
}

class RowsetBatchCursor final : public BatchCursor {
 public:
  RowsetBatchCursor(const Rowset* input, size_t batch_rows)
      : input_(input), batch_rows_(batch_rows) {}

  Status OpenImpl() override {
    pos_ = 0;
    return Status::OK();
  }

  Result<std::optional<Batch>> NextBatchImpl() override {
    const std::vector<Row>& rows = input_->rows();
    if (pos_ >= rows.size()) return std::optional<Batch>();
    Batch out(input_->schema().size(), input_->has_valid_time(),
              input_->has_txn_time());
    const size_t end = std::min(rows.size(), pos_ + batch_rows_);
    out.ReserveRows(end - pos_);
    for (; pos_ < end; ++pos_) out.AppendRow(rows[pos_]);
    return std::optional<Batch>(std::move(out));
  }

  const Schema& SchemaImpl() const override { return input_->schema(); }
  TemporalClass TemporalClassImpl() const override {
    return input_->temporal_class();
  }
  TemporalDataModel DataModelImpl() const override {
    return input_->data_model();
  }

 private:
  const Rowset* input_;
  size_t batch_rows_;
  size_t pos_ = 0;
};

class BatchSelectCursor final : public BatchCursor {
 public:
  BatchSelectCursor(BatchCursorPtr input, const Expr* pred)
      : input_(std::move(input)), pred_(pred) {}

  Status OpenImpl() override { return input_->Open(); }

  Result<std::optional<Batch>> NextBatchImpl() override {
    std::vector<Value> scratch;
    while (true) {
      TDB_ASSIGN_OR_RETURN(std::optional<Batch> batch, input_->NextBatch());
      if (!batch.has_value()) return batch;
      // Arbitrary predicates are evaluated per row (they may touch any
      // value type); survivors are compacted in place, in row order, so
      // the first error is the first failing row's.
      SelectionVector sel;
      sel.reserve(batch->rows());
      for (size_t i = 0; i < batch->rows(); ++i) {
        GatherValues(*batch, i, &scratch);
        TDB_ASSIGN_OR_RETURN(bool keep, EvalPredicate(*pred_, scratch));
        if (keep) sel.push_back(static_cast<uint32_t>(i));
      }
      if (sel.empty()) continue;
      batch->Compact(sel, sel.size());
      return batch;
    }
  }

  const Schema& SchemaImpl() const override { return input_->schema(); }
  TemporalClass TemporalClassImpl() const override {
    return input_->temporal_class();
  }
  TemporalDataModel DataModelImpl() const override {
    return input_->data_model();
  }

 private:
  BatchCursorPtr input_;
  const Expr* pred_;
};

class BatchProjectCursor final : public BatchCursor {
 public:
  BatchProjectCursor(BatchCursorPtr input, const std::vector<ExprPtr>* exprs,
                     std::vector<std::string> names)
      : input_(std::move(input)), exprs_(exprs), names_(std::move(names)) {}

  Status OpenImpl() override {
    if (exprs_->size() != names_.size()) {
      return Status::InvalidArgument("projection names/expressions mismatch");
    }
    TDB_RETURN_IF_ERROR(input_->Open());
    // Output attribute types: inferred from the first row, defaulting to
    // string for empty inputs (the lookahead pulls one batch).
    TDB_ASSIGN_OR_RETURN(lookahead_, input_->NextBatch());
    std::vector<Attribute> attrs;
    attrs.reserve(exprs_->size());
    std::vector<Value> scratch;
    if (lookahead_.has_value()) GatherValues(*lookahead_, 0, &scratch);
    for (size_t i = 0; i < exprs_->size(); ++i) {
      ValueType vt = ValueType::kString;
      if (lookahead_.has_value()) {
        TDB_ASSIGN_OR_RETURN(Value v, (*exprs_)[i]->Eval(scratch));
        if (!v.is_null()) vt = v.type();
      }
      attrs.push_back(Attribute{names_[i], Type(vt)});
    }
    TDB_ASSIGN_OR_RETURN(schema_, Schema::Make(std::move(attrs)));
    return Status::OK();
  }

  Result<std::optional<Batch>> NextBatchImpl() override {
    std::optional<Batch> batch;
    if (lookahead_.has_value()) {
      batch = std::move(lookahead_);
      lookahead_.reset();
    } else {
      TDB_ASSIGN_OR_RETURN(batch, input_->NextBatch());
    }
    if (!batch.has_value()) return batch;
    Batch out(exprs_->size(), batch->has_valid, batch->has_txn);
    out.ReserveRows(batch->rows());
    // Row-major evaluation: the first expression error is the first failing
    // row's.
    std::vector<Value> scratch;
    for (size_t i = 0; i < batch->rows(); ++i) {
      GatherValues(*batch, i, &scratch);
      for (size_t e = 0; e < exprs_->size(); ++e) {
        TDB_ASSIGN_OR_RETURN(Value v, (*exprs_)[e]->Eval(scratch));
        out.columns[e].push_back(std::move(v));
      }
    }
    // Projection keeps the DBMS-maintained periods untouched.
    out.valid_from = std::move(batch->valid_from);
    out.valid_to = std::move(batch->valid_to);
    out.tt_start = std::move(batch->tt_start);
    out.tt_end = std::move(batch->tt_end);
    out.SetRowCount(batch->rows());
    return std::optional<Batch>(std::move(out));
  }

  const Schema& SchemaImpl() const override { return schema_; }
  TemporalClass TemporalClassImpl() const override {
    return input_->temporal_class();
  }
  TemporalDataModel DataModelImpl() const override {
    return input_->data_model();
  }

 private:
  BatchCursorPtr input_;
  const std::vector<ExprPtr>* exprs_;
  std::vector<std::string> names_;
  std::optional<Batch> lookahead_;
  Schema schema_;
};

class BatchUnionCursor final : public BatchCursor {
 public:
  BatchUnionCursor(BatchCursorPtr a, BatchCursorPtr b)
      : a_(std::move(a)), b_(std::move(b)) {}

  Status OpenImpl() override {
    TDB_RETURN_IF_ERROR(a_->Open());
    TDB_RETURN_IF_ERROR(b_->Open());
    if (a_->schema() != b_->schema()) {
      return Status::InvalidArgument("union of incompatible schemas");
    }
    if (a_->temporal_class() != b_->temporal_class()) {
      return Status::InvalidArgument(StringPrintf(
          "union of %s and %s relations",
          std::string(TemporalClassName(a_->temporal_class())).c_str(),
          std::string(TemporalClassName(b_->temporal_class())).c_str()));
    }
    return Status::OK();
  }

  Result<std::optional<Batch>> NextBatchImpl() override {
    if (!a_done_) {
      TDB_ASSIGN_OR_RETURN(std::optional<Batch> batch, a_->NextBatch());
      if (batch.has_value()) return batch;
      a_done_ = true;
    }
    return b_->NextBatch();
  }

  const Schema& SchemaImpl() const override { return a_->schema(); }
  TemporalClass TemporalClassImpl() const override {
    return a_->temporal_class();
  }
  TemporalDataModel DataModelImpl() const override { return a_->data_model(); }

 private:
  BatchCursorPtr a_;
  BatchCursorPtr b_;
  bool a_done_ = false;
};

class BatchDifferenceCursor final : public BatchCursor {
 public:
  BatchDifferenceCursor(BatchCursorPtr a, BatchCursorPtr b)
      : a_(std::move(a)), b_(std::move(b)) {}

  Status OpenImpl() override {
    TDB_RETURN_IF_ERROR(a_->Open());
    TDB_RETURN_IF_ERROR(b_->Open());
    if (a_->schema() != b_->schema() ||
        a_->temporal_class() != b_->temporal_class()) {
      return Status::InvalidArgument("difference of incompatible relations");
    }
    // Pipeline breaker on the excluded side only: `b` is drained into a
    // set, `a` streams through.
    while (true) {
      TDB_ASSIGN_OR_RETURN(std::optional<Batch> batch, b_->NextBatch());
      if (!batch.has_value()) break;
      for (size_t i = 0; i < batch->rows(); ++i) {
        exclude_.insert(batch->ExtractRow(i));
      }
    }
    return Status::OK();
  }

  Result<std::optional<Batch>> NextBatchImpl() override {
    while (true) {
      TDB_ASSIGN_OR_RETURN(std::optional<Batch> batch, a_->NextBatch());
      if (!batch.has_value()) return batch;
      SelectionVector sel;
      sel.reserve(batch->rows());
      for (size_t i = 0; i < batch->rows(); ++i) {
        if (!exclude_.contains(batch->ExtractRow(i))) {
          sel.push_back(static_cast<uint32_t>(i));
        }
      }
      if (sel.empty()) continue;
      batch->Compact(sel, sel.size());
      return batch;
    }
  }

  const Schema& SchemaImpl() const override { return a_->schema(); }
  TemporalClass TemporalClassImpl() const override {
    return a_->temporal_class();
  }
  TemporalDataModel DataModelImpl() const override { return a_->data_model(); }

 private:
  BatchCursorPtr a_;
  BatchCursorPtr b_;
  std::set<Row> exclude_;
};

class BatchDistinctCursor final : public BatchCursor {
 public:
  explicit BatchDistinctCursor(BatchCursorPtr input)
      : input_(std::move(input)) {}

  Status OpenImpl() override { return input_->Open(); }

  Result<std::optional<Batch>> NextBatchImpl() override {
    while (true) {
      TDB_ASSIGN_OR_RETURN(std::optional<Batch> batch, input_->NextBatch());
      if (!batch.has_value()) return batch;
      SelectionVector sel;
      sel.reserve(batch->rows());
      for (size_t i = 0; i < batch->rows(); ++i) {
        if (seen_.insert(batch->ExtractRow(i)).second) {
          sel.push_back(static_cast<uint32_t>(i));
        }
      }
      if (sel.empty()) continue;
      batch->Compact(sel, sel.size());
      return batch;
    }
  }

  const Schema& SchemaImpl() const override { return input_->schema(); }
  TemporalClass TemporalClassImpl() const override {
    return input_->temporal_class();
  }
  TemporalDataModel DataModelImpl() const override {
    return input_->data_model();
  }

 private:
  BatchCursorPtr input_;
  std::set<Row> seen_;
};

class BatchSortCursor final : public BatchCursor {
 public:
  BatchSortCursor(BatchCursorPtr input, std::vector<size_t> keys)
      : input_(std::move(input)), keys_(std::move(keys)) {}

  Status OpenImpl() override {
    TDB_RETURN_IF_ERROR(input_->Open());
    for (size_t k : keys_) {
      if (k >= input_->schema().size()) {
        return Status::InvalidArgument("sort key index out of range");
      }
    }
    while (true) {
      TDB_ASSIGN_OR_RETURN(std::optional<Batch> batch, input_->NextBatch());
      if (!batch.has_value()) break;
      for (size_t i = 0; i < batch->rows(); ++i) {
        rows_.push_back(batch->ExtractRow(i));
      }
    }
    std::stable_sort(rows_.begin(), rows_.end(),
                     [this](const Row& a, const Row& b) {
                       for (size_t k : keys_) {
                         if (a.values[k] < b.values[k]) return true;
                         if (b.values[k] < a.values[k]) return false;
                       }
                       return a < b;
                     });
    return Status::OK();
  }

  Result<std::optional<Batch>> NextBatchImpl() override {
    if (pos_ >= rows_.size()) return std::optional<Batch>();
    Batch out(input_->schema().size(),
              SupportsValidTime(input_->temporal_class()),
              SupportsTransactionTime(input_->temporal_class()));
    const size_t end = std::min(rows_.size(), pos_ + kDefaultBatchRows);
    out.ReserveRows(end - pos_);
    for (; pos_ < end; ++pos_) out.AppendRow(rows_[pos_]);
    return std::optional<Batch>(std::move(out));
  }

  const Schema& SchemaImpl() const override { return input_->schema(); }
  TemporalClass TemporalClassImpl() const override {
    return input_->temporal_class();
  }
  TemporalDataModel DataModelImpl() const override {
    return input_->data_model();
  }

 private:
  BatchCursorPtr input_;
  std::vector<size_t> keys_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

class BatchCrossProductCursor final : public BatchCursor {
 public:
  BatchCrossProductCursor(BatchCursorPtr a, BatchCursorPtr b)
      : a_(std::move(a)), b_(std::move(b)) {}

  Status OpenImpl() override {
    TDB_RETURN_IF_ERROR(a_->Open());
    TDB_RETURN_IF_ERROR(b_->Open());
    if (!HasMeetClass(a_->temporal_class(), b_->temporal_class())) {
      return Status::InvalidArgument(StringPrintf(
          "cross product of %s and %s relations: the temporal classes have "
          "no meet (one maintains only transaction time, the other only "
          "valid time), so every pairing would silently drop both time "
          "dimensions",
          std::string(TemporalClassName(a_->temporal_class())).c_str(),
          std::string(TemporalClassName(b_->temporal_class())).c_str()));
    }
    class_ = MeetClass(a_->temporal_class(), b_->temporal_class());
    want_valid_ = SupportsValidTime(class_);
    want_txn_ = SupportsTransactionTime(class_);
    schema_ = a_->schema().Concat(b_->schema());
    // Pipeline breaker on the inner side: `b` is buffered into one columnar
    // block so each outer row intersects against contiguous chronon columns.
    inner_ = Batch(b_->schema().size(),
                   SupportsValidTime(b_->temporal_class()),
                   SupportsTransactionTime(b_->temporal_class()));
    while (true) {
      TDB_ASSIGN_OR_RETURN(std::optional<Batch> batch, b_->NextBatch());
      if (!batch.has_value()) break;
      for (size_t i = 0; i < batch->rows(); ++i) {
        inner_.AppendRowFrom(*batch, i);
      }
    }
    return Status::OK();
  }

  Result<std::optional<Batch>> NextBatchImpl() override {
    const size_t n_inner = inner_.rows();
    sel_.resize(n_inner);
    if (want_valid_) {
      out_vb_.resize(n_inner);
      out_ve_.resize(n_inner);
    }
    if (want_txn_) {
      out_tb_.resize(n_inner);
      out_te_.resize(n_inner);
    }
    while (true) {
      TDB_ASSIGN_OR_RETURN(std::optional<Batch> outer, a_->NextBatch());
      if (!outer.has_value()) return std::optional<Batch>();
      Batch out(schema_.size(), want_valid_, want_txn_);
      const size_t a_width = a_->schema().size();
      size_t count = 0;
      for (size_t i = 0; i < outer->rows(); ++i) {
        // One kernel pass intersects this outer row's periods against the
        // whole inner side; a pair survives when every kept dimension's
        // `Intersect` is non-empty (pair order: outer row, then inner rows
        // ascending).
        size_t n_pairs;
        if (want_valid_ && want_txn_) {
          n_pairs = kernels::IntersectBitemporal(
              inner_.valid_from.data(), inner_.valid_to.data(),
              inner_.tt_start.data(), inner_.tt_end.data(),
              /*sel_in=*/nullptr, n_inner, outer->valid_from[i],
              outer->valid_to[i], outer->tt_start[i], outer->tt_end[i],
              sel_.data(), out_vb_.data(), out_ve_.data(), out_tb_.data(),
              out_te_.data());
        } else if (want_valid_) {
          n_pairs = kernels::IntersectPeriods(
              inner_.valid_from.data(), inner_.valid_to.data(),
              /*sel_in=*/nullptr, n_inner, outer->valid_from[i],
              outer->valid_to[i], sel_.data(), out_vb_.data(),
              out_ve_.data());
        } else if (want_txn_) {
          n_pairs = kernels::IntersectPeriods(
              inner_.tt_start.data(), inner_.tt_end.data(),
              /*sel_in=*/nullptr, n_inner, outer->tt_start[i],
              outer->tt_end[i], sel_.data(), out_tb_.data(), out_te_.data());
        } else {
          // No maintained dimension (static x static): every pair survives.
          n_pairs = n_inner;
          for (size_t k = 0; k < n_inner; ++k) {
            sel_[k] = static_cast<uint32_t>(k);
          }
        }
        for (size_t k = 0; k < n_pairs; ++k) {
          const uint32_t j = sel_[k];
          for (size_t c = 0; c < a_width; ++c) {
            out.columns[c].push_back(outer->columns[c][i]);
          }
          for (size_t c = 0; c < inner_.width(); ++c) {
            out.columns[a_width + c].push_back(inner_.columns[c][j]);
          }
          if (want_valid_) {
            out.valid_from.push_back(out_vb_[k]);
            out.valid_to.push_back(out_ve_[k]);
          }
          if (want_txn_) {
            out.tt_start.push_back(out_tb_[k]);
            out.tt_end.push_back(out_te_[k]);
          }
          ++count;
        }
      }
      if (count == 0) continue;
      out.SetRowCount(count);
      return std::optional<Batch>(std::move(out));
    }
  }

  const Schema& SchemaImpl() const override { return schema_; }
  TemporalClass TemporalClassImpl() const override { return class_; }
  // Matches the materializing operator: the product is rebuilt as an
  // interval rowset regardless of the operands' models.
  TemporalDataModel DataModelImpl() const override {
    return TemporalDataModel::kInterval;
  }

 private:
  BatchCursorPtr a_;
  BatchCursorPtr b_;
  Schema schema_;
  TemporalClass class_ = TemporalClass::kStatic;
  bool want_valid_ = false;
  bool want_txn_ = false;
  Batch inner_;
  SelectionVector sel_;
  ChrononColumn out_vb_, out_ve_, out_tb_, out_te_;
};

}  // namespace

BatchCursorPtr MakeRowsetBatchCursor(const Rowset* input, size_t batch_rows) {
  return std::make_unique<RowsetBatchCursor>(input, batch_rows);
}

BatchCursorPtr MakeBatchSelectCursor(BatchCursorPtr input, const Expr* pred) {
  return std::make_unique<BatchSelectCursor>(std::move(input), pred);
}

BatchCursorPtr MakeBatchProjectCursor(BatchCursorPtr input,
                                      const std::vector<ExprPtr>* exprs,
                                      std::vector<std::string> names) {
  return std::make_unique<BatchProjectCursor>(std::move(input), exprs,
                                              std::move(names));
}

BatchCursorPtr MakeBatchUnionCursor(BatchCursorPtr a, BatchCursorPtr b) {
  return std::make_unique<BatchUnionCursor>(std::move(a), std::move(b));
}

BatchCursorPtr MakeBatchDifferenceCursor(BatchCursorPtr a, BatchCursorPtr b) {
  return std::make_unique<BatchDifferenceCursor>(std::move(a), std::move(b));
}

BatchCursorPtr MakeBatchDistinctCursor(BatchCursorPtr input) {
  return std::make_unique<BatchDistinctCursor>(std::move(input));
}

BatchCursorPtr MakeBatchSortCursor(BatchCursorPtr input,
                                   std::vector<size_t> keys) {
  return std::make_unique<BatchSortCursor>(std::move(input), std::move(keys));
}

BatchCursorPtr MakeBatchCrossProductCursor(BatchCursorPtr a,
                                           BatchCursorPtr b) {
  return std::make_unique<BatchCrossProductCursor>(std::move(a), std::move(b));
}

Result<Rowset> MaterializeBatchCursor(BatchCursor* cursor) {
  TDB_RETURN_IF_ERROR(cursor->Open());
  Rowset out(cursor->schema(), cursor->temporal_class(),
             cursor->data_model());
  while (true) {
    TDB_ASSIGN_OR_RETURN(std::optional<Batch> batch, cursor->NextBatch());
    if (!batch.has_value()) break;
    for (size_t i = 0; i < batch->rows(); ++i) {
      TDB_RETURN_IF_ERROR(out.AddRow(batch->ExtractRow(i)));
    }
  }
  return out;
}

}  // namespace temporadb
