#include "exec/apply_ops.h"

#include "common/metrics.h"
#include "exec/batch.h"
#include "exec/join_ops.h"

namespace htg::exec {

namespace {

// Per outer row (read through a RowReader): evaluates the arguments,
// opens the TVF, and appends one output row per TVF row, copying the
// outer values and moving the TVF's values out of its batch. The TVF's
// own per-row FillRow loop is the paper's §5.2 seam.
class CrossApplyIterator : public BatchIterator {
 public:
  CrossApplyIterator(std::unique_ptr<storage::RowIterator> child,
                     const udf::TableFunction* fn,
                     const std::vector<ExprPtr>* args, Database* db,
                     udf::EvalContext* eval, size_t batch_rows)
      : child_(std::move(child)),
        outer_(child_.get(), batch_rows),
        fn_(fn),
        args_(args),
        db_(db),
        eval_(eval),
        inner_batch_(batch_rows) {}

 protected:
  bool ProduceBatch(RowBatch* batch) override {
    batch->Clear();
    while (!batch->full()) {
      if (inner_pos_ < inner_batch_.ActiveRows()) {
        const size_t r = inner_batch_.ActiveIndex(inner_pos_++);
        row_.assign(outer_row_.begin(), outer_row_.end());
        for (size_t c = 0; c < inner_batch_.num_columns(); ++c) {
          row_.push_back(std::move(inner_batch_.column(c)[r]));
        }
        batch->AppendRow(std::move(row_));
        row_.clear();
        continue;
      }
      inner_pos_ = 0;
      if (inner_ != nullptr && inner_->NextBatch(&inner_batch_)) continue;
      inner_batch_.Clear();
      if (!OpenNextInner()) break;
    }
    return status_.ok() && batch->num_rows() > 0;
  }

 private:
  // Closes the exhausted TVF stream, advances the outer side and opens
  // the TVF over its next row. False at the end of the outer input or on
  // error.
  bool OpenNextInner() {
    if (inner_ != nullptr) {
      status_ = inner_->status();
      inner_ = nullptr;
      if (!status_.ok()) return false;
    }
    if (!outer_.Next(&outer_row_)) {
      status_ = outer_.status();
      return false;
    }
    std::vector<Value> args;
    args.reserve(args_->size());
    for (const ExprPtr& a : *args_) {
      Result<Value> v = a->Eval(eval_, outer_row_);
      if (!v.ok()) {
        status_ = v.status();
        return false;
      }
      args.push_back(std::move(*v));
    }
    HTG_METRIC_COUNTER("udf.tvf.opens")->Add(1);
    Result<std::unique_ptr<storage::RowIterator>> inner =
        fn_->Open(args, db_);
    if (!inner.ok()) {
      status_ = inner.status();
      return false;
    }
    inner_ = std::move(*inner);
    return true;
  }

  std::unique_ptr<storage::RowIterator> child_;
  RowReader outer_;
  const udf::TableFunction* fn_;
  const std::vector<ExprPtr>* args_;
  Database* db_;
  udf::EvalContext* eval_;
  Row outer_row_;
  std::unique_ptr<storage::RowIterator> inner_;
  RowBatch inner_batch_;
  size_t inner_pos_ = 0;
  Row row_;  // output row scratch; keeps its capacity across rows
};

}  // namespace

Result<std::unique_ptr<storage::RowIterator>> TvfScanOp::OpenImpl(
    ExecContext* ctx) {
  std::vector<Value> args;
  args.reserve(args_.size());
  for (const ExprPtr& a : args_) {
    HTG_ASSIGN_OR_RETURN(Value v, a->Eval(&ctx->eval, Row{}));
    args.push_back(std::move(v));
  }
  HTG_METRIC_COUNTER("udf.tvf.opens")->Add(1);
  return fn_->Open(args, ctx->db);
}

std::string TvfScanOp::Describe() const {
  std::string out = "Table Valued Function [" + std::string(fn_->name()) + "(";
  for (size_t i = 0; i < args_.size(); ++i) {
    if (i > 0) out += ", ";
    out += args_[i]->ToString();
  }
  out += ")]";
  return out;
}

CrossApplyOp::CrossApplyOp(OperatorPtr child, const udf::TableFunction* fn,
                           std::vector<ExprPtr> args, Schema fn_schema)
    : child_(std::move(child)),
      fn_(fn),
      args_(std::move(args)),
      fn_schema_(std::move(fn_schema)),
      schema_(ConcatSchemas(child_->output_schema(), fn_schema_)) {}

Result<std::unique_ptr<storage::RowIterator>> CrossApplyOp::OpenImpl(
    ExecContext* ctx) {
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> child,
                       child_->Open(ctx));
  return {std::make_unique<CrossApplyIterator>(std::move(child), fn_, &args_,
                                               ctx->db, &ctx->eval,
                                               ctx->batch_rows)};
}

std::string CrossApplyOp::Describe() const {
  return "Nested Loops (Cross Apply) [" + std::string(fn_->name()) + "]";
}

}  // namespace htg::exec
