#include "exec/basic_ops.h"

#include "common/string_util.h"
#include "exec/batch.h"
#include "storage/clustered_table.h"
#include "storage/heap_table.h"

namespace htg::exec {

namespace {

// Vectorized Filter: pulls child batches and narrows each one's selection
// vector in place (no row copying) until at least one row survives.
class FilterBatchIterator : public BatchIterator {
 public:
  FilterBatchIterator(std::unique_ptr<storage::RowIterator> child,
                      const Expr* predicate, udf::EvalContext* eval)
      : child_(std::move(child)),
        predicate_(predicate),
        eval_(eval) {}

 protected:
  bool ProduceBatch(RowBatch* batch) override {
    for (;;) {
      if (!child_->NextBatch(batch)) {
        status_ = child_->status();
        return false;
      }
      const Status s = FilterBatch(*predicate_, eval_, batch, &scratch_);
      if (!s.ok()) {
        status_ = s;
        return false;
      }
      if (batch->ActiveRows() > 0) return true;
    }
  }

 private:
  std::unique_ptr<storage::RowIterator> child_;
  const Expr* predicate_;
  udf::EvalContext* eval_;
  std::vector<Value> scratch_;
};

// Vectorized Compute Scalar: evaluates each projection expression over
// the whole input batch (kernel loop over the selection vector), writing
// straight into the output batch's dense columns.
class ProjectBatchIterator : public BatchIterator {
 public:
  ProjectBatchIterator(std::unique_ptr<storage::RowIterator> child,
                       const std::vector<ExprPtr>* exprs,
                       udf::EvalContext* eval, size_t batch_rows)
      : child_(std::move(child)),
        exprs_(exprs),
        eval_(eval),
        input_(batch_rows) {}

 protected:
  bool ProduceBatch(RowBatch* batch) override {
    if (!child_->NextBatch(&input_)) {
      status_ = child_->status();
      return false;
    }
    const size_t n = input_.ActiveRows();
    batch->ResetColumns(exprs_->size());
    for (size_t e = 0; e < exprs_->size(); ++e) {
      const Status s = (*exprs_)[e]->EvalBatch(
          eval_, input_, input_.selection_data(), n, &batch->column(e));
      if (!s.ok()) {
        status_ = s;
        return false;
      }
    }
    batch->set_num_rows(n);
    return n > 0;
  }

 private:
  std::unique_ptr<storage::RowIterator> child_;
  const std::vector<ExprPtr>* exprs_;
  udf::EvalContext* eval_;
  RowBatch input_;
};

// Vectorized Top: passes batches through, truncating the final batch's
// selection to the remaining row budget.
class TopBatchIterator : public BatchIterator {
 public:
  TopBatchIterator(std::unique_ptr<storage::RowIterator> child, int64_t limit,
                   size_t batch_rows, MemoryContext* mem)
      : child_(std::move(child)), remaining_(limit), charge_(mem, "Top") {
    // The pass-through batch is bounded scratch (one batch of values);
    // account it for an honest peak without gating the statement on it.
    charge_.AddUnchecked(batch_rows * sizeof(Value));
  }

 protected:
  bool ProduceBatch(RowBatch* batch) override {
    if (remaining_ <= 0) return false;
    if (!child_->NextBatch(batch)) {
      status_ = child_->status();
      return false;
    }
    const int64_t n = static_cast<int64_t>(batch->ActiveRows());
    if (n <= remaining_) {
      remaining_ -= n;
      return true;
    }
    std::vector<uint32_t> keep;
    keep.reserve(static_cast<size_t>(remaining_));
    for (int64_t i = 0; i < remaining_; ++i) {
      keep.push_back(static_cast<uint32_t>(
          batch->ActiveIndex(static_cast<size_t>(i))));
    }
    batch->SetSelection(std::move(keep));
    remaining_ = 0;
    return true;
  }

 private:
  std::unique_ptr<storage::RowIterator> child_;
  int64_t remaining_;
  MemoryCharge charge_;
};

}  // namespace

TableScanOp::TableScanOp(catalog::TableDef* table) : table_(table) {}

TableScanOp::TableScanOp(catalog::TableDef* table, storage::KeyRange range)
    : table_(table), seek_(std::move(range)) {}

Result<std::unique_ptr<storage::RowIterator>> TableScanOp::OpenImpl(
    ExecContext* ctx) {
  // MVCC: with a snapshot in the context, bound the scan to the rows the
  // snapshot sees. This is the single interception point for serial plans
  // and for each morsel an exchange worker opens (with its own copy of the
  // same context).
  const storage::Snapshot* snap = ctx->snapshot;
  const std::optional<Morsel>& morsel = ctx->morsel;
  if (auto* clustered =
          dynamic_cast<storage::ClusteredTable*>(table_->table.get())) {
    if (morsel.has_value()) {
      return Status::Internal("page-range read of clustered table " +
                              table_->name);
    }
    return clustered->NewRangeScan(
        seek_.value_or(storage::KeyRange{}),
        snap != nullptr ? *snap : storage::Snapshot{}, ctx->txn_id);
  }
  auto* heap = dynamic_cast<storage::HeapTable*>(table_->table.get());
  if (heap == nullptr) {
    return Status::Internal("scan of unknown table kind " + table_->name);
  }
  if (snap != nullptr) {
    const uint64_t limit =
        table_->mvcc->VisibleRows(*snap, ctx->txn_id, heap->num_rows());
    HTG_ASSIGN_OR_RETURN(const storage::HeapTable::PrefixPlan plan,
                         heap->PlanVisiblePrefix(limit));
    if (!morsel.has_value()) {
      return {heap->NewScanRangeCapped(0, plan.end_page, plan.tail_rows)};
    }
    if (morsel->end_page < plan.end_page) {
      // The morsel ends before the prefix does: no mid-page cap.
      return {heap->NewScanRangeCapped(morsel->first_page, morsel->end_page,
                                       0)};
    }
    // Morsels past the visible prefix become empty scans.
    return {heap->NewScanRangeCapped(morsel->first_page, plan.end_page,
                                     plan.tail_rows)};
  }
  if (morsel.has_value()) {
    return {heap->NewScanRange(morsel->first_page, morsel->end_page)};
  }
  return {heap->NewScan()};
}

namespace {

// SQL spelling of a seek bound: strings quoted, numbers bare.
std::string BoundText(const Value& v) {
  return v.IsStringKind() ? "'" + v.ToString() + "'" : v.ToString();
}

// The seek range as the conjuncts it came from, key column by key column:
// "a_g_id = 0 AND a_pos >= 1000 AND a_pos < 1300".
std::string RangeText(const Schema& schema, const std::vector<int>& key,
                      const storage::KeyRange& range) {
  const size_t n = std::max(range.lower.size(), range.upper.size());
  std::vector<std::string> terms;
  for (size_t i = 0; i < n; ++i) {
    const std::string& name = schema.column(key[i]).name;
    const bool has_lo = i < range.lower.size();
    const bool has_hi = i < range.upper.size();
    const bool last = i + 1 == n;
    if (has_lo && has_hi && range.lower[i] == range.upper[i] &&
        (!last || (range.lower_inclusive && range.upper_inclusive))) {
      terms.push_back(name + " = " + BoundText(range.lower[i]));
      continue;
    }
    if (has_lo) {
      terms.push_back(name + (range.lower_inclusive ? " >= " : " > ") +
                      BoundText(range.lower[i]));
    }
    if (has_hi) {
      terms.push_back(name + (range.upper_inclusive ? " <= " : " < ") +
                      BoundText(range.upper[i]));
    }
  }
  return Join(terms, " AND ");
}

}  // namespace

std::string TableScanOp::Describe() const {
  if (seek_.has_value()) {
    return "Clustered Index Seek [" + table_->name + "] (" +
           RangeText(table_->schema, table_->clustered_key, *seek_) + ")";
  }
  std::string kind = table_->clustered_key.empty()
                         ? "Table Scan"
                         : "Clustered Index Scan";
  return kind + " [" + table_->name + "]";
}

Result<std::unique_ptr<storage::RowIterator>> ValuesOp::OpenImpl(
    ExecContext* ctx) {
  MemoryCharge charge(ctx->mem.get(), "Constant Scan");
  std::vector<RowBatch> batches;
  for (const auto& exprs : rows_) {
    Row row;
    row.reserve(exprs.size());
    for (const ExprPtr& e : exprs) {
      HTG_ASSIGN_OR_RETURN(Value v, e->Eval(&ctx->eval, Row{}));
      row.push_back(std::move(v));
    }
    HTG_RETURN_IF_ERROR(charge.Add(ApproxRowBytes(row)));
    if (batches.empty() || batches.back().full()) {
      batches.emplace_back(ctx->batch_rows);
    }
    batches.back().AppendRow(std::move(row));
  }
  RecordPeakMem(mutable_stats(), charge.peak());
  return {std::make_unique<MaterializedBatchesIterator>(std::move(batches),
                                                       std::move(charge))};
}

std::string ValuesOp::Describe() const {
  return StringPrintf("Constant Scan [%zu rows]", rows_.size());
}

OpenRowsetOp::OpenRowsetOp(std::string path) : path_(std::move(path)) {
  Column col;
  col.name = "BulkColumn";
  col.type = DataType::kBlob;
  schema_.AddColumn(col);
}

Result<std::unique_ptr<storage::RowIterator>> OpenRowsetOp::OpenImpl(
    ExecContext* ctx) {
  if (ctx->db == nullptr) {
    return Status::ExecError("OPENROWSET requires a database");
  }
  // Read the external file directly (it need not live in the store);
  // the Vfs seam keeps even ad-hoc imports fault-injectable.
  Result<std::string> read = storage::Vfs::Default()->ReadFileToString(path_);
  if (!read.ok()) {
    return Status::NotFound("OPENROWSET(BULK): cannot open " + path_ + ": " +
                            read.status().message());
  }
  Row row{Value::Blob(std::move(*read))};
  // The whole import is held in memory as one blob row; charge it.
  MemoryCharge charge(ctx->mem.get(), "Bulk Import");
  HTG_RETURN_IF_ERROR(charge.Add(ApproxRowBytes(row)));
  RecordPeakMem(mutable_stats(), charge.peak());
  std::vector<RowBatch> batches(1);
  batches[0].AppendRow(std::move(row));
  return {std::make_unique<MaterializedBatchesIterator>(std::move(batches),
                                                       std::move(charge))};
}

std::string OpenRowsetOp::Describe() const {
  return "Bulk Import [" + path_ + "]";
}

Result<std::unique_ptr<storage::RowIterator>> FilterOp::OpenImpl(
    ExecContext* ctx) {
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> child,
                       child_->Open(ctx));
  return {std::make_unique<FilterBatchIterator>(std::move(child),
                                                predicate_.get(), &ctx->eval)};
}

std::string FilterOp::Describe() const {
  return "Filter [" + predicate_->ToString() + "]";
}

ProjectOp::ProjectOp(OperatorPtr child, std::vector<ExprPtr> exprs,
                     std::vector<std::string> names)
    : child_(std::move(child)), exprs_(std::move(exprs)) {
  for (size_t i = 0; i < exprs_.size(); ++i) {
    Column col;
    col.name = i < names.size() ? names[i] : StringPrintf("col%zu", i);
    col.type = exprs_[i]->result_type();
    schema_.AddColumn(col);
  }
}

Result<std::unique_ptr<storage::RowIterator>> ProjectOp::OpenImpl(
    ExecContext* ctx) {
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> child,
                       child_->Open(ctx));
  return {std::make_unique<ProjectBatchIterator>(std::move(child), &exprs_,
                                                 &ctx->eval, ctx->batch_rows)};
}

std::string ProjectOp::Describe() const {
  std::string out = "Compute Scalar [";
  for (size_t i = 0; i < exprs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += exprs_[i]->ToString();
  }
  out += "]";
  return out;
}

Result<std::unique_ptr<storage::RowIterator>> TopOp::OpenImpl(ExecContext* ctx) {
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> child,
                       child_->Open(ctx));
  return {std::make_unique<TopBatchIterator>(std::move(child), limit_,
                                             ctx->batch_rows, ctx->mem.get())};
}

std::string TopOp::Describe() const {
  return StringPrintf("Top [%lld]", static_cast<long long>(limit_));
}

}  // namespace htg::exec
