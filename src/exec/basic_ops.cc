#include "exec/basic_ops.h"

#include "common/string_util.h"
#include "exec/batch.h"
#include "exec/spill_util.h"
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

TableScanOp::TableScanOp(catalog::TableDef* table, size_t first_page,
                         size_t end_page)
    : table_(table),
      has_range_(true),
      first_page_(first_page),
      end_page_(end_page) {}

TableScanOp::TableScanOp(catalog::TableDef* table, Row seek_prefix)
    : table_(table), has_seek_(true), seek_prefix_(std::move(seek_prefix)) {}

Result<std::unique_ptr<storage::RowIterator>> TableScanOp::OpenImpl(
    ExecContext* ctx) {
  // MVCC: with a snapshot in the context, bound the scan to the rows the
  // snapshot sees. This is the single interception point for both serial
  // plans and morsel pipelines (each morsel is a range-scan clone opened
  // with a worker copy of the same context).
  const storage::Snapshot* snap =
      ctx != nullptr && table_->mvcc != nullptr ? ctx->snapshot : nullptr;
  if (snap != nullptr) {
    if (auto* heap = dynamic_cast<storage::HeapTable*>(table_->table.get())) {
      const uint64_t limit =
          table_->mvcc->VisibleRows(*snap, ctx->txn_id, heap->num_rows());
      HTG_ASSIGN_OR_RETURN(const storage::HeapTable::PrefixPlan plan,
                           heap->PlanVisiblePrefix(limit));
      size_t first = 0;
      size_t end = plan.end_page;
      if (has_range_) {
        // Morsels past the visible prefix become empty scans.
        first = first_page_;
        if (end_page_ < end) {
          // The morsel ends before the prefix does: no mid-page cap.
          return {heap->NewScanRangeCapped(first, end_page_, 0)};
        }
      }
      return {heap->NewScanRangeCapped(first, end, plan.tail_rows)};
    }
    if (auto* clustered =
            dynamic_cast<storage::ClusteredTable*>(table_->table.get())) {
      if (has_seek_) {
        return clustered->NewSnapshotScanFrom(seek_prefix_, *snap,
                                              ctx->txn_id);
      }
      return {clustered->NewSnapshotScan(*snap, ctx->txn_id)};
    }
  }
  if (has_range_) {
    auto* heap = dynamic_cast<storage::HeapTable*>(table_->table.get());
    if (heap == nullptr) {
      return Status::Internal("page-range scan on non-heap table " +
                              table_->name);
    }
    return {heap->NewScanRange(first_page_, end_page_)};
  }
  if (has_seek_) {
    return table_->table->NewScanFrom(seek_prefix_);
  }
  return {table_->table->NewScan()};
}

int64_t TableScanOp::EstimateRows() const {
  const auto rows = static_cast<int64_t>(table_->table->num_rows());
  if (!has_range_) return rows;
  // Page-range partition: prorate by the fraction of sealed pages scanned.
  auto* heap = dynamic_cast<storage::HeapTable*>(table_->table.get());
  const size_t npages = heap != nullptr ? heap->num_pages_sealed() : 0;
  if (npages == 0) return rows;
  const size_t span = end_page_ > first_page_ ? end_page_ - first_page_ : 0;
  return static_cast<int64_t>(static_cast<uint64_t>(rows) * span / npages);
}

std::string TableScanOp::Describe() const {
  std::string kind = table_->clustered_key.empty()
                         ? "Table Scan"
                         : "Clustered Index Scan";
  std::string out = kind + " [" + table_->name + "]";
  if (has_range_) {
    out += StringPrintf(" pages [%zu, %zu)", first_page_, end_page_);
  }
  if (has_seek_) out += " (seek)";
  return out;
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
  return {std::make_unique<ChargedBatchesIterator>(std::move(batches),
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
  return {std::make_unique<ChargedBatchesIterator>(std::move(batches),
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
