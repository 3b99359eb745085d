#include "exec/parallel.h"

#include <algorithm>
#include <atomic>

#include "common/metrics.h"
#include "common/string_util.h"
#include "common/synchronization.h"
#include "exec/batch.h"
#include "storage/heap_table.h"

namespace htg::exec {

std::vector<Morsel> MakeMorsels(size_t num_pages, size_t morsel_pages) {
  std::vector<Morsel> morsels;
  if (morsel_pages == 0) morsel_pages = 1;
  morsels.reserve(num_pages / morsel_pages + 1);
  for (size_t p = 0; p < num_pages; p += morsel_pages) {
    morsels.push_back({p, std::min(p + morsel_pages, num_pages)});
  }
  return morsels;
}

size_t ChooseMorselPages(size_t num_pages, int dop) {
  if (dop < 1) dop = 1;
  // Aim for ~4 morsels per worker so the shared counter can rebalance
  // skew, but never below one page per morsel.
  const size_t target = num_pages / (4 * static_cast<size_t>(dop));
  return std::min(kDefaultMorselPages, std::max<size_t>(1, target));
}

Status ParallelDrainMorsels(ThreadPool* pool, int dop, size_t num_morsels,
                            const std::function<Status(int, size_t)>& fn) {
  if (num_morsels == 0) return Status::OK();
  HTG_METRIC_COUNTER("exec.morsels.dispatched")->Add(num_morsels);
  if (dop < 1) dop = 1;
  dop = std::min<size_t>(dop, num_morsels);
  if (dop == 1 || pool == nullptr) {
    for (size_t i = 0; i < num_morsels; ++i) {
      HTG_RETURN_IF_ERROR(fn(0, i));
    }
    return Status::OK();
  }
  // Shared-counter work stealing. As in ThreadPool::ParallelFor, the
  // caller drains morsels itself (as worker 0), so completion never
  // depends on the helper tasks being scheduled — helpers that start late
  // find the counter exhausted and return. The state is shared-owned
  // because such helpers can outlive this call. After a failure, workers
  // keep claiming (so the completed count still reaches num_morsels) but
  // skip the actual work.
  struct State {
    std::atomic<size_t> next{0};
    std::atomic<int> next_worker{1};  // 0 is the caller
    std::atomic<bool> failed{false};
    size_t n = 0;
    int dop = 0;
    std::function<Status(int, size_t)> fn;
    // Per-worker slots: worker w writes statuses[w] only; the caller
    // reads them after the completion barrier below (the cv handshake
    // publishes the writes).
    std::vector<Status> statuses;
    Mutex mu{"ParallelDrainMorsels::mu"};
    CondVar cv;
    size_t completed HTG_GUARDED_BY(mu) = 0;
  };
  auto state = std::make_shared<State>();
  state->n = num_morsels;
  state->dop = dop;
  state->fn = fn;
  state->statuses.assign(dop, Status::OK());
  auto drain = [](const std::shared_ptr<State>& s, int worker) {
    for (size_t i = s->next.fetch_add(1); i < s->n;
         i = s->next.fetch_add(1)) {
      // A morsel drained by a helper rather than the caller was "stolen"
      // off the shared counter — the steal rate is the load-balance signal.
      if (worker != 0) HTG_METRIC_COUNTER("exec.morsels.stolen")->Add(1);
      if (!s->failed.load(std::memory_order_acquire)) {
        Status status = s->fn(worker, i);
        if (!status.ok()) {
          s->statuses[worker] = std::move(status);
          s->failed.store(true, std::memory_order_release);
        }
      }
      bool all_done = false;
      {
        MutexLock lock(&s->mu);
        all_done = ++s->completed == s->n;
      }
      if (all_done) s->cv.NotifyAll();
    }
  };
  for (int w = 1; w < dop; ++w) {
    pool->Submit([state, drain] {
      const int worker = state->next_worker.fetch_add(1);
      if (worker < state->dop) drain(state, worker);
    });
  }
  drain(state, 0);
  {
    MutexLock lock(&state->mu);
    while (state->completed != state->n) state->cv.Wait(&state->mu);
  }
  for (Status& s : state->statuses) {
    HTG_RETURN_IF_ERROR(std::move(s));
  }
  return Status::OK();
}

// --------------------------------------------------------------------------
// DistributeStreamsOp.
// --------------------------------------------------------------------------

DistributeStreamsOp::DistributeStreamsOp(OperatorPtr scan, int dop,
                                         size_t morsel_pages)
    : scan_(std::move(scan)),
      dop_(dop < 1 ? 1 : dop),
      morsel_pages_(morsel_pages) {}

Result<std::unique_ptr<storage::RowIterator>> DistributeStreamsOp::OpenImpl(
    ExecContext* ctx) {
  if (!ctx->morsel.has_value()) {
    return Status::Internal(
        "Distribute Streams opened outside an exchange (no morsel in the "
        "context)");
  }
  return scan_->Open(ctx);
}

std::string DistributeStreamsOp::Describe() const {
  return StringPrintf(
      "Parallelism (Distribute Streams) [DOP=%d, morsels of %zu pages]", dop_,
      morsel_pages_);
}

catalog::TableDef* DistributeStreamsOp::table() const {
  const auto* scan = dynamic_cast<const TableScanOp*>(scan_.get());
  return scan == nullptr ? nullptr : scan->table();
}

const DistributeStreamsOp* FindDistribute(const Operator* subtree) {
  for (const Operator* op = subtree; op != nullptr;) {
    if (const auto* d = dynamic_cast<const DistributeStreamsOp*>(op)) {
      return d;
    }
    const std::vector<const Operator*> kids = op->children();
    op = kids.size() == 1 ? kids[0] : nullptr;
  }
  return nullptr;
}

Result<MorselSplit> SplitMorsels(const DistributeStreamsOp* distribute) {
  catalog::TableDef* table =
      distribute == nullptr ? nullptr : distribute->table();
  auto* heap = table == nullptr
                   ? nullptr
                   : dynamic_cast<storage::HeapTable*>(table->table.get());
  if (heap == nullptr) {
    return Status::Internal(
        "exchange without a Distribute Streams over a heap scan below it");
  }
  HTG_RETURN_IF_ERROR(heap->SealCurrentPage());
  MorselSplit split;
  split.morsels =
      MakeMorsels(heap->num_pages_sealed(), distribute->morsel_pages());
  split.dop = static_cast<int>(std::min<size_t>(
      distribute->dop(), std::max<size_t>(1, split.morsels.size())));
  return split;
}

Status OpenPerMorsel(
    Operator* subtree, const MorselSplit& split, ExecContext* ctx,
    OperatorStats* stats,
    const std::function<Status(int, size_t, ExecContext*,
                               storage::RowIterator*)>& consume) {
  const int dop = split.dop;
  if (ctx->collect_stats) {
    stats->worker_rows.assign(dop, 0);
    stats->worker_morsels.assign(dop, 0);
    stats->worker_batches.assign(dop, 0);
  }
  // Each worker evaluates expressions through its own EvalContext copy;
  // the subtree's operators and expression trees are shared read-only.
  std::vector<ExecContext> worker_ctx(dop, *ctx);
  return ParallelDrainMorsels(
      ctx->pool, dop, split.morsels.size(),
      [&](int worker, size_t m) -> Status {
        ExecContext* wctx = &worker_ctx[worker];
        wctx->morsel = split.morsels[m];
        HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> iter,
                             subtree->Open(wctx));
        if (ctx->collect_stats) {
          // The rows (and batches) this worker feeds the exchange, for the
          // per-worker skew lines under it in ANALYZE output.
          iter = WrapCounting(std::move(iter), &stats->worker_rows[worker],
                              &stats->worker_batches[worker]);
          ++stats->worker_morsels[worker];
        }
        return consume(worker, m, wctx, iter.get());
      });
}

// --------------------------------------------------------------------------
// ParallelMapOp.
// --------------------------------------------------------------------------

ParallelMapOp::ParallelMapOp(OperatorPtr child)
    : child_(std::move(child)), distribute_(FindDistribute(child_.get())) {}

Result<std::unique_ptr<storage::RowIterator>> ParallelMapOp::OpenImpl(
    ExecContext* ctx) {
  HTG_ASSIGN_OR_RETURN(const MorselSplit split, SplitMorsels(distribute_));
  OperatorStats* stats = mutable_stats();

  // Workers drain morsels into per-morsel RowBatch buffers, so rows cross
  // the exchange without converting to row form. The buffers hold the
  // whole output until the gather, so they are charged to the query (as
  // they fill, unchecked: the gather never fails or spills on them).
  MemoryCharge charge(ctx->mem.get(), "Gather Streams");
  std::vector<std::vector<RowBatch>> buffers(split.morsels.size());
  HTG_RETURN_IF_ERROR(OpenPerMorsel(
      child_.get(), split, ctx, stats,
      [&](int, size_t m, ExecContext* wctx,
          storage::RowIterator* iter) -> Status {
        HTG_RETURN_IF_ERROR(DrainBatches(iter, wctx->batch_rows, &buffers[m]));
        size_t bytes = 0;
        for (const RowBatch& batch : buffers[m]) {
          bytes += ApproxBatchBytes(batch);
        }
        charge.AddUnchecked(bytes);
        return Status::OK();
      }));
  RecordPeakMem(stats, charge.peak());

  // Gather in morsel order: output matches the serial heap scan order.
  size_t total = 0;
  for (const std::vector<RowBatch>& b : buffers) total += b.size();
  std::vector<RowBatch> batches;
  batches.reserve(total);
  for (std::vector<RowBatch>& buffer : buffers) {
    for (RowBatch& batch : buffer) batches.push_back(std::move(batch));
  }
  return {std::make_unique<MaterializedBatchesIterator>(std::move(batches),
                                                       std::move(charge))};
}

std::string ParallelMapOp::Describe() const {
  return StringPrintf(
      "Parallelism (Gather Streams) [DOP=%d, order preserving]",
      distribute_ == nullptr ? 1 : distribute_->dop());
}

}  // namespace htg::exec
