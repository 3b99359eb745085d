#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "catalog/database.h"
#include "common/memory.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "exec/expression.h"
#include "storage/mvcc.h"
#include "storage/table.h"
#include "storage/tablespace.h"
#include "types/schema.h"

namespace htg::exec {

// Per-execution state threaded through every operator.
struct ExecContext {
  Database* db = nullptr;
  ThreadPool* pool = nullptr;
  int dop = 1;
  // EXPLAIN ANALYZE: time Open/NextBatch/close and count rows per operator.
  // Off by default so normal queries pay nothing for the stats machinery.
  bool collect_stats = false;
  // Rows per RowBatch pulled between operators.
  size_t batch_rows = RowBatch::kDefaultRows;
  // Query-scoped memory budget shared by every operator (and every
  // morsel-worker copy of this context). Default: unlimited.
  std::shared_ptr<MemoryContext> mem = std::make_shared<MemoryContext>();
  // Where over-budget operators write spill runs; null disables spilling
  // (over-budget statements fail with kResourceExhausted instead).
  storage::TableSpace* tablespace = nullptr;
  // Fan-out of one partition-spill pass (hash aggregate / hash join).
  size_t spill_partitions = 16;
  // MVCC visibility: when set, table scans bound themselves to this
  // snapshot (heap row-count prefix, clustered stamp filter) instead of
  // reading the live table tail. The pointer outlives the statement (it
  // points into the session's TxnContext or the engine's per-statement
  // pin) and is shared by every morsel-worker copy of this context.
  const storage::Snapshot* snapshot = nullptr;
  // The reading transaction's id — a transaction always sees its own
  // uncommitted writes. kFrozenTxn outside any transaction.
  storage::TxnId txn_id = storage::kFrozenTxn;
  udf::EvalContext eval;

  // True when an over-budget operator may degrade to disk instead of
  // failing the statement.
  bool CanSpill() const {
    return mem->spill_enabled() && tablespace != nullptr;
  }

  static ExecContext For(Database* db) {
    ExecContext ctx;
    ctx.db = db;
    ctx.pool = &ThreadPool::Default();
    ctx.dop = db != nullptr ? db->options().max_dop : 1;
    if (db != nullptr) {
      ctx.batch_rows = db->options().ResolvedBatchRows();
      ctx.mem = std::make_shared<MemoryContext>(
          db->options().ResolvedQueryMemBytes(),
          db->options().ResolvedSpillEnabled());
      ctx.tablespace = db->tablespace();
      ctx.spill_partitions = db->options().spill_partitions;
      ctx.eval = db->MakeEvalContext();
    }
    return ctx;
  }
};

// Runtime counters for one plan operator, filled only under
// ExecContext::collect_stats. Atomic because parallel plans feed one
// operator's stats from several morsel workers at once. Exchange
// operators additionally record per-worker totals (skew diagnosis).
struct OperatorStats {
  std::atomic<uint64_t> open_calls{0};  // streams opened (morsel replays)
  std::atomic<uint64_t> rows_out{0};
  std::atomic<uint64_t> batches_out{0};  // NextBatch calls that produced rows
  std::atomic<uint64_t> open_ns{0};
  std::atomic<uint64_t> next_ns{0};   // cumulative time inside NextBatch
  std::atomic<uint64_t> close_ns{0};  // iterator teardown
  // Memory governance: high-water of bytes this operator had charged
  // against the query's MemoryContext, and its spill activity. Written
  // unconditionally (rare events, atomics) so EXPLAIN ANALYZE is honest
  // even when only some stats collection ran.
  std::atomic<uint64_t> peak_mem_bytes{0};
  std::atomic<uint64_t> spill_runs{0};
  std::atomic<uint64_t> spill_bytes{0};
  // Indexed by dense worker id; sized by the exchange operator at Open.
  // Each slot is written by exactly one worker thread.
  std::vector<uint64_t> worker_rows;
  std::vector<uint64_t> worker_morsels;
  std::vector<uint64_t> worker_batches;
};

// Fetch-max into an operator's peak-mem counter (several charges per
// operator, possibly from concurrent workers).
inline void RecordPeakMem(OperatorStats* stats, uint64_t bytes) {
  uint64_t prev = stats->peak_mem_bytes.load(std::memory_order_relaxed);
  while (bytes > prev && !stats->peak_mem_bytes.compare_exchange_weak(
                             prev, bytes, std::memory_order_relaxed)) {
  }
}

// A physical plan node. Open() builds the pull-based row stream; the tree
// structure is also what EXPLAIN prints.
class Operator {
 public:
  virtual ~Operator() = default;

  virtual const Schema& output_schema() const = 0;

  // Non-virtual entry point: forwards to OpenImpl, and when the context
  // collects stats, times the call and wraps the returned iterator so
  // rows and NextBatch() time accumulate into stats(). The fast path is a
  // single branch.
  Result<std::unique_ptr<storage::RowIterator>> Open(ExecContext* ctx);

  // One-line plan description, e.g. "Hash Match (Aggregate) [groups=1]".
  virtual std::string Describe() const = 0;
  virtual std::vector<const Operator*> children() const { return {}; }

  // Planner cardinality estimate for ANALYZE's actual-vs-estimated
  // column; negative when unknown.
  virtual int64_t EstimateRows() const { return -1; }

  // Stats are execution telemetry, not plan state: mutable so morsel
  // pipeline clones can be pointed at the stats of the EXPLAIN tree node
  // they replay (SetStatsSink), which the renderer walks const.
  OperatorStats* mutable_stats() const { return sink_; }
  const OperatorStats& stats() const { return *sink_; }
  void SetStatsSink(OperatorStats* sink) const { sink_ = sink; }

 protected:
  virtual Result<std::unique_ptr<storage::RowIterator>> OpenImpl(
      ExecContext* ctx) = 0;

 private:
  mutable OperatorStats stats_;
  mutable OperatorStats* sink_ = &stats_;
};

using OperatorPtr = std::unique_ptr<Operator>;

// Renders the plan tree, most SQL-Server-showplan-looking thing we print:
//
//   Sequence Project (ROW_NUMBER)
//     Sort [COUNT(*) DESC]
//       Gather Streams (DOP=4)
//         Hash Match (Partial Aggregate) ...
std::string ExplainPlan(const Operator& root);

// Renders the plan tree annotated with runtime stats. Only meaningful
// after the plan ran with ExecContext::collect_stats set; operators that
// never opened (EXPLAIN-only markers) print without an annotation.
//
//   Hash Match (Aggregate) [...] (actual rows=4, est rows=?, time=1.2 ms)
//     Filter [...] (actual rows=600, est rows=333, time=0.8 ms)
std::string ExplainAnalyzePlan(const Operator& root);

// Drains `iter`, appending every row to `rows`. Pulls batches and moves
// rows out of them, so pipelines stay vectorized up to the final
// materialization.
Status DrainIterator(storage::RowIterator* iter, std::vector<Row>* rows);

// Wraps an iterator so rows passed through are counted into *counter
// (single-writer; exchange operators use one slot per worker). When
// `batch_counter` is non-null, NextBatch calls that produce rows are
// counted into it too (worker batch-skew diagnosis).
std::unique_ptr<storage::RowIterator> WrapCounting(
    std::unique_ptr<storage::RowIterator> inner, uint64_t* counter,
    uint64_t* batch_counter = nullptr);

}  // namespace htg::exec
