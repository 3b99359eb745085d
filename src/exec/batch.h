#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "common/memory.h"
#include "common/result.h"
#include "storage/table.h"
#include "types/row_batch.h"

namespace htg::exec {

// Base class for the executor's batch-producing iterators (filter,
// project, top, sequence project, CROSS APPLY, materialized batches).
// Subclasses implement ProduceBatch(); NextBatch() forwards to it and
// ticks the exec.batch.* metrics so batch throughput shows up next to the
// morsel counters.
//
// Error contract matches storage::RowIterator: a false return means end
// of stream or error; status() distinguishes.
class BatchIterator : public storage::RowIterator {
 public:
  bool NextBatch(RowBatch* batch) final;

  Status status() const override { return status_; }

 protected:
  // Clears and fills `batch` with up to its capacity of rows. Returns
  // true iff at least one live row was produced; on error, sets status_
  // and returns false.
  virtual bool ProduceBatch(RowBatch* batch) = 0;

  Status status_;
};

// Row-at-a-time view of a batch stream, for the consumers whose algorithm
// is inherently per row: the hash join's build side, merge and
// nested-loop joins, CROSS APPLY's outer side, stream aggregate and
// INSERT ... SELECT. It refills a batch it owns and hands each live row
// out by moving its values, so no value is copied. Every refill adds its
// rows to exec.batch.fillrow_rows, the count of rows crossing from
// batches back into row form (the paper's §5.2 seam).
class RowReader {
 public:
  // Refills hold at most this many rows: each row is touched once right
  // after the refill, so a batch that stays in cache beats a full-size one
  // (on a 4-core Xeon a traced dge-bin run put the join at 1142 ns/row
  // with 1024-row refills and 800 with 128).
  static constexpr size_t kMaxRows = 128;

  explicit RowReader(storage::RowIterator* iter,
                     size_t batch_rows = RowBatch::kDefaultRows)
      : iter_(iter), batch_(std::min(batch_rows, kMaxRows)) {}

  // Moves the next row into `row`. Returns false at end of stream or on
  // error (status() distinguishes).
  bool Next(Row* row);

  Status status() const { return iter_->status(); }

 private:
  storage::RowIterator* iter_;
  RowBatch batch_;
  size_t pos_ = 0;
};

// Iterator over an operator's materialized output (sort, aggregates,
// constant scan, bulk import, the parallel gather) and the MemoryCharge
// that accounts for it. Each batch releases its share of the charge as it
// leaves, and the last batch the rest, so the charge covers only what is
// still held: a consumer that charges the rows it keeps (a Sort above an
// aggregate or a gather) does not count them a second time.
class MaterializedBatchesIterator : public BatchIterator {
 public:
  MaterializedBatchesIterator(std::vector<RowBatch> batches,
                              MemoryCharge charge)
      : batches_(std::move(batches)), charge_(std::move(charge)) {}

 protected:
  bool ProduceBatch(RowBatch* batch) override;

 private:
  std::vector<RowBatch> batches_;
  MemoryCharge charge_;
  size_t next_ = 0;
};

// Drains `iter` into freshly allocated batches of `batch_rows` capacity,
// appending them to `out` (empty batches are not stored).
Status DrainBatches(storage::RowIterator* iter, size_t batch_rows,
                    std::vector<RowBatch>* out);

}  // namespace htg::exec
