#include "exec/batch.h"

#include "common/metrics.h"

namespace htg::exec {

bool BatchIterator::NextBatch(RowBatch* batch) {
  if (!ProduceBatch(batch)) return false;
  HTG_METRIC_COUNTER("exec.batch.batches")->Add(1);
  HTG_METRIC_COUNTER("exec.batch.rows")->Add(batch->ActiveRows());
  return true;
}

bool RowReader::Next(Row* row) {
  while (pos_ >= batch_.ActiveRows()) {
    if (!iter_->NextBatch(&batch_)) {
      batch_.Clear();
      pos_ = 0;
      return false;
    }
    pos_ = 0;
    HTG_METRIC_COUNTER("exec.batch.fillrow_rows")->Add(batch_.ActiveRows());
  }
  // Selection vectors never repeat a physical row, so moving the values
  // out of the batch (refilled before it is read again) is safe.
  const size_t r = batch_.ActiveIndex(pos_++);
  row->resize(batch_.num_columns());
  for (size_t c = 0; c < batch_.num_columns(); ++c) {
    (*row)[c] = std::move(batch_.column(c)[r]);
  }
  return true;
}

bool MaterializedBatchesIterator::ProduceBatch(RowBatch* batch) {
  while (next_ < batches_.size()) {
    *batch = std::move(batches_[next_++]);
    if (batch->ActiveRows() > 0) return true;
  }
  return false;
}

Status DrainBatches(storage::RowIterator* iter, size_t batch_rows,
                    std::vector<RowBatch>* out, uint64_t* rows) {
  for (;;) {
    RowBatch batch(batch_rows);
    if (!iter->NextBatch(&batch)) break;
    if (batch.ActiveRows() == 0) continue;
    *rows += batch.ActiveRows();
    out->push_back(std::move(batch));
  }
  return iter->status();
}

}  // namespace htg::exec
