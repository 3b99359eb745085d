// Fixture: a src/exec batch kernel that secretly degrades to per-row
// pulls through a RowReader. Both detection paths must fire on the same
// pattern: a class deriving BatchIterator, and a free function whose name
// contains Batch.
// expect-lint: exec-batch-rowloop

#include "exec/batch.h"

namespace htg::exec {

class LeakyBatchScan : public BatchIterator {
 public:
  explicit LeakyBatchScan(storage::RowIterator* child) : rows_(child) {}

 protected:
  bool ProduceBatch(RowBatch* batch) override {
    batch->Clear();
    Row row;
    while (!batch->full() && rows_.Next(&row)) {
      batch->AppendRow(std::move(row));
      row.clear();
    }
    return batch->num_rows() > 0;
  }

 private:
  RowReader rows_;
};

inline Status DrainOneBatch(RowReader* rows, RowBatch* batch) {
  batch->Clear();
  Row row;
  while (!batch->full() && rows->Next(&row)) {
    batch->AppendRow(std::move(row));
    row.clear();
  }
  return rows->status();
}

}  // namespace htg::exec
