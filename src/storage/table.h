#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/row_codec.h"
#include "types/row_batch.h"
#include "types/schema.h"
#include "types/value.h"

namespace htg::storage {

// Pull-based batch cursor, the one protocol between operators and the
// engine's universal scan interface.
class RowIterator {
 public:
  virtual ~RowIterator() = default;

  // Produces the next batch of rows: clears `batch` and fills it up to
  // its capacity. Returns true iff at least one live row was produced;
  // false means end of stream or error (check status()).
  virtual bool NextBatch(RowBatch* batch) = 0;

  virtual Status status() const { return Status::OK(); }
};

// Base of the producers that are naturally one row at a time: TVF
// iterators (the paper's Fig. 5 FillRow contract), spill-run readers,
// join and stream-aggregate outputs. Subclasses implement NextRow();
// NextBatch() loops it, moving each row's values into the batch columns.
class RowSource : public RowIterator {
 public:
  bool NextBatch(RowBatch* batch) final {
    batch->Clear();
    Row row;
    while (!batch->full() && NextRow(&row)) {
      batch->AppendRow(std::move(row));
      row.clear();
    }
    return batch->num_rows() > 0;
  }

 protected:
  // Produces the next row. Returns false at end of stream or on error
  // (status() distinguishes).
  virtual bool NextRow(Row* row) = 0;
};

// Physical storage accounting, the measurement behind Tables 1 and 2.
struct StorageStats {
  uint64_t rows = 0;
  uint64_t pages = 0;
  // Bytes of serialized page data (relational storage).
  uint64_t data_bytes = 0;
  // Bytes held externally in the FileStream store for this table.
  uint64_t filestream_bytes = 0;

  uint64_t TotalBytes() const { return data_bytes + filestream_bytes; }
};

// Base interface of heap and clustered (B+-tree) tables.
class TableStorage {
 public:
  virtual ~TableStorage() = default;

  virtual const Schema& schema() const = 0;
  virtual Compression compression() const = 0;

  virtual Status Insert(const Row& row) = 0;
  virtual uint64_t num_rows() const = 0;
  virtual StorageStats Stats() const = 0;

  // Full scan. Heap order for heaps, key order for clustered tables.
  virtual std::unique_ptr<RowIterator> NewScan() = 0;

  // Removes all rows.
  virtual void Truncate() = 0;

  // Key columns of the clustered index; empty for heaps.
  virtual const std::vector<int>& clustered_key() const {
    static const std::vector<int>& empty = *new std::vector<int>();
    return empty;
  }

  // Range scan from the first row with key >= prefix. Only clustered
  // tables support this.
  virtual Result<std::unique_ptr<RowIterator>> NewScanFrom(const Row& prefix) {
    (void)prefix;
    return Status::NotImplemented("table has no clustered index");
  }
};

}  // namespace htg::storage

