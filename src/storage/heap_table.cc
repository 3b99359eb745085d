#include "storage/heap_table.h"

#include <limits>

#include "common/metrics.h"

namespace htg::storage {

class HeapTable::ScanIterator : public RowIterator {
 public:
  // `tail_rows` caps the number of rows emitted from page end_page - 1
  // (0 = no cap) — how snapshot scans stop mid-page when the visible row
  // limit falls inside a sealed page.
  ScanIterator(HeapTable* table, size_t first_page, size_t end_page,
               uint64_t tail_rows = 0)
      : table_(table),
        page_index_(first_page),
        end_page_(end_page),
        tail_rows_(tail_rows) {}

  // Decodes page rows straight into the batch while the page pin is
  // held.
  bool NextBatch(RowBatch* batch) override {
    batch->Clear();
    Row row;
    for (;;) {
      if (reader_ != nullptr) {
        while (!batch->full() && rows_left_ > 0 && reader_->Next(&row)) {
          --rows_left_;
          batch->AppendRow(std::move(row));
          row.clear();
        }
        if (batch->full()) return true;
        if (rows_left_ > 0) {
          status_ = reader_->status();
          if (!status_.ok()) return false;
        }
      }
      if (!AdvancePage()) return status_.ok() && batch->num_rows() > 0;
    }
  }

  Status status() const override { return status_; }

 private:
  // Positions reader_ on the next page of the range. Returns false at the
  // end of the range or on error (status_ distinguishes). The page fetch
  // runs under the table's shared lock so it cannot race a truncation
  // rewriting the page directory; the fetched image stays valid after the
  // lock drops (shared_ptr in memory mode, pin in pooled mode).
  bool AdvancePage() {
    if (page_index_ >= end_page_) return false;
    Slice page;
    {
      ReaderMutexLock lock(&table_->mu_);
      if (page_index_ >= table_->page_rows_.size()) return false;
      if (table_->backing_ != nullptr) {
        auto pinned = table_->backing_->ReadPage(page_index_);
        if (!pinned.ok()) {
          status_ = std::move(pinned).status();
          return false;
        }
        // Drop the reader into the old page before unpinning it.
        reader_.reset();
        guard_ = std::move(pinned).value();
        page = guard_.data();
      } else {
        page_ref_ = table_->pages_[page_index_];
        page = Slice(*page_ref_);
      }
    }
    ++page_index_;
    rows_left_ = (page_index_ == end_page_ && tail_rows_ > 0)
                     ? tail_rows_
                     : std::numeric_limits<uint64_t>::max();
    HTG_METRIC_COUNTER("heap.page.reads")->Add(1);
    reader_ = std::make_unique<PageReader>(&table_->schema_, page);
    status_ = reader_->Init();
    if (!status_.ok()) {
      reader_.reset();
      return false;
    }
    return true;
  }

  HeapTable* table_;
  size_t page_index_;
  size_t end_page_;
  uint64_t tail_rows_;
  uint64_t rows_left_ = 0;  // cap on rows still to emit from this page
  PageGuard guard_;  // pin on the page reader_ is positioned on
  std::shared_ptr<const std::string> page_ref_;  // in-memory image keepalive
  std::unique_ptr<PageReader> reader_;
  Status status_;
};

namespace {

// Scan stand-in for a table whose in-progress page failed to seal.
class FailedIterator : public RowIterator {
 public:
  explicit FailedIterator(Status status) : status_(std::move(status)) {}
  bool NextBatch(RowBatch*) override { return false; }
  Status status() const override { return status_; }

 private:
  Status status_;
};

}  // namespace

HeapTable::HeapTable(Schema schema, Compression mode, size_t page_size)
    : schema_(std::move(schema)),
      mode_(mode),
      page_size_(page_size),
      builder_(&schema_, mode, page_size) {}

Status HeapTable::AttachStorage(TableSpace* space, const std::string& name) {
  if (num_rows() != 0 || backing_ != nullptr) {
    return Status::InvalidArgument(
        "AttachStorage requires an empty, unattached table");
  }
  HTG_ASSIGN_OR_RETURN(backing_, space->CreateTableFile(name));
  return Status::OK();
}

Status HeapTable::Insert(const Row& row) {
  MutexLock lock(&mu_);
  return InsertLocked(row);
}

Status HeapTable::InsertLocked(const Row& row) {
  HTG_RETURN_IF_ERROR(builder_.Add(row));
  num_rows_.fetch_add(1, std::memory_order_acq_rel);
  if (builder_.ShouldFlush()) HTG_RETURN_IF_ERROR(SealLocked());
  return Status::OK();
}

Status HeapTable::SealCurrentPage() {
  MutexLock lock(&mu_);
  return SealLocked();
}

Status HeapTable::SealLocked() {
  if (builder_.empty()) return Status::OK();
  const int rows = builder_.row_count();
  std::string page = builder_.Finish();
  page_rows_.push_back(rows);
  page_bytes_.push_back(static_cast<uint32_t>(page.size()));
  if (backing_ != nullptr) {
    auto page_no = backing_->AppendPage(std::move(page));
    if (!page_no.ok()) {
      // The rows of the failed page are gone; surface that rather than
      // pretending the table still holds them.
      page_rows_.pop_back();
      page_bytes_.pop_back();
      num_rows_.fetch_sub(static_cast<uint64_t>(rows),
                          std::memory_order_acq_rel);
      return std::move(page_no).status();
    }
  } else {
    pages_.push_back(std::make_shared<const std::string>(std::move(page)));
  }
  sealed_rows_ += static_cast<uint64_t>(rows);
  return Status::OK();
}

StorageStats HeapTable::Stats() const {
  ReaderMutexLock lock(&mu_);
  StorageStats stats;
  stats.rows = num_rows();
  stats.pages = page_rows_.size() + (builder_.empty() ? 0 : 1);
  for (uint32_t bytes : page_bytes_) stats.data_bytes += bytes;
  stats.data_bytes += builder_.raw_bytes();
  return stats;
}

size_t HeapTable::num_pages_sealed() const {
  ReaderMutexLock lock(&mu_);
  return page_rows_.size();
}

std::unique_ptr<RowIterator> HeapTable::NewScan() {
  MutexLock lock(&mu_);
  Status sealed = SealLocked();
  if (!sealed.ok()) return std::make_unique<FailedIterator>(std::move(sealed));
  return std::make_unique<ScanIterator>(this, 0, page_rows_.size());
}

std::unique_ptr<RowIterator> HeapTable::NewScanRange(size_t first_page,
                                                     size_t end_page) {
  MutexLock lock(&mu_);
  Status sealed = SealLocked();
  if (!sealed.ok()) return std::make_unique<FailedIterator>(std::move(sealed));
  return std::make_unique<ScanIterator>(
      this, first_page, std::min(end_page, page_rows_.size()));
}

Result<HeapTable::PrefixPlan> HeapTable::PlanVisiblePrefix(
    uint64_t row_limit) {
  MutexLock lock(&mu_);
  row_limit = std::min(row_limit, num_rows());
  // The limit counts committed rows; when it reaches into the builder,
  // seal so the rows have a scannable page image. (Appending writers are
  // unaffected: sealing mid-transaction just closes a page early.)
  if (row_limit > sealed_rows_) HTG_RETURN_IF_ERROR(SealLocked());
  PrefixPlan plan;
  uint64_t acc = 0;
  for (size_t i = 0; i < page_rows_.size() && acc < row_limit; ++i) {
    const uint64_t rows = static_cast<uint64_t>(page_rows_[i]);
    plan.end_page = i + 1;
    if (acc + rows > row_limit) {
      plan.tail_rows = row_limit - acc;
    } else if (acc + rows == row_limit) {
      plan.tail_rows = 0;
    }
    acc += rows;
  }
  return plan;
}

std::unique_ptr<RowIterator> HeapTable::NewScanPrefix(uint64_t row_limit) {
  Result<PrefixPlan> plan = PlanVisiblePrefix(row_limit);
  if (!plan.ok()) {
    return std::make_unique<FailedIterator>(std::move(plan).status());
  }
  return std::make_unique<ScanIterator>(this, 0, plan->end_page,
                                        plan->tail_rows);
}

std::unique_ptr<RowIterator> HeapTable::NewScanRangeCapped(
    size_t first_page, size_t end_page, uint64_t tail_rows) {
  return std::make_unique<ScanIterator>(this, first_page, end_page,
                                        tail_rows);
}

void HeapTable::Truncate() {
  MutexLock lock(&mu_);
  if (backing_ != nullptr) HTG_IGNORE_STATUS(backing_->DropTailPages(0));
  pages_.clear();
  page_rows_.clear();
  page_bytes_.clear();
  sealed_rows_ = 0;
  builder_ = PageBuilder(&schema_, mode_, page_size_);
  num_rows_.store(0, std::memory_order_release);
}

Status HeapTable::TruncateToRows(uint64_t target_rows) {
  MutexLock lock(&mu_);
  HTG_RETURN_IF_ERROR(SealLocked());
  if (target_rows >= num_rows()) return Status::OK();
  // Drop whole tail pages; if the boundary falls inside a page, re-insert
  // the surviving prefix of that page. Snapshot readers are safe: their
  // visible limit only covers committed rows, which are all below
  // target_rows, and any page image they already fetched stays alive
  // (shared_ptr / pin) with its surviving prefix intact.
  uint64_t rows = num_rows();
  size_t keep_pages = page_rows_.size();
  std::vector<Row> survivors;
  Status status;
  while (keep_pages > 0 && rows > target_rows) {
    const uint64_t page_rows =
        static_cast<uint64_t>(page_rows_[keep_pages - 1]);
    if (rows - page_rows < target_rows) {
      // Partial page: keep its first (target_rows - rows_before_it) rows.
      const uint64_t keep = target_rows - (rows - page_rows);
      PageGuard guard;
      Slice page;
      std::shared_ptr<const std::string> page_ref;
      if (backing_ != nullptr) {
        auto pinned = backing_->ReadPage(keep_pages - 1);
        if (pinned.ok()) {
          guard = std::move(pinned).value();
          page = guard.data();
        } else {
          status = std::move(pinned).status();
        }
      } else {
        page_ref = pages_[keep_pages - 1];
        page = Slice(*page_ref);
      }
      if (status.ok()) {
        PageReader reader(&schema_, page);
        status = reader.Init();
        if (status.ok()) {
          Row row;
          for (uint64_t i = 0; i < keep; ++i) {
            if (!reader.Next(&row)) {
              status = reader.status().ok()
                           ? Status::Internal("heap page ended before "
                                              "surviving rows were recovered")
                           : reader.status();
              break;
            }
            survivors.push_back(row);
          }
        }
      }
    }
    rows -= page_rows;
    --keep_pages;
  }
  if (backing_ != nullptr) {
    Status dropped = backing_->DropTailPages(keep_pages);
    if (!dropped.ok() && status.ok()) status = dropped;
  } else {
    pages_.resize(keep_pages);
  }
  uint64_t kept_sealed = 0;
  for (size_t i = 0; i < keep_pages; ++i) {
    kept_sealed += static_cast<uint64_t>(page_rows_[i]);
  }
  page_rows_.resize(keep_pages);
  page_bytes_.resize(keep_pages);
  sealed_rows_ = kept_sealed;
  num_rows_.store(rows, std::memory_order_release);
  for (const Row& r : survivors) {
    // Re-encoding rows that were valid on the dropped page; a failure here
    // means the undo lost rows and must not be silently swallowed.
    Status insert = InsertLocked(r);
    if (!insert.ok() && status.ok()) status = insert;
  }
  Status sealed = SealLocked();
  if (!sealed.ok() && status.ok()) status = sealed;
  return status;
}

}  // namespace htg::storage
