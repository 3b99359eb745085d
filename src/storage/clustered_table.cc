#include "storage/clustered_table.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <tuple>

#include "common/crc32c.h"
#include "common/string_util.h"
#include "storage/page.h"

namespace htg::storage {

namespace {

// Pooled-mode leaf reference: where one row's payload lives in the
// table's leaf-page file.
struct LeafRef {
  uint32_t page_no = 0;
  uint32_t offset = 0;
  uint32_t length = 0;
};

constexpr size_t kLeafRefBytes = 12;

std::string EncodeLeafRef(const LeafRef& ref) {
  std::string out(kLeafRefBytes, '\0');
  std::memcpy(out.data(), &ref.page_no, 4);
  std::memcpy(out.data() + 4, &ref.offset, 4);
  std::memcpy(out.data() + 8, &ref.length, 4);
  return out;
}

Status DecodeLeafRef(const std::string& payload, LeafRef* ref) {
  if (payload.size() != kLeafRefBytes) {
    return Status::Corruption("clustered leaf reference has wrong size");
  }
  std::memcpy(&ref->page_no, payload.data(), 4);
  std::memcpy(&ref->offset, payload.data() + 4, 4);
  std::memcpy(&ref->length, payload.data() + 8, 4);
  return Status::OK();
}

// Verifies the per-row CRC32C trailer and decodes the row image.
Status DecodePayload(const Schema& schema, Compression row_mode,
                     Slice payload, Row* row) {
  if (payload.size() < 4) {
    return Status::Corruption("clustered leaf payload too small");
  }
  const size_t body = payload.size() - 4;
  uint32_t expected = 0;
  for (int i = 0; i < 4; ++i) {
    expected |= static_cast<uint32_t>(
                    static_cast<unsigned char>(payload[body + i]))
                << (8 * i);
  }
  const uint32_t actual = Crc32c(payload.data(), body);
  if (expected != actual) {
    return Status::Corruption(
        StringPrintf("clustered leaf checksum mismatch "
                     "(stored %08x, computed %08x)",
                     expected, actual));
  }
  return DecodeRow(schema, row_mode, Slice(payload.data(), body), row);
}

// Full-key comparison, shorter keys sort first on ties (mirrors the
// B+-tree's internal ordering; snapshot scans use it to resume).
int CompareFull(const Row& a, const Row& b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    const int r = a[i].Compare(b[i]);
    if (r != 0) return r;
  }
  if (a.size() < b.size()) return -1;
  if (a.size() > b.size()) return 1;
  return 0;
}

}  // namespace

Status ClusteredTable::DecodeEntryLocked(const std::string& payload,
                                         PageGuard* guard, Row* row) const {
  if (backing_ == nullptr) {
    return DecodePayload(schema_, row_mode_, Slice(payload), row);
  }
  LeafRef ref;
  HTG_RETURN_IF_ERROR(DecodeLeafRef(payload, &ref));
  Slice page;
  if (ref.page_no == backing_->num_pages()) {
    // Still in the in-progress leaf page; the latch (held by the caller)
    // keeps the buffer stable against concurrent inserts.
    page = Slice(leaf_buf_);
  } else {
    // Key order visits runs of rows on the same leaf page; keep the
    // pin across the run instead of re-fetching per row.
    if (!guard->valid() || guard->page_no() != ref.page_no) {
      auto pinned = backing_->ReadPage(ref.page_no);
      if (!pinned.ok()) return std::move(pinned).status();
      *guard = std::move(pinned).value();
    }
    page = guard->data();
  }
  if (static_cast<uint64_t>(ref.offset) + ref.length > page.size()) {
    return Status::Corruption("clustered leaf reference out of bounds");
  }
  return DecodePayload(schema_, row_mode_,
                       Slice(page.data() + ref.offset, ref.length), row);
}

// Legacy cursor scan: key-ordered walk assuming no concurrent DML (the
// library-mode contract — a cursor points into tree nodes between calls).
// Each call still takes the shared latch so field access is race-free
// against the MVCC write paths.
class ClusteredTable::ScanIterator : public RowIterator {
 public:
  ScanIterator(const ClusteredTable* table, BPlusTree::Cursor cursor)
      : table_(table), cursor_(cursor) {}

  // One cursor walk decodes a whole batch, reusing the leaf-page pin
  // across the run of rows that share a page.
  bool NextBatch(RowBatch* batch) override {
    batch->Clear();
    ReaderMutexLock lock(&table_->latch_);
    Row row;
    while (!batch->full() && cursor_.Valid()) {
      status_ = table_->DecodeEntryLocked(cursor_.payload(), &guard_, &row);
      if (!status_.ok()) return false;
      batch->AppendRow(std::move(row));
      row.clear();
      cursor_.Advance();
    }
    return batch->num_rows() > 0;
  }

  Status status() const override { return status_; }

 private:
  const ClusteredTable* table_;
  BPlusTree::Cursor cursor_;
  PageGuard guard_;  // pin on the sealed leaf page last resolved
  Status status_;
};

// MVCC snapshot scan: latch-per-refill with (key, visible-duplicate
// count) resume, so a concurrent writer's inserts (and splits they
// trigger) never invalidate scan state — the cursor is rebuilt from the
// key each refill. Entries are filtered by stamp visibility.
class ClusteredTable::SnapshotIterator : public RowIterator {
 public:
  SnapshotIterator(const ClusteredTable* table, Snapshot snap, TxnId self)
      : table_(table), snap_(std::move(snap)), self_(self) {}

  SnapshotIterator(const ClusteredTable* table, Snapshot snap, TxnId self,
                   Row seek)
      : table_(table),
        snap_(std::move(snap)),
        self_(self),
        seek_(std::move(seek)) {}

  bool NextBatch(RowBatch* batch) override {
    batch->Clear();
    for (;;) {
      while (!batch->full() && buffer_pos_ < buffer_.size()) {
        batch->AppendRow(std::move(buffer_[buffer_pos_++]));
      }
      if (batch->full()) return true;
      if (!Refill()) return status_.ok() && batch->num_rows() > 0;
    }
  }

  Status status() const override { return status_; }

 private:
  static constexpr size_t kFillRows = 256;

  bool Visible(TxnId stamp) const {
    return stamp == kFrozenTxn || stamp == self_ || snap_.Sees(stamp);
  }

  bool Refill() {
    buffer_.clear();
    buffer_pos_ = 0;
    if (done_ || !status_.ok()) return false;
    ReaderMutexLock lock(&table_->latch_);
    BPlusTree::Cursor cur = PositionLocked();
    Row row;
    while (buffer_.size() < kFillRows && cur.Valid()) {
      const Row& key = cur.key();
      if (!started_ || CompareFull(key, last_key_) != 0) {
        last_key_ = key;
        seen_vis_ = 0;
        started_ = true;
      }
      if (Visible(cur.stamp())) {
        status_ = table_->DecodeEntryLocked(cur.payload(), &guard_, &row);
        if (!status_.ok()) {
          done_ = true;
          buffer_.clear();
          return false;
        }
        buffer_.push_back(std::move(row));
        row.clear();
        ++seen_vis_;
      }
      cur.Advance();
    }
    if (!cur.Valid()) done_ = true;
    // Drop the pin between refills: a long-lived snapshot scan should not
    // hold buffer-pool frames while the caller processes the batch.
    guard_ = PageGuard();
    return !buffer_.empty();
  }

  // Rebuilds a cursor at the first entry not yet consumed: lower-bound
  // seek to the last key, then skip the visible duplicates already
  // returned. Correct because equal keys insert after existing equals
  // and GC only removes invisible (aborted) entries.
  BPlusTree::Cursor PositionLocked() HTG_REQUIRES_SHARED(table_->latch_) {
    if (!started_) {
      return seek_.has_value() ? table_->tree_.Seek(*seek_)
                               : table_->tree_.First();
    }
    BPlusTree::Cursor cur = table_->tree_.Seek(last_key_);
    uint64_t skipped = 0;
    while (cur.Valid() && skipped < seen_vis_ &&
           CompareFull(cur.key(), last_key_) == 0) {
      if (Visible(cur.stamp())) ++skipped;
      cur.Advance();
    }
    return cur;
  }

  const ClusteredTable* table_;
  const Snapshot snap_;
  const TxnId self_;
  const std::optional<Row> seek_;

  bool started_ = false;
  bool done_ = false;
  Row last_key_;
  uint64_t seen_vis_ = 0;  // visible entries of last_key_ already consumed
  std::vector<Row> buffer_;
  size_t buffer_pos_ = 0;
  PageGuard guard_;
  Status status_;
};

ClusteredTable::ClusteredTable(Schema schema, std::vector<int> key_columns,
                               Compression mode)
    : schema_(std::move(schema)),
      key_columns_(std::move(key_columns)),
      mode_(mode),
      row_mode_(mode == Compression::kNone ? Compression::kNone
                                           : Compression::kRow) {}

Status ClusteredTable::AttachStorage(TableSpace* space,
                                     const std::string& name) {
  MutexLock lock(&latch_);
  if (tree_.size() != 0 || backing_ != nullptr) {
    return Status::InvalidArgument(
        "AttachStorage requires an empty, unattached table");
  }
  HTG_ASSIGN_OR_RETURN(backing_, space->CreateTableFile(name));
  return Status::OK();
}

Status ClusteredTable::Insert(const Row& row) {
  MutexLock lock(&latch_);
  return InsertLocked(row, kFrozenTxn);
}

Status ClusteredTable::InsertStamped(const Row& row, TxnId txn) {
  MutexLock lock(&latch_);
  return InsertLocked(row, txn);
}

Status ClusteredTable::InsertLocked(const Row& row, TxnId txn) {
  Row key;
  key.reserve(key_columns_.size());
  for (int c : key_columns_) {
    if (c < 0 || c >= static_cast<int>(row.size())) {
      return Status::Internal("clustered key column out of range");
    }
    key.push_back(row[c]);
  }
  std::string payload;
  HTG_RETURN_IF_ERROR(EncodeRow(schema_, row, row_mode_, &payload));
  // Per-payload CRC32C trailer: leaf payloads are the clustered table's
  // durable row images, so scans detect in-memory or spilled corruption the
  // same way page decodes do.
  const uint32_t crc = Crc32c(payload.data(), payload.size());
  for (int i = 0; i < 4; ++i) {
    payload.push_back(static_cast<char>((crc >> (8 * i)) & 0xff));
  }
  if (backing_ == nullptr) {
    tree_.Insert(std::move(key), std::move(payload), txn);
    return Status::OK();
  }
  LeafRef ref;
  ref.page_no = static_cast<uint32_t>(backing_->num_pages());
  ref.offset = static_cast<uint32_t>(leaf_buf_.size());
  ref.length = static_cast<uint32_t>(payload.size());
  leaf_buf_.append(payload);
  payload_bytes_total_ += payload.size();
  tree_.Insert(std::move(key), EncodeLeafRef(ref), txn);
  if (leaf_buf_.size() >= kDefaultPageSize) {
    HTG_RETURN_IF_ERROR(SealLeafPage());
  }
  return Status::OK();
}

Status ClusteredTable::SealLeafPage() {
  if (leaf_buf_.empty()) return Status::OK();
  // Page-level CRC32C trailer, the format the pool verifies on miss-fill.
  const uint32_t crc = Crc32c(leaf_buf_.data(), leaf_buf_.size());
  for (int i = 0; i < 4; ++i) {
    leaf_buf_.push_back(static_cast<char>((crc >> (8 * i)) & 0xff));
  }
  const uint64_t expected_page = backing_->num_pages();
  HTG_ASSIGN_OR_RETURN(const uint64_t page_no,
                       backing_->AppendPage(std::move(leaf_buf_)));
  leaf_buf_.clear();
  if (page_no != expected_page) {
    return Status::Internal("clustered leaf page numbering out of sync");
  }
  return Status::OK();
}

uint64_t ClusteredTable::num_rows() const {
  ReaderMutexLock lock(&latch_);
  return tree_.size() - std::min(tree_.size(), dead_rows_);
}

StorageStats ClusteredTable::Stats() const {
  ReaderMutexLock lock(&latch_);
  StorageStats stats;
  stats.rows = tree_.size() - std::min(tree_.size(), dead_rows_);
  stats.pages = tree_.num_nodes();
  // payload_bytes_total_ mirrors what tree_.payload_bytes() holds in the
  // in-memory mode, so the Table 1/2 numbers do not depend on residency.
  const uint64_t payload_bytes =
      backing_ == nullptr ? tree_.payload_bytes() : payload_bytes_total_;
  stats.data_bytes = payload_bytes + tree_.ApproxNodeBytes();
  return stats;
}

std::unique_ptr<RowIterator> ClusteredTable::NewScan() {
  ReaderMutexLock lock(&latch_);
  return std::make_unique<ScanIterator>(this, tree_.First());
}

Result<std::unique_ptr<RowIterator>> ClusteredTable::NewScanFrom(
    const Row& prefix) {
  if (prefix.size() > key_columns_.size()) {
    return Status::InvalidArgument("seek key longer than clustered key");
  }
  ReaderMutexLock lock(&latch_);
  return {std::make_unique<ScanIterator>(this, tree_.Seek(prefix))};
}

std::unique_ptr<RowIterator> ClusteredTable::NewSnapshotScan(Snapshot snap,
                                                             TxnId self) {
  return std::make_unique<SnapshotIterator>(this, std::move(snap), self);
}

Result<std::unique_ptr<RowIterator>> ClusteredTable::NewSnapshotScanFrom(
    const Row& prefix, Snapshot snap, TxnId self) {
  if (prefix.size() > key_columns_.size()) {
    return Status::InvalidArgument("seek key longer than clustered key");
  }
  return {std::make_unique<SnapshotIterator>(this, std::move(snap), self,
                                             prefix)};
}

void ClusteredTable::MarkAborted(uint64_t count) {
  MutexLock lock(&latch_);
  dead_rows_ += count;
}

uint64_t ClusteredTable::SweepAborted(const std::vector<TxnId>& aborted) {
  if (aborted.empty()) return 0;
  MutexLock lock(&latch_);
  // Sweep by stamp match alone — never gate on dead_rows_. The caller
  // retires an aborted id from the allocator's set right after this
  // sweep, so any entry it missed (say, an abort whose MarkAborted
  // accounting was lost) would become visible to every later snapshot
  // once Snapshot::Sees stops recognizing the id as aborted. A scan that
  // matches nothing is read-only and cheap.
  std::vector<std::tuple<Row, std::string, uint64_t>> keep;
  keep.reserve(tree_.size());
  uint64_t removed = 0;
  uint64_t removed_bytes = 0;
  for (BPlusTree::Cursor cur = tree_.First(); cur.Valid(); cur.Advance()) {
    if (std::binary_search(aborted.begin(), aborted.end(), cur.stamp())) {
      ++removed;
      if (backing_ != nullptr) {
        LeafRef ref;
        if (DecodeLeafRef(cur.payload(), &ref).ok()) {
          removed_bytes += ref.length;
        }
      }
      continue;
    }
    keep.emplace_back(cur.key(), cur.payload(), cur.stamp());
  }
  if (removed == 0) return 0;
  tree_.Clear();
  for (auto& [key, payload, stamp] : keep) {
    tree_.Insert(std::move(key), std::move(payload), stamp);
  }
  // Pooled mode: the swept payload bytes stay as dead space in the leaf
  // pages (accounting only; the space is not reclaimed).
  payload_bytes_total_ -= std::min(payload_bytes_total_, removed_bytes);
  dead_rows_ -= std::min(dead_rows_, removed);
  return removed;
}

void ClusteredTable::Truncate() {
  MutexLock lock(&latch_);
  tree_.Clear();
  leaf_buf_.clear();
  payload_bytes_total_ = 0;
  dead_rows_ = 0;
  if (backing_ != nullptr) HTG_IGNORE_STATUS(backing_->DropTailPages(0));
}

}  // namespace htg::storage
