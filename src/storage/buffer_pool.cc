#include "storage/buffer_pool.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdlib>
#include <cstring>

#include "common/crc32c.h"
#include "common/metrics.h"
#include "common/status.h"
#include "storage/page.h"

namespace htg::storage {

namespace {

// Page numbers share a 64-bit key with the file id: 24 bits of file id,
// 40 bits of page number (2^40 pages of 8 KiB is 8 EiB per file).
constexpr int kPageNoBits = 40;
constexpr uint64_t kPageNoMask = (uint64_t{1} << kPageNoBits) - 1;

uint32_t TrailerCrc(std::string_view page) {
  uint32_t stored = 0;
  std::memcpy(&stored, page.data() + page.size() - kPageChecksumBytes,
              kPageChecksumBytes);
  return stored;
}

}  // namespace

struct PageGuard::Frame {
  uint64_t key = 0;
  std::string bytes;
  std::atomic<int> pins{0};
  std::atomic<bool> referenced{true};
  // Guarded by BufferPool::mu_ (exclusive): write-back state and the
  // frame's position in the CLOCK vector.
  bool dirty = false;
  size_t clock_pos = 0;
};

// A fully resolved page read: everything Fetch needs to pread + verify
// without holding any pool lock.
struct BufferPool::ReadSpec {
  const RandomAccessFile* file = nullptr;
  uint64_t offset = 0;
  size_t length = 0;
  bool checksummed = false;
};

struct BufferPool::FileInfo {
  std::unique_ptr<RandomAccessFile> file;
  PagedFileOptions options;
  struct Extent {
    uint64_t offset = 0;
    uint32_t length = 0;
  };
  // Indexed by page number; only used when options.fixed_page_bytes == 0.
  std::vector<Extent> extents;
  // Dirty page numbers form a contiguous tail of the append order, so the
  // lowest not-yet-written page is enough to drive ordered write-back.
  uint64_t next_writeback_page = 0;
  uint64_t max_dirty_page = 0;
  bool has_dirty = false;
};

PageGuard::PageGuard(PageGuard&& other) noexcept : frame_(other.frame_) {
  other.frame_ = nullptr;
}

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    frame_ = other.frame_;
    other.frame_ = nullptr;
  }
  return *this;
}

PageGuard::~PageGuard() { Release(); }

Slice PageGuard::data() const {
  assert(frame_ != nullptr);
  return Slice(frame_->bytes);
}

uint64_t PageGuard::page_no() const {
  assert(frame_ != nullptr);
  return frame_->key & kPageNoMask;
}

void PageGuard::Release() {
  if (frame_ == nullptr) return;
  frame_->pins.fetch_sub(1, std::memory_order_release);
  HTG_METRIC_GAUGE("bufferpool.pinned")->Add(-1);
  frame_ = nullptr;
}

size_t BufferPoolCapacityFromEnv() {
  size_t mb = 64;
  if (const char* env = std::getenv("HTG_BUFFER_POOL_MB")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && parsed > 0) mb = static_cast<size_t>(parsed);
  }
  return mb << 20;
}

BufferPool::BufferPool(BufferPoolOptions options) : options_(options) {
  if (options_.capacity_bytes == 0) options_.capacity_bytes = 1;
}

BufferPool::~BufferPool() {
  // Frames die with the pool; anything dirty belongs to tables that are
  // themselves being destroyed, so there is nothing left to write back.
  // The lock is uncontended here but keeps the guarded reads honest.
  MutexLock lock(&mu_);
  HTG_METRIC_GAUGE("bufferpool.bytes")->Add(-static_cast<int64_t>(bytes_cached_));
  HTG_METRIC_GAUGE("bufferpool.frames")
      ->Add(-static_cast<int64_t>(frames_.size()));
}

uint64_t BufferPool::Key(uint32_t file_id, uint64_t page_no) {
  assert(page_no <= kPageNoMask);
  return (static_cast<uint64_t>(file_id) << kPageNoBits) | page_no;
}

uint32_t BufferPool::RegisterFile(std::unique_ptr<RandomAccessFile> file,
                                  PagedFileOptions options) {
  MutexLock lock(&mu_);
  const uint32_t id = next_file_id_++;
  auto info = std::make_unique<FileInfo>();
  info->file = std::move(file);
  info->options = std::move(options);
  files_.emplace(id, std::move(info));
  return id;
}

void BufferPool::UnregisterFile(uint32_t file_id) {
  MutexLock lock(&mu_);
  auto it = files_.find(file_id);
  if (it == files_.end()) return;
  // Collect first: RemoveFrameLocked mutates clock_.
  std::vector<Frame*> victims;
  for (auto& [key, frame] : frames_) {
    if ((key >> kPageNoBits) == file_id) victims.push_back(frame.get());
  }
  for (Frame* frame : victims) {
    assert(frame->pins.load(std::memory_order_acquire) == 0 &&
           "unregistering a file with pinned frames");
    RemoveFrameLocked(frame);
  }
  files_.erase(it);
}

void BufferPool::AddPageExtent(uint32_t file_id, uint64_t page_no,
                               uint64_t offset, uint32_t length) {
  MutexLock lock(&mu_);
  auto it = files_.find(file_id);
  assert(it != files_.end());
  FileInfo& info = *it->second;
  assert(info.options.fixed_page_bytes == 0);
  if (info.extents.size() <= page_no) info.extents.resize(page_no + 1);
  info.extents[page_no] = {offset, length};
}

Result<PageGuard> BufferPool::Fetch(uint32_t file_id, uint64_t page_no) {
  const uint64_t key = Key(file_id, page_no);
  {
    ReaderMutexLock lock(&mu_);
    auto it = frames_.find(key);
    if (it != frames_.end()) {
      Frame* frame = it->second.get();
      frame->pins.fetch_add(1, std::memory_order_acquire);
      frame->referenced.store(true, std::memory_order_relaxed);
      HTG_METRIC_COUNTER("bufferpool.hit")->Add();
      HTG_METRIC_GAUGE("bufferpool.pinned")->Add(1);
      return PageGuard(frame);
    }
  }
  HTG_METRIC_COUNTER("bufferpool.miss")->Add();

  // Resolve the read under the shared lock, then do the I/O outside it:
  // two threads missing the same page may both read it, and the loser of
  // the insert race below adopts the winner's frame.
  ReadSpec spec;
  {
    ReaderMutexLock lock(&mu_);
    auto fit = files_.find(file_id);
    if (fit == files_.end()) {
      return Status::InvalidArgument("buffer pool: unknown file id");
    }
    const FileInfo& info = *fit->second;
    if (info.file == nullptr) {
      return Status::NotFound(
          "buffer pool: page evicted from write-only file");
    }
    // The RandomAccessFile is stable while readers are active (files are
    // unregistered only on table drop/truncate), so the raw pointer stays
    // valid across the unlocked pread below.
    spec.file = info.file.get();
    spec.checksummed = info.options.checksummed;
    if (info.options.fixed_page_bytes > 0) {
      const size_t chunk = info.options.fixed_page_bytes;
      const uint64_t file_size = info.file->size();
      spec.offset = page_no * chunk;
      if (spec.offset >= file_size) {
        return Status::InvalidArgument("buffer pool: page beyond end of file");
      }
      spec.length = static_cast<size_t>(
          std::min<uint64_t>(chunk, file_size - spec.offset));
    } else {
      if (page_no >= info.extents.size() ||
          info.extents[page_no].length == 0) {
        return Status::InvalidArgument("buffer pool: page has no extent");
      }
      spec.offset = info.extents[page_no].offset;
      spec.length = info.extents[page_no].length;
    }
  }
  std::string bytes;
  HTG_ASSIGN_OR_RETURN(bytes, LoadPage(spec, file_id, page_no));

  MutexLock lock(&mu_);
  auto it = frames_.find(key);
  if (it != frames_.end()) {
    // Lost the fill race; use the resident frame.
    Frame* frame = it->second.get();
    frame->pins.fetch_add(1, std::memory_order_acquire);
    frame->referenced.store(true, std::memory_order_relaxed);
    HTG_METRIC_GAUGE("bufferpool.pinned")->Add(1);
    return PageGuard(frame);
  }
  Frame* frame = nullptr;
  HTG_RETURN_IF_ERROR(
      InsertFrameLocked(file_id, page_no, std::move(bytes), false, &frame));
  frame->pins.fetch_add(1, std::memory_order_acquire);
  HTG_METRIC_GAUGE("bufferpool.pinned")->Add(1);
  return PageGuard(frame);
}

Result<std::string> BufferPool::LoadPage(const ReadSpec& spec,
                                         uint32_t file_id,
                                         uint64_t page_no) const {
  std::string bytes(spec.length, '\0');
  HTG_ASSIGN_OR_RETURN(size_t got,
                       spec.file->ReadAt(spec.offset, bytes.data(),
                                         spec.length));
  if (got != spec.length) {
    return Status::IOError("buffer pool: short read of page " +
                           std::to_string(page_no));
  }
  if (spec.checksummed) {
    if (bytes.size() < kPageChecksumBytes ||
        Crc32c(bytes.data(), bytes.size() - kPageChecksumBytes) !=
            TrailerCrc(bytes)) {
      HTG_METRIC_COUNTER("bufferpool.checksum_failure")->Add();
      return Status::Corruption(
          "buffer pool: page checksum mismatch (file id " +
          std::to_string(file_id) + ", page " + std::to_string(page_no) + ")");
    }
  }
  return bytes;
}

Status BufferPool::PutPage(uint32_t file_id, uint64_t page_no,
                           std::string bytes, bool dirty) {
  MutexLock lock(&mu_);
  auto fit = files_.find(file_id);
  if (fit == files_.end()) {
    return Status::InvalidArgument("buffer pool: unknown file id");
  }
  auto it = frames_.find(Key(file_id, page_no));
  if (it != frames_.end()) {
    // Pages are immutable once sealed; a re-put of a resident page is a
    // truncate-then-reappend, which dropped the frame first.
    return Status::InvalidArgument("buffer pool: page already resident");
  }
  FileInfo& info = *fit->second;
  if (dirty) {
    if (!info.options.write_page) {
      return Status::InvalidArgument(
          "buffer pool: dirty page on a file without a write_page hook");
    }
    if (!info.has_dirty) {
      info.has_dirty = true;
      info.next_writeback_page = page_no;
    }
    info.max_dirty_page = page_no;
  }
  Frame* frame = nullptr;
  return InsertFrameLocked(file_id, page_no, std::move(bytes), dirty, &frame);
}

Status BufferPool::InsertFrameLocked(uint32_t file_id, uint64_t page_no,
                                     std::string bytes, bool dirty,
                                     Frame** out) {
  // A frame is charged its buffer's capacity, the memory it holds, so the
  // budget bounds resident bytes even for a page built with slack.
  HTG_RETURN_IF_ERROR(EvictForLocked(bytes.capacity()));
  auto frame = std::make_unique<Frame>();
  frame->key = Key(file_id, page_no);
  frame->bytes = std::move(bytes);
  frame->dirty = dirty;
  frame->clock_pos = clock_.size();
  Frame* raw = frame.get();
  clock_.push_back(raw);
  bytes_cached_ += raw->bytes.capacity();
  frames_.emplace(raw->key, std::move(frame));
  HTG_METRIC_GAUGE("bufferpool.bytes")
      ->Add(static_cast<int64_t>(raw->bytes.capacity()));
  HTG_METRIC_GAUGE("bufferpool.frames")->Add(1);
  *out = raw;
  return Status::OK();
}

Status BufferPool::EvictForLocked(size_t incoming_bytes) {
  if (bytes_cached_ + incoming_bytes <= options_.capacity_bytes) {
    return Status::OK();
  }
  // Two full CLOCK sweeps: the first clears ref bits, the second takes
  // victims. If a third pass still finds only pinned frames, overcommit —
  // a pool must never deadlock against its own pins.
  size_t scanned = 0;
  const size_t limit = clock_.size() * 3;
  while (bytes_cached_ + incoming_bytes > options_.capacity_bytes &&
         !clock_.empty() && scanned < limit) {
    if (hand_ >= clock_.size()) hand_ = 0;
    Frame* frame = clock_[hand_];
    ++scanned;
    if (frame->pins.load(std::memory_order_acquire) > 0) {
      ++hand_;
      continue;
    }
    if (frame->referenced.exchange(false, std::memory_order_relaxed)) {
      ++hand_;
      continue;
    }
    if (frame->dirty) {
      const uint32_t file_id = static_cast<uint32_t>(frame->key >> kPageNoBits);
      HTG_RETURN_IF_ERROR(
          WriteBackLocked(file_id, frame->key & kPageNoMask));
    }
    HTG_METRIC_COUNTER("bufferpool.evict")->Add();
    RemoveFrameLocked(frame);  // keeps hand_ in place (slot now refilled)
  }
  if (bytes_cached_ + incoming_bytes > options_.capacity_bytes) {
    HTG_METRIC_COUNTER("bufferpool.overcommit")->Add();
  }
  return Status::OK();
}

Status BufferPool::WriteBackLocked(uint32_t file_id, uint64_t up_to_page) {
  auto fit = files_.find(file_id);
  assert(fit != files_.end());
  FileInfo& info = *fit->second;
  if (!info.has_dirty) return Status::OK();
  // Append-only files: everything before the victim must reach the file
  // first, so flush the ordered dirty run [next_writeback_page, up_to].
  while (info.next_writeback_page <= up_to_page && info.has_dirty) {
    const uint64_t page_no = info.next_writeback_page;
    auto it = frames_.find(Key(file_id, page_no));
    assert(it != frames_.end() && "dirty run has a hole");
    Frame* frame = it->second.get();
    assert(frame->dirty);
    HTG_RETURN_IF_ERROR(info.options.write_page(page_no, frame->bytes));
    HTG_METRIC_COUNTER("bufferpool.writeback")->Add();
    frame->dirty = false;
    if (page_no == info.max_dirty_page) {
      info.has_dirty = false;
    } else {
      info.next_writeback_page = page_no + 1;
    }
  }
  return Status::OK();
}

void BufferPool::RemoveFrameLocked(Frame* frame) {
  const size_t pos = frame->clock_pos;
  assert(clock_[pos] == frame);
  clock_[pos] = clock_.back();
  clock_[pos]->clock_pos = pos;
  clock_.pop_back();
  bytes_cached_ -= frame->bytes.capacity();
  HTG_METRIC_GAUGE("bufferpool.bytes")
      ->Add(-static_cast<int64_t>(frame->bytes.capacity()));
  HTG_METRIC_GAUGE("bufferpool.frames")->Add(-1);
  frames_.erase(frame->key);
}

void BufferPool::DropPage(uint32_t file_id, uint64_t page_no) {
  MutexLock lock(&mu_);
  auto it = frames_.find(Key(file_id, page_no));
  auto fit = files_.find(file_id);
  if (fit != files_.end()) {
    FileInfo& info = *fit->second;
    if (info.options.fixed_page_bytes == 0 &&
        page_no < info.extents.size()) {
      info.extents[page_no] = {};
    }
    if (info.has_dirty && page_no == info.max_dirty_page) {
      // Tail truncation shrinks the dirty run from the top.
      if (page_no == info.next_writeback_page) {
        info.has_dirty = false;
      } else {
        info.max_dirty_page = page_no - 1;
      }
    }
  }
  if (it == frames_.end()) return;
  Frame* frame = it->second.get();
  assert(frame->pins.load(std::memory_order_acquire) == 0 &&
         "dropping a pinned page");
  RemoveFrameLocked(frame);
}

Status BufferPool::FlushFile(uint32_t file_id) {
  MutexLock lock(&mu_);
  auto fit = files_.find(file_id);
  if (fit == files_.end()) {
    return Status::InvalidArgument("buffer pool: unknown file id");
  }
  if (!fit->second->has_dirty) return Status::OK();
  return WriteBackLocked(file_id, fit->second->max_dirty_page);
}

Status BufferPool::FlushAll() {
  MutexLock lock(&mu_);
  for (auto& [file_id, info] : files_) {
    if (!info->has_dirty) continue;
    HTG_RETURN_IF_ERROR(WriteBackLocked(file_id, info->max_dirty_page));
  }
  return Status::OK();
}

Status BufferPool::EvictAll() {
  MutexLock lock(&mu_);
  for (auto& [file_id, info] : files_) {
    if (!info->has_dirty) continue;
    HTG_RETURN_IF_ERROR(WriteBackLocked(file_id, info->max_dirty_page));
  }
  std::vector<Frame*> victims;
  victims.reserve(clock_.size());
  for (Frame* frame : clock_) {
    if (frame->pins.load(std::memory_order_acquire) == 0) {
      victims.push_back(frame);
    }
  }
  for (Frame* frame : victims) {
    HTG_METRIC_COUNTER("bufferpool.evict")->Add();
    RemoveFrameLocked(frame);
  }
  hand_ = 0;
  return Status::OK();
}

size_t BufferPool::bytes_cached() const {
  ReaderMutexLock lock(&mu_);
  return bytes_cached_;
}

size_t BufferPool::frames_cached() const {
  ReaderMutexLock lock(&mu_);
  return frames_.size();
}

}  // namespace htg::storage
