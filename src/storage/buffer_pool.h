#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "common/synchronization.h"
#include "storage/vfs.h"

namespace htg::storage {

// A fixed-capacity page cache between the storage layer and the VFS — the
// buffer pool the paper's thesis assumes the engine provides ("the engine
// manages storage, caching, and parallelism for you", §5). Every paged
// read of heap pages, clustered-leaf pages, and FileStream chunks goes
// through Fetch(); repeated scans and B+-tree leaf walks hit cached frames
// instead of re-reading through the VFS.
//
// Shape:
//   * Frames hold whole serialized pages (variable length — engine pages
//     are self-contained strings), so capacity is budgeted in bytes
//     (HTG_BUFFER_POOL_MB, default 64 MiB), not frame counts. A frame is
//     charged its buffer's capacity, so page builders hand over exactly
//     sized buffers.
//   * Pages are immutable once sealed; a frame's bytes never change after
//     fill. "Dirty" therefore means "not yet written back to the file",
//     not "modified" — the write-back discipline of an append-only spill
//     file (see tablespace.h for the WAL-ordered write path).
//   * Hit path: shared lock on the frame map + two atomics (pin count,
//     CLOCK ref bit). Only misses, inserts, and eviction take the
//     exclusive lock, so concurrent morsel workers scanning a cached
//     table never serialize on the pool.
//   * Eviction is CLOCK (second chance): pinned frames are skipped,
//     referenced frames get their ref bit cleared, and a dirty victim is
//     written back (in page order, WAL record first) before it is
//     dropped. If every frame is pinned the pool overcommits rather than
//     deadlocking, and counts it.
//   * A miss fills the frame via RandomAccessFile::ReadAt and, for
//     checksummed files, verifies the page's CRC32C trailer before the
//     frame becomes visible. A read fault or checksum mismatch caches
//     nothing — an injected fault can never leave a poisoned frame.
//
// Observability (PR-4 metrics registry): counters bufferpool.hit / .miss
// / .evict / .writeback / .checksum_failure / .overcommit and gauges
// bufferpool.bytes / .frames / .pinned, so EXPLAIN ANALYZE and BENCH JSON
// expose cache behaviour per query and per bench.
class BufferPool;

// RAII pin on one cached page. While the guard is alive the frame cannot
// be evicted and data() stays valid; destruction (or Release) unpins.
// Scan iterators hold one guard per page they are positioned on, instead
// of raw spans into table memory.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(PageGuard&& other) noexcept;
  PageGuard& operator=(PageGuard&& other) noexcept;
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  ~PageGuard();

  bool valid() const { return frame_ != nullptr; }

  // The full page image (for checksummed files this includes the CRC32C
  // trailer, which was verified on fill).
  Slice data() const;

  uint64_t page_no() const;

  // Unpins early; the guard becomes invalid.
  void Release();

 private:
  friend class BufferPool;
  struct Frame;
  explicit PageGuard(Frame* frame) : frame_(frame) {}

  Frame* frame_ = nullptr;
};

struct BufferPoolOptions {
  // Total bytes of cached page images the pool may hold.
  size_t capacity_bytes = 64ull << 20;
};

// Reads HTG_BUFFER_POOL_MB (mebibytes; default 64, minimum 1).
size_t BufferPoolCapacityFromEnv();

// Per-registered-file behaviour.
struct PagedFileOptions {
  // Pages end in a 4-byte CRC32C trailer, verified on every miss-fill
  // (heap pages from PageBuilder::Finish and clustered leaf pages do;
  // FileStream chunk caching does not — blobs carry a whole-file CRC in
  // the store manifest instead).
  bool checksummed = false;

  // > 0: the file is paged as fixed-size chunks (page n covers bytes
  // [n*fixed_page_bytes, ...)) — the FileStream chunk-cache mode. The
  // file size must be final at registration. 0: page extents are
  // announced incrementally with AddPageExtent (append-only table files).
  size_t fixed_page_bytes = 0;

  // Write-back sink for dirty frames. The pool invokes it in strictly
  // ascending page order with no gaps (append-only files depend on
  // this), while holding its exclusive latch: the callback must write
  // the bytes (WAL record first — see TableFile::WritePageOut) and MUST
  // NOT call back into the pool. Required if PutPage(dirty=true) is
  // used.
  std::function<Status(uint64_t page_no, std::string_view bytes)> write_page;
};

class BufferPool {
 public:
  explicit BufferPool(BufferPoolOptions options = {});
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // Registers a paged file and returns its pool-wide id. `file` may be
  // null for write-only registration (all pages resident/dirty); Fetch of
  // a non-resident page then fails.
  uint32_t RegisterFile(std::unique_ptr<RandomAccessFile> file,
                        PagedFileOptions options);

  // Drops every frame of the file (dirty frames are discarded — the
  // caller is deleting or truncating the file). All frames must be
  // unpinned.
  void UnregisterFile(uint32_t file_id);

  // Announces that page `page_no` of a variable-length file occupies
  // [offset, offset+length). Re-announcing a page number replaces its
  // extent (tail truncation followed by re-append).
  void AddPageExtent(uint32_t file_id, uint64_t page_no, uint64_t offset,
                     uint32_t length);

  // Pins page (file_id, page_no), filling the frame from the file on
  // miss. Returns Corruption if a checksummed page fails verification;
  // the failed fill is not cached.
  Result<PageGuard> Fetch(uint32_t file_id, uint64_t page_no);

  // Inserts a freshly sealed page image and pins nothing. dirty=true
  // schedules it for write-back through the file's write_page hook; the
  // caller must have announced (or be implied by fixed paging to have)
  // its extent. Eviction to make room may itself write back dirty frames.
  Status PutPage(uint32_t file_id, uint64_t page_no, std::string bytes,
                 bool dirty);

  // Drops one frame (table tail-truncation). A dirty frame is discarded
  // without write-back. The frame must be unpinned.
  void DropPage(uint32_t file_id, uint64_t page_no);

  // Writes back every dirty frame of the file, in page order.
  Status FlushFile(uint32_t file_id);

  // FlushFile over every registered file.
  Status FlushAll();

  // Evicts every unpinned frame; dirty frames are written back first.
  // The cold-cache reset used by the cold-vs-warm bench sweep.
  Status EvictAll();

  size_t bytes_cached() const;
  size_t frames_cached() const;
  size_t capacity_bytes() const { return options_.capacity_bytes; }

 private:
  using Frame = PageGuard::Frame;
  struct FileInfo;
  struct ReadSpec;

  static uint64_t Key(uint32_t file_id, uint64_t page_no);

  // Reads + verifies one page image from the file. No locks held.
  Result<std::string> LoadPage(const ReadSpec& spec, uint32_t file_id,
                               uint64_t page_no) const;

  // The following run under an exclusive lock on mu_.
  Status InsertFrameLocked(uint32_t file_id, uint64_t page_no,
                           std::string bytes, bool dirty, Frame** out)
      HTG_REQUIRES(mu_);
  Status EvictForLocked(size_t incoming_bytes) HTG_REQUIRES(mu_);
  Status WriteBackLocked(uint32_t file_id, uint64_t up_to_page)
      HTG_REQUIRES(mu_);
  void RemoveFrameLocked(Frame* frame) HTG_REQUIRES(mu_);

  BufferPoolOptions options_;

  mutable SharedMutex mu_{"BufferPool::mu_"};
  std::unordered_map<uint64_t, std::unique_ptr<Frame>> frames_
      HTG_GUARDED_BY(mu_);
  std::unordered_map<uint32_t, std::unique_ptr<FileInfo>> files_
      HTG_GUARDED_BY(mu_);
  // CLOCK order: frames in insertion order with a sweeping hand.
  std::vector<Frame*> clock_ HTG_GUARDED_BY(mu_);
  size_t hand_ HTG_GUARDED_BY(mu_) = 0;
  size_t bytes_cached_ HTG_GUARDED_BY(mu_) = 0;
  uint32_t next_file_id_ HTG_GUARDED_BY(mu_) = 1;
};

}  // namespace htg::storage
