#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "common/memory.h"
#include "common/string_util.h"
#include "common/synchronization.h"
#include "exec/operator.h"
#include "storage/spill.h"
#include "types/value.h"

namespace htg::exec {

// Shared pieces of the operators' spill machinery: the external sort's
// runs and the one partition spill of the hash aggregate and hash join.

// Sub-partitioning at recursion depth > kMaxSpillDepth means the data is
// pathologically skewed (or the budget is absurdly small); the operator
// gives up with kResourceExhausted instead of looping.
inline constexpr int kMaxSpillDepth = 8;

// Fan-out of one partition-spill pass (hash aggregate / hash join): the
// runs each spilled input is hashed into.
inline constexpr size_t kSpillPartitions = 16;

// The error an over-budget operator raises when it cannot degrade.
inline Status SpillUnavailableError(const char* op, const MemoryContext& mem) {
  return Status::ResourceExhausted(StringPrintf(
      "%s: query memory budget exceeded (%zu bytes used, budget %zu) and "
      "spilling is unavailable (disabled or no tablespace); raise "
      "HTG_QUERY_MEM_MB or enable spilling",
      op, mem.used(), mem.budget()));
}

inline Status SpillDepthError(const char* op) {
  return Status::ResourceExhausted(StringPrintf(
      "%s: spill repartitioning exceeded depth %d (pathological key skew "
      "for this memory budget)",
      op, kMaxSpillDepth));
}

// Seals `writer`'s run and records it in `stats` (EXPLAIN ANALYZE's
// spill runs= / spill bytes=): every operator's finished runs are counted
// here.
Result<storage::SpillRun> FinishSpillRun(storage::SpillRunWriter* writer,
                                         OperatorStats* stats);

// One sealed partition of a PartitionSpill: its run on each side, paired
// by partition index, in the spill's file.
struct SpillPartition {
  storage::SpillFile* file;
  std::vector<storage::SpillRun> runs;  // indexed by side
  int level;  // recursion depth of the pass that processes it
};

// The partition spill of the hash aggregate and the hash join. Rows are
// hashed by key, salted by the spill level, into kSpillPartitions runs
// per side on one spill file; keys that collide at level N scatter at
// N+1. The aggregate spills one side (its input rows), the join two (build
// and probe). The file and writers appear on the first Add, so a pass that
// never spills costs one atomic load. Thread-safe: the morsel workers of
// a parallel aggregate share one.
class PartitionSpill {
 public:
  PartitionSpill(storage::TableSpace* space, const char* label, int level,
                 OperatorStats* stats, size_t sides = 1)
      : space_(space),
        label_(label),
        level_(level),
        stats_(stats),
        sides_(sides) {}

  bool engaged() const { return engaged_.load(std::memory_order_acquire); }

  Status Add(const Row& key, const Row& row, size_t side = 0);

  // Seals every run and flushes the file, so injected write faults surface
  // inside the statement. Returns the partitions with rows on `side`: any
  // other partition can produce no output.
  Result<std::vector<SpillPartition>> Finish(size_t side);

 private:
  storage::TableSpace* space_;
  const char* label_;
  const int level_;
  OperatorStats* stats_;
  const size_t sides_;
  Mutex mu_{"PartitionSpill::mu_"};
  std::atomic<bool> engaged_{false};
  std::unique_ptr<storage::SpillFile> file_ HTG_GUARDED_BY(mu_);
  // sides_ * kSpillPartitions writers, side-major.
  std::vector<std::unique_ptr<storage::SpillRunWriter>> writers_
      HTG_GUARDED_BY(mu_);
};

// The spilled partitions still to process, last queued first, and the
// spills that own their files (kept until the queue goes, so the data is
// deleted with the operator's output iterator).
class SpillQueue {
 public:
  bool empty() const { return work_.empty(); }

  // Seals `spill` and queues its partitions with rows on `side`.
  Status Push(std::unique_ptr<PartitionSpill> spill, size_t side = 0);

  // Takes the next partition; kResourceExhausted past kMaxSpillDepth.
  Result<SpillPartition> Pop(const char* op);

 private:
  std::vector<SpillPartition> work_;
  std::vector<std::unique_ptr<PartitionSpill>> spills_;
};

// The output of an operator whose partition spill engaged: the stream it
// already has, then each queued partition's stream, opened by `open_next`
// only once the previous one is drained. `open_next` pops one partition;
// when it re-partitions instead (the partition still exceeds the budget,
// its rows went one level deeper into the queue) it returns null. Output
// comes in partition order. Owns the queue, so every spill file goes with
// the iterator.
class SpilledOutputIterator : public storage::RowIterator {
 public:
  using OpenNext =
      std::function<Result<std::unique_ptr<storage::RowIterator>>(SpillQueue*)>;

  SpilledOutputIterator(std::unique_ptr<storage::RowIterator> first,
                        SpillQueue queue, OpenNext open_next)
      : queue_(std::move(queue)),
        current_(std::move(first)),
        open_next_(std::move(open_next)) {}

  bool NextBatch(RowBatch* batch) override;
  Status status() const override { return status_; }

 private:
  SpillQueue queue_;  // declared first: the streams below read its files
  std::unique_ptr<storage::RowIterator> current_;
  OpenNext open_next_;
  Status status_;
};

}  // namespace htg::exec
