#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/memory.h"
#include "common/string_util.h"
#include "exec/batch.h"
#include "types/value.h"

namespace htg::exec {

// Shared pieces of the operators' spill machinery (external sort, hash
// aggregate / hash join partition spills).

// Sub-partitioning at recursion depth > kMaxSpillDepth means the data is
// pathologically skewed (or the budget is absurdly small); the operator
// gives up with kResourceExhausted instead of looping.
inline constexpr int kMaxSpillDepth = 8;

// Fan-out of one partition-spill pass (hash aggregate / hash join): the
// runs each spilled input is hashed into.
inline constexpr size_t kSpillPartitions = 16;

// Hash of a key row salted by spill recursion level: keys that collide
// into one partition at level N scatter across partitions at level N+1.
inline size_t SpillRowHash(const Row& key, int level) {
  size_t h = 14695981039346656037ULL ^
             (0x9e3779b97f4a7c15ULL * static_cast<size_t>(level + 1));
  for (const Value& v : key) {
    h ^= v.Hash();
    h *= 1099511628211ULL;
  }
  // Final avalanche so "% partitions" sees more than the low FNV bits.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

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

// Materialized-batches stream that keeps its MemoryCharge (and with it the
// query-context accounting) alive until the consumer is done with the
// batches: aggregate, sort and constant-scan output.
class ChargedBatchesIterator : public MaterializedBatchesIterator {
 public:
  ChargedBatchesIterator(std::vector<RowBatch> batches, MemoryCharge charge)
      : MaterializedBatchesIterator(std::move(batches)),
        charge_(std::move(charge)) {}

 private:
  MemoryCharge charge_;
};

}  // namespace htg::exec
