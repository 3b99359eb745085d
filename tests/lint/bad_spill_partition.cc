// Lint fixture: an operator hashing its own rows into spill partitions
// instead of spilling through exec::PartitionSpill, the one partition
// spill of the hash aggregate and the hash join.

#include <cstddef>
#include <vector>

namespace htg::exec {

using Row = std::vector<int>;

size_t SpillRowHash(const Row& key, int level);  // expect-lint: exec-spill-partition

size_t PartitionOf(const Row& key, int level) {
  return SpillRowHash(key, level) % 16;  // expect-lint: exec-spill-partition
}

}  // namespace htg::exec
