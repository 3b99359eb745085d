// Lint fixture: an exchange gathering its workers' batches into one
// buffer of data-proportional size with no memory charge in scope — the
// gathered batches are invisible to the query budget.
// expect-lint: exec-untracked-reserve

#include <utility>
#include <vector>

namespace htg::exec {

struct RowBatch {};

// Moves every worker's batches into one output vector without touching a
// MemoryCharge: the reserve below must trip the rule.
std::vector<RowBatch> GatherAll(std::vector<std::vector<RowBatch>>* parts) {
  size_t total = 0;
  for (const std::vector<RowBatch>& p : *parts) total += p.size();
  std::vector<RowBatch> batches;
  batches.reserve(total);
  for (std::vector<RowBatch>& p : *parts) {
    for (RowBatch& b : p) batches.push_back(std::move(b));
  }
  return batches;
}

}  // namespace htg::exec
