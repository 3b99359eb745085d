#include "exec/spill_util.h"

namespace htg::exec {

namespace {

// Hash of a key row salted by spill recursion level: keys that collide
// into one partition at level N scatter across partitions at level N+1.
size_t SpillRowHash(const Row& key, int level) {
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

}  // namespace

Result<storage::SpillRun> FinishSpillRun(storage::SpillRunWriter* writer,
                                         OperatorStats* stats) {
  HTG_ASSIGN_OR_RETURN(storage::SpillRun run, writer->Finish());
  if (stats != nullptr) {
    stats->spill_runs.fetch_add(1, std::memory_order_relaxed);
    stats->spill_bytes.fetch_add(run.bytes, std::memory_order_relaxed);
  }
  return run;
}

Status PartitionSpill::Add(const Row& key, const Row& row, size_t side) {
  MutexLock lock(&mu_);
  if (file_ == nullptr) {
    HTG_ASSIGN_OR_RETURN(file_, storage::SpillFile::Create(space_, label_));
    writers_.reserve(sides_ * kSpillPartitions);
    for (size_t w = 0; w < sides_ * kSpillPartitions; ++w) {
      writers_.push_back(
          std::make_unique<storage::SpillRunWriter>(file_.get()));
    }
    engaged_.store(true, std::memory_order_release);
  }
  const size_t p = SpillRowHash(key, level_) % kSpillPartitions;
  return writers_[side * kSpillPartitions + p]->Add(row);
}

Result<std::vector<SpillPartition>> PartitionSpill::Finish(size_t side) {
  MutexLock lock(&mu_);
  std::vector<SpillPartition> parts(kSpillPartitions);
  for (size_t p = 0; p < kSpillPartitions; ++p) {
    parts[p] = SpillPartition{file_.get(), {}, level_ + 1};
    parts[p].runs.resize(sides_);
  }
  for (size_t w = 0; w < writers_.size(); ++w) {
    if (writers_[w]->rows() == 0) continue;
    HTG_ASSIGN_OR_RETURN(
        parts[w % kSpillPartitions].runs[w / kSpillPartitions],
        FinishSpillRun(writers_[w].get(), stats_));
  }
  writers_.clear();
  if (file_ != nullptr) HTG_RETURN_IF_ERROR(file_->Flush());
  std::erase_if(parts, [side](const SpillPartition& part) {
    return part.runs[side].rows == 0;
  });
  return parts;
}

Status SpillQueue::Push(std::unique_ptr<PartitionSpill> spill, size_t side) {
  HTG_ASSIGN_OR_RETURN(std::vector<SpillPartition> parts, spill->Finish(side));
  for (SpillPartition& part : parts) work_.push_back(std::move(part));
  spills_.push_back(std::move(spill));
  return Status::OK();
}

Result<SpillPartition> SpillQueue::Pop(const char* op) {
  SpillPartition part = std::move(work_.back());
  work_.pop_back();
  if (part.level > kMaxSpillDepth) return SpillDepthError(op);
  return part;
}

bool SpilledOutputIterator::NextBatch(RowBatch* batch) {
  while (status_.ok()) {
    if (current_ != nullptr) {
      if (current_->NextBatch(batch)) return true;
      status_ = current_->status();
      current_.reset();  // releases the drained partition's charge
    } else if (queue_.empty()) {
      return false;
    } else {
      Result<std::unique_ptr<storage::RowIterator>> next = open_next_(&queue_);
      if (next.ok()) {
        current_ = std::move(next).value();
      } else {
        status_ = next.status();
      }
    }
  }
  return false;
}

}  // namespace htg::exec
