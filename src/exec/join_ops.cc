#include "exec/join_ops.h"

#include <algorithm>
#include <unordered_map>

#include "common/metrics.h"
#include "common/string_util.h"
#include "exec/batch.h"
#include "exec/spill_util.h"
#include "storage/spill.h"

namespace htg::exec {

namespace {

struct RowHash {
  size_t operator()(const Row& row) const {
    size_t h = 14695981039346656037ULL;
    for (const Value& v : row) {
      h ^= v.Hash();
      h *= 1099511628211ULL;
    }
    return h;
  }
};

struct RowEq {
  bool operator()(const Row& a, const Row& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].Compare(b[i]) != 0) return false;
    }
    return true;
  }
};

using BuildMap = std::unordered_map<Row, std::vector<Row>, RowHash, RowEq>;

// Rough accounting overhead per build-table entry (hash node + bucket
// vector slot) on top of the key's and row's own bytes.
constexpr size_t kJoinEntryOverheadBytes = 96;

Result<Row> EvalKeys(const std::vector<ExprPtr>& keys, udf::EvalContext* eval,
                     const Row& row) {
  Row out;
  out.reserve(keys.size());
  for (const ExprPtr& k : keys) {
    HTG_ASSIGN_OR_RETURN(Value v, k->Eval(eval, row));
    out.push_back(std::move(v));
  }
  return out;
}

Row ConcatRows(const Row& left, const Row& right) {
  Row out;
  out.reserve(left.size() + right.size());
  out.insert(out.end(), left.begin(), left.end());
  out.insert(out.end(), right.begin(), right.end());
  return out;
}

std::string DescribeJoinKeys(const std::vector<ExprPtr>& l,
                             const std::vector<ExprPtr>& r) {
  std::string out = "[";
  for (size_t i = 0; i < l.size(); ++i) {
    if (i > 0) out += " AND ";
    out += l[i]->ToString() + " = " + r[i]->ToString();
  }
  out += "]";
  return out;
}

// The sides of the hash join's partition spill.
constexpr size_t kBuildSide = 0;
constexpr size_t kProbeSide = 1;

// What every pass of one hash join shares: the pass over its inputs and
// the pass over each spilled partition.
struct JoinSpec {
  const std::vector<ExprPtr>* left_keys;
  const std::vector<ExprPtr>* right_keys;
  bool left_outer;
  int right_width;
  const char* op_name;
  ExecContext* ctx;
  OperatorStats* stats;
};

// Probes the build table a batch of left rows at a time: the batch kernels
// evaluate the left keys over the whole batch, and a joined row copies
// the left values straight out of the batch columns.
class HashJoinIterator : public storage::RowSource {
 public:
  HashJoinIterator(std::unique_ptr<storage::RowIterator> left, BuildMap build,
                   MemoryCharge charge, const JoinSpec& spec)
      : left_(std::move(left)),
        build_(std::move(build)),
        left_keys_(spec.left_keys),
        eval_(&spec.ctx->eval),
        left_outer_(spec.left_outer),
        right_width_(spec.right_width),
        charge_(std::move(charge)),
        batch_(std::min(spec.ctx->batch_rows, RowReader::kMaxRows)),
        key_cols_(left_keys_->size()),
        key_(left_keys_->size()) {}

  Status status() const override { return status_; }

 protected:
  bool NextRow(Row* row) override {
    for (;;) {
      if (matches_ != nullptr && match_index_ < matches_->size()) {
        Emit(&(*matches_)[match_index_++], row);
        return true;
      }
      matches_ = nullptr;
      if (pos_ >= batch_.ActiveRows() && !NextLeftBatch()) return false;
      // SQL equi-join: NULL keys never match.
      bool has_null = false;
      for (size_t k = 0; k < key_.size(); ++k) {
        key_[k] = std::move(key_cols_[k][pos_]);
        has_null = has_null || key_[k].is_null();
      }
      left_index_ = batch_.ActiveIndex(pos_++);
      auto it = has_null ? build_.end() : build_.find(key_);
      if (it != build_.end()) {
        matches_ = &it->second;
        match_index_ = 0;
      } else if (left_outer_) {
        // Unmatched left row: pad the right side with NULLs.
        Emit(nullptr, row);
        return true;
      }
    }
  }

 private:
  bool NextLeftBatch() {
    if (!left_->NextBatch(&batch_)) {
      status_ = left_->status();
      return false;
    }
    pos_ = 0;
    HTG_METRIC_COUNTER("exec.batch.fillrow_rows")->Add(batch_.ActiveRows());
    for (size_t k = 0; k < key_cols_.size(); ++k) {
      status_ = (*left_keys_)[k]->EvalBatch(eval_, batch_,
                                            batch_.selection_data(),
                                            batch_.ActiveRows(), &key_cols_[k]);
      if (!status_.ok()) return false;
    }
    return true;
  }

  // The current left row ++ `right` (NULLs when `right` is null).
  void Emit(const Row* right, Row* row) const {
    row->clear();
    row->reserve(batch_.num_columns() + static_cast<size_t>(right_width_));
    for (size_t c = 0; c < batch_.num_columns(); ++c) {
      row->push_back(batch_.column(c)[left_index_]);
    }
    if (right != nullptr) {
      row->insert(row->end(), right->begin(), right->end());
    } else {
      row->resize(row->size() + static_cast<size_t>(right_width_));
    }
  }

  std::unique_ptr<storage::RowIterator> left_;
  BuildMap build_;
  const std::vector<ExprPtr>* left_keys_;
  udf::EvalContext* eval_;
  bool left_outer_;
  int right_width_;
  MemoryCharge charge_;  // keeps the build table accounted while live
  RowBatch batch_;
  std::vector<std::vector<Value>> key_cols_;
  size_t pos_ = 0;  // next active row of batch_
  size_t left_index_ = 0;  // physical row of the current left row
  Row key_;
  const std::vector<Row>* matches_ = nullptr;
  size_t match_index_ = 0;
  Status status_;
};

// One pass's build side: the table and the charge that accounts for it,
// or, once the budget refused an entry, the partition spill that took
// every build row.
struct JoinBuild {
  BuildMap table;
  MemoryCharge charge;
  std::unique_ptr<PartitionSpill> spill;
};

// The build loop of every hash-join pass, at spill `level`: 0 over the
// right input, a partition's level over its build run. NULL keys never
// match and are dropped. Each entry is charged; on the first refused
// charge the resident table and every remaining row go into a partition
// spill at `level`.
Result<JoinBuild> BuildJoinTable(const JoinSpec& spec,
                                 storage::RowIterator* input, int level) {
  ExecContext* ctx = spec.ctx;
  JoinBuild build{BuildMap(), MemoryCharge(ctx->mem.get(), spec.op_name),
                  nullptr};
  RowReader rows(input, ctx->batch_rows);
  Row row;
  while (rows.Next(&row)) {
    HTG_ASSIGN_OR_RETURN(Row key, EvalKeys(*spec.right_keys, &ctx->eval, row));
    bool has_null = false;
    for (const Value& v : key) has_null = has_null || v.is_null();
    if (has_null) continue;
    if (build.spill == nullptr) {
      const size_t bytes =
          ApproxRowBytes(key) + ApproxRowBytes(row) + kJoinEntryOverheadBytes;
      const Status charged = build.charge.Add(bytes);
      if (charged.ok()) {
        build.table[std::move(key)].push_back(std::move(row));
        continue;
      }
      build.charge.Release(bytes);
      if (!charged.IsResourceExhausted()) return charged;
      if (!ctx->CanSpill()) {
        return SpillUnavailableError(spec.op_name, *ctx->mem);
      }
      build.spill = std::make_unique<PartitionSpill>(
          ctx->tablespace, "join", level, spec.stats, /*sides=*/2);
      for (const auto& [bkey, brows] : build.table) {
        for (const Row& brow : brows) {
          HTG_RETURN_IF_ERROR(build.spill->Add(bkey, brow, kBuildSide));
        }
      }
      build.table.clear();
      build.charge.ReleaseAll();
    }
    HTG_RETURN_IF_ERROR(build.spill->Add(key, row, kBuildSide));
  }
  HTG_RETURN_IF_ERROR(rows.status());
  RecordPeakMem(spec.stats, build.charge.peak());
  return build;
}

// The probe of every hash-join pass: the HashJoinIterator over `probe`
// when the build side fit. Otherwise the probe rows follow the build rows
// into their partitions, NULL keys included (a left-outer join pads them
// in their partition's pass), the partitions with probe rows are queued,
// and the result is null.
Result<std::unique_ptr<storage::RowIterator>> ProbeJoinTable(
    const JoinSpec& spec, JoinBuild build,
    std::unique_ptr<storage::RowIterator> probe, SpillQueue* queue) {
  if (build.spill == nullptr) {
    return {std::make_unique<HashJoinIterator>(
        std::move(probe), std::move(build.table), std::move(build.charge),
        spec)};
  }
  RowReader rows(probe.get(), spec.ctx->batch_rows);
  Row row;
  while (rows.Next(&row)) {
    HTG_ASSIGN_OR_RETURN(Row key,
                         EvalKeys(*spec.left_keys, &spec.ctx->eval, row));
    HTG_RETURN_IF_ERROR(build.spill->Add(key, row, kProbeSide));
  }
  HTG_RETURN_IF_ERROR(rows.status());
  HTG_RETURN_IF_ERROR(queue->Push(std::move(build.spill), kProbeSide));
  return {nullptr};
}

// Runs the join again on the next spilled partition, one level deeper.
Result<std::unique_ptr<storage::RowIterator>> OpenJoinPartition(
    const JoinSpec& spec, SpillQueue* queue) {
  HTG_ASSIGN_OR_RETURN(SpillPartition part, queue->Pop(spec.op_name));
  storage::SpillRunReader build_run(part.file,
                                    std::move(part.runs[kBuildSide]));
  HTG_ASSIGN_OR_RETURN(JoinBuild build,
                       BuildJoinTable(spec, &build_run, part.level));
  return ProbeJoinTable(spec, std::move(build),
                        std::make_unique<storage::SpillRunReader>(
                            part.file, std::move(part.runs[kProbeSide])),
                        queue);
}

// Streaming merge join. Both inputs ascend on their keys; buffers the
// right-side group matching the current key (charged against the query
// budget — a pathological key group can be arbitrarily wide).
class MergeJoinIterator : public storage::RowSource {
 public:
  MergeJoinIterator(std::unique_ptr<storage::RowIterator> left,
                    std::unique_ptr<storage::RowIterator> right,
                    const std::vector<ExprPtr>* left_keys,
                    const std::vector<ExprPtr>* right_keys,
                    udf::EvalContext* eval, MemoryContext* mem,
                    size_t batch_rows)
      : left_(std::move(left)),
        right_(std::move(right)),
        left_rows_(left_.get(), batch_rows),
        right_rows_(right_.get(), batch_rows),
        left_keys_(left_keys),
        right_keys_(right_keys),
        eval_(eval),
        charge_(mem, "Merge Join") {}

  Status status() const override { return status_; }

 protected:
  bool NextRow(Row* row) override {
    if (!status_.ok()) return false;
    for (;;) {
      if (emitting_ && group_index_ < right_group_.size()) {
        *row = ConcatRows(left_row_, right_group_[group_index_++]);
        return true;
      }
      emitting_ = false;
      // Advance the left side.
      if (!AdvanceLeft()) return false;
      // Align the right side's buffered group to the new left key.
      for (;;) {
        const int cmp = group_valid_
                            ? CompareKeys(left_key_, right_group_key_)
                            : 1;
        if (group_valid_ && cmp == 0) {
          emitting_ = true;
          group_index_ = 0;
          break;
        }
        if (group_valid_ && cmp < 0) {
          // Left key smaller: this left row has no match.
          break;
        }
        if (!LoadNextRightGroup()) {
          if (!status_.ok()) return false;
          return false;  // right exhausted: no further matches possible
        }
      }
      if (!emitting_) continue;
    }
  }

 private:
  static int CompareKeys(const Row& a, const Row& b) {
    for (size_t i = 0; i < a.size(); ++i) {
      const int r = a[i].Compare(b[i]);
      if (r != 0) return r;
    }
    return 0;
  }

  bool AdvanceLeft() {
    if (!left_rows_.Next(&left_row_)) {
      status_ = left_rows_.status();
      return false;
    }
    Result<Row> key = EvalKeys(*left_keys_, eval_, left_row_);
    if (!key.ok()) {
      status_ = key.status();
      return false;
    }
    left_key_ = std::move(*key);
    return true;
  }

  bool BufferRightRow(Row row) {
    const Status charged = charge_.Add(ApproxRowBytes(row));
    if (!charged.ok()) {
      status_ = charged;
      return false;
    }
    right_group_.push_back(std::move(row));
    return true;
  }

  // Reads the next run of equal-keyed rows from the right input.
  bool LoadNextRightGroup() {
    right_group_.clear();
    charge_.ReleaseAll();
    if (!pending_valid_) {
      if (!right_rows_.Next(&pending_row_)) {
        status_ = right_rows_.status();
        group_valid_ = false;
        return false;
      }
      Result<Row> key = EvalKeys(*right_keys_, eval_, pending_row_);
      if (!key.ok()) {
        status_ = key.status();
        return false;
      }
      pending_key_ = std::move(*key);
      pending_valid_ = true;
    }
    right_group_key_ = pending_key_;
    if (!BufferRightRow(std::move(pending_row_))) return false;
    pending_valid_ = false;
    // Pull until the key changes.
    for (;;) {
      if (!right_rows_.Next(&pending_row_)) {
        status_ = right_rows_.status();
        break;
      }
      Result<Row> key = EvalKeys(*right_keys_, eval_, pending_row_);
      if (!key.ok()) {
        status_ = key.status();
        return false;
      }
      if (CompareKeys(*key, right_group_key_) == 0) {
        if (!BufferRightRow(std::move(pending_row_))) return false;
        continue;
      }
      pending_key_ = std::move(*key);
      pending_valid_ = true;
      break;
    }
    group_valid_ = true;
    return true;
  }

  std::unique_ptr<storage::RowIterator> left_;
  std::unique_ptr<storage::RowIterator> right_;
  RowReader left_rows_;
  RowReader right_rows_;
  const std::vector<ExprPtr>* left_keys_;
  const std::vector<ExprPtr>* right_keys_;
  udf::EvalContext* eval_;
  MemoryCharge charge_;

  Row left_row_;
  Row left_key_;
  std::vector<Row> right_group_;
  Row right_group_key_;
  bool group_valid_ = false;
  size_t group_index_ = 0;
  bool emitting_ = false;
  Row pending_row_;
  Row pending_key_;
  bool pending_valid_ = false;
  Status status_;
};

class NestedLoopIterator : public storage::RowSource {
 public:
  NestedLoopIterator(std::unique_ptr<storage::RowIterator> left,
                     std::vector<Row> right, const Expr* predicate,
                     udf::EvalContext* eval, MemoryCharge charge,
                     size_t batch_rows)
      : left_(std::move(left)),
        left_rows_(left_.get(), batch_rows),
        right_(std::move(right)),
        predicate_(predicate),
        eval_(eval),
        charge_(std::move(charge)) {}

  Status status() const override { return status_; }

 protected:
  bool NextRow(Row* row) override {
    for (;;) {
      while (right_index_ < right_.size()) {
        Row candidate = ConcatRows(left_row_, right_[right_index_++]);
        if (predicate_ == nullptr) {
          *row = std::move(candidate);
          return true;
        }
        Result<bool> keep = EvalPredicate(*predicate_, eval_, candidate);
        if (!keep.ok()) {
          status_ = keep.status();
          return false;
        }
        if (*keep) {
          *row = std::move(candidate);
          return true;
        }
      }
      if (!left_rows_.Next(&left_row_)) {
        status_ = left_rows_.status();
        return false;
      }
      right_index_ = 0;
    }
  }

 private:
  std::unique_ptr<storage::RowIterator> left_;
  RowReader left_rows_;
  std::vector<Row> right_;
  const Expr* predicate_;
  udf::EvalContext* eval_;
  MemoryCharge charge_;  // keeps the inner table accounted while live
  Row left_row_;
  size_t right_index_ = static_cast<size_t>(-1);
  Status status_;
};

}  // namespace

Schema ConcatSchemas(const Schema& left, const Schema& right) {
  Schema out = left;
  for (const Column& c : right.columns()) out.AddColumn(c);
  return out;
}

HashJoinOp::HashJoinOp(OperatorPtr left, OperatorPtr right,
                       std::vector<ExprPtr> left_keys,
                       std::vector<ExprPtr> right_keys, bool left_outer)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      left_outer_(left_outer),
      schema_(ConcatSchemas(left_->output_schema(), right_->output_schema())) {
  if (left_outer_) {
    // Outer-padded right columns are nullable in the output schema.
    Schema padded = left_->output_schema();
    for (Column col : right_->output_schema().columns()) {
      col.nullable = true;
      padded.AddColumn(std::move(col));
    }
    schema_ = std::move(padded);
  }
}

Result<std::unique_ptr<storage::RowIterator>> HashJoinOp::OpenImpl(
    ExecContext* ctx) {
  const JoinSpec spec{&left_keys_,
                      &right_keys_,
                      left_outer_,
                      right_->output_schema().num_columns(),
                      left_outer_ ? "Hash Match (Left Outer Join)"
                                  : "Hash Match (Inner Join)",
                      ctx,
                      mutable_stats()};
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> right,
                       right_->Open(ctx));
  HTG_ASSIGN_OR_RETURN(JoinBuild build, BuildJoinTable(spec, right.get(), 0));
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> left,
                       left_->Open(ctx));
  SpillQueue queue;
  HTG_ASSIGN_OR_RETURN(
      std::unique_ptr<storage::RowIterator> join,
      ProbeJoinTable(spec, std::move(build), std::move(left), &queue));
  if (join != nullptr) return join;
  // The build side spilled (a grace hash join): the same build and probe
  // run on each partition in turn.
  return {std::make_unique<SpilledOutputIterator>(
      nullptr, std::move(queue),
      [spec](SpillQueue* q) { return OpenJoinPartition(spec, q); })};
}

std::string HashJoinOp::Describe() const {
  return std::string(left_outer_ ? "Hash Match (Left Outer Join) "
                                 : "Hash Match (Inner Join) ") +
         DescribeJoinKeys(left_keys_, right_keys_);
}

MergeJoinOp::MergeJoinOp(OperatorPtr left, OperatorPtr right,
                         std::vector<ExprPtr> left_keys,
                         std::vector<ExprPtr> right_keys)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      schema_(ConcatSchemas(left_->output_schema(), right_->output_schema())) {}

Result<std::unique_ptr<storage::RowIterator>> MergeJoinOp::OpenImpl(
    ExecContext* ctx) {
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> left,
                       left_->Open(ctx));
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> right,
                       right_->Open(ctx));
  return {std::make_unique<MergeJoinIterator>(std::move(left), std::move(right),
                                              &left_keys_, &right_keys_,
                                              &ctx->eval, ctx->mem.get(),
                                              ctx->batch_rows)};
}

std::string MergeJoinOp::Describe() const {
  return "Merge Join (Inner Join) " +
         DescribeJoinKeys(left_keys_, right_keys_);
}

NestedLoopJoinOp::NestedLoopJoinOp(OperatorPtr left, OperatorPtr right,
                                   ExprPtr predicate)
    : left_(std::move(left)),
      right_(std::move(right)),
      predicate_(std::move(predicate)),
      schema_(ConcatSchemas(left_->output_schema(), right_->output_schema())) {}

Result<std::unique_ptr<storage::RowIterator>> NestedLoopJoinOp::OpenImpl(
    ExecContext* ctx) {
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> right,
                       right_->Open(ctx));
  std::vector<Row> right_rows;
  HTG_RETURN_IF_ERROR(DrainIterator(right.get(), &right_rows));
  // The inner table has no out-of-core fallback; over budget is a typed
  // statement error.
  MemoryCharge charge(ctx->mem.get(), "Nested Loops (Inner Join)");
  size_t total = 0;
  for (const Row& r : right_rows) total += ApproxRowBytes(r);
  const Status charged = charge.Add(total);
  if (!charged.ok()) return charged;
  RecordPeakMem(mutable_stats(), charge.peak());
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> left,
                       left_->Open(ctx));
  return {std::make_unique<NestedLoopIterator>(
      std::move(left), std::move(right_rows), predicate_.get(), &ctx->eval,
      std::move(charge), ctx->batch_rows)};
}

std::string NestedLoopJoinOp::Describe() const {
  return "Nested Loops (Inner Join) [" +
         (predicate_ ? predicate_->ToString() : std::string("true")) + "]";
}

}  // namespace htg::exec
