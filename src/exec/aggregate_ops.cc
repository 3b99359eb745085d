#include "exec/aggregate_ops.h"

#include <algorithm>
#include <set>

#include "common/string_util.h"
#include "common/synchronization.h"
#include "exec/batch.h"
#include "exec/spill_util.h"
#include "storage/heap_table.h"
#include "storage/spill.h"

namespace htg::exec {

namespace {

// Rough per-group accounting overheads (table slot, hash, key column
// entries, aggregate state) on top of the key's own bytes.
constexpr size_t kGroupOverheadBytes = 96;
constexpr size_t kInstanceOverheadBytes = 64;

// Thread-safe partition-spill sink for input rows whose group key did
// not fit in memory. Rows are hashed (salted by recursion level) into
// spill_partitions runs on one shared spill file; a later pass re-
// aggregates each partition with a fresh budget. The file and writers
// materialize lazily on the first spilled row, so the happy path costs
// one atomic load.
class AggSpill {
 public:
  AggSpill(storage::TableSpace* space, size_t nparts, int level,
           OperatorStats* stats)
      : space_(space),
        nparts_(nparts == 0 ? 1 : nparts),
        level_(level),
        stats_(stats) {}

  bool engaged() const { return engaged_.load(std::memory_order_acquire); }
  int level() const { return level_; }
  storage::SpillFile* file() { return file_.get(); }

  Status Add(const Row& key, const Row& input) {
    MutexLock lock(&mu_);
    if (file_ == nullptr) {
      HTG_ASSIGN_OR_RETURN(file_, storage::SpillFile::Create(space_, "agg"));
      writers_.reserve(nparts_);
      for (size_t p = 0; p < nparts_; ++p) {
        writers_.push_back(
            std::make_unique<storage::SpillRunWriter>(file_.get()));
      }
      engaged_.store(true, std::memory_order_release);
    }
    return writers_[SpillRowHash(key, level_) % nparts_]->Add(input);
  }

  // Seals every nonempty partition and flushes the file, so injected
  // write faults surface inside the statement. Returns the runs.
  Result<std::vector<storage::SpillRun>> Finish() {
    MutexLock lock(&mu_);
    std::vector<storage::SpillRun> runs;
    for (auto& writer : writers_) {
      if (writer->rows() == 0) continue;
      HTG_ASSIGN_OR_RETURN(storage::SpillRun run, writer->Finish());
      if (stats_ != nullptr) {
        stats_->spill_runs.fetch_add(1, std::memory_order_relaxed);
        stats_->spill_bytes.fetch_add(run.bytes, std::memory_order_relaxed);
      }
      runs.push_back(std::move(run));
    }
    writers_.clear();
    if (file_ != nullptr) HTG_RETURN_IF_ERROR(file_->Flush());
    return runs;
  }

 private:
  storage::TableSpace* space_;
  size_t nparts_;
  int level_;
  OperatorStats* stats_;
  Mutex mu_{"AggSpill::mu_"};
  std::atomic<bool> engaged_{false};
  // file_ is written once under mu_ and published by the engaged_
  // release store; the unlocked file() accessor is only used after an
  // acquire load observes engaged() == true (or after Finish), so it
  // stays unannotated by design.
  std::unique_ptr<storage::SpillFile> file_;
  std::vector<std::unique_ptr<storage::SpillRunWriter>> writers_
      HTG_GUARDED_BY(mu_);
};

// Memory governance handles threaded into the group-build loops. All
// fields are shared by every morsel worker of a parallel build: the
// charge and spill sink are thread-safe, the rest is read-only.
struct AggGovernance {
  MemoryCharge* charge = nullptr;
  ExecContext* ctx = nullptr;
  AggSpill* spill = nullptr;
  const char* op_name = "Hash Match (Aggregate)";
};

// The hash aggregate's group table: open addressing over dense group ids.
// A row's key is hashed and compared in place, through views of the key
// columns, and copied once, when its group is created. Aggregate state is
// one udf::AggregateColumn per aggregate indexed by the same group id, so
// built-ins update a whole batch inline and only UDAs and DISTINCT keep
// an object per group (through the generic InstanceColumn adapter).
//
// Hash/equality contract: two keys share a group iff Value::Compare()
// finds every column equal, and Value::Hash() agrees with Compare()
// (1, 1.0 and -0.0/0 hash alike), so probing by hash loses no match.
class GroupTable {
 public:
  GroupTable(size_t num_keys, const std::vector<AggSpec>& aggs)
      : keys_(num_keys) {
    states_.reserve(aggs.size());
    for (const AggSpec& a : aggs) states_.push_back(a.NewColumn());
  }

  size_t size() const { return hashes_.size(); }
  // Accounting bytes of every group created so far.
  size_t bytes() const { return bytes_; }

  // Resolves row i in [0, n) of `keys` (hash hashes[i]) to its group id
  // in gids[i], creating missing groups. With `gov` armed, creation is
  // charged against the query budget first; once the budget refuses a
  // group, live row i of `batch` goes to the spill (the one place a row
  // is materialized) and gets udf::kNoGroup. Groups already resident keep
  // accumulating, so every resident group is complete and disjoint from
  // the spilled keys.
  Status Resolve(const std::vector<udf::ValueView>& keys,
                 const uint64_t* hashes, size_t n, AggGovernance* gov,
                 const RowBatch* batch, uint32_t* gids) {
    for (size_t i = 0; i < n; ++i) {
      if (2 * (size() + 1) > slots_.size()) Grow();
      const uint64_t h = hashes[i];
      const uint64_t tag = h & kTagMask;
      const size_t mask = slots_.size() - 1;
      size_t idx = h & mask;
      uint32_t gid = udf::kNoGroup;
      for (uint64_t slot; (slot = slots_[idx]) != 0; idx = (idx + 1) & mask) {
        const uint32_t g = static_cast<uint32_t>(slot) - 1;
        if ((slot & kTagMask) == tag && KeyEquals(g, keys, i)) {
          gid = g;
          break;
        }
      }
      if (gid == udf::kNoGroup) {
        size_t bytes = sizeof(Row) + kGroupOverheadBytes +
                       states_.size() * kInstanceOverheadBytes;
        for (const udf::ValueView& k : keys) bytes += k[i].ApproxBytes();
        if (gov != nullptr && gov->charge != nullptr) {
          Status charged = gov->charge->Add(bytes);
          if (!charged.ok()) {
            gov->charge->Release(bytes);  // the group is not being created
            if (!charged.IsResourceExhausted()) return charged;
            if (!gov->ctx->CanSpill()) {
              return SpillUnavailableError(gov->op_name, *gov->ctx->mem);
            }
            Row key;
            for (const udf::ValueView& k : keys) key.push_back(k[i]);
            Row input;
            batch->FillRow(i, &input);
            HTG_RETURN_IF_ERROR(gov->spill->Add(key, input));
            gids[i] = udf::kNoGroup;
            continue;
          }
        }
        gid = static_cast<uint32_t>(size());
        slots_[idx] = tag | (uint64_t{gid} + 1);
        hashes_.push_back(h);
        for (size_t k = 0; k < keys.size(); ++k) {
          keys_[k].push_back(keys[k][i]);
        }
        bytes_ += bytes;
      }
      gids[i] = gid;
    }
    for (auto& state : states_) state->Resize(size());
    return Status::OK();
  }

  // Folds row i of args[a] into aggregate a of group gids[i].
  Status Update(const uint32_t* gids, size_t n,
                const std::vector<std::vector<udf::ValueView>>& args) {
    for (size_t a = 0; a < states_.size(); ++a) {
      HTG_RETURN_IF_ERROR(states_[a]->Update(gids, n, args[a]));
    }
    return Status::OK();
  }

  // Folds the groups of `other` whose hash falls in partition `part` of
  // `nparts` (all of them when nparts is 1) into this table.
  Status MergeFrom(const GroupTable& other, size_t part = 0,
                   size_t nparts = 1) {
    std::vector<uint32_t> src;
    std::vector<uint64_t> hashes;
    for (uint32_t g = 0; g < other.size(); ++g) {
      if (nparts > 1 && (other.hashes_[g] >> 40) % nparts != part) continue;
      src.push_back(g);
      hashes.push_back(other.hashes_[g]);
    }
    std::vector<udf::ValueView> keys;
    for (const std::vector<Value>& col : other.keys_) {
      keys.push_back(udf::ValueView{col.data(), src.data()});
    }
    std::vector<uint32_t> dst(src.size());
    HTG_RETURN_IF_ERROR(Resolve(keys, hashes.data(), src.size(), nullptr,
                                nullptr, dst.data()));
    for (size_t a = 0; a < states_.size(); ++a) {
      HTG_RETURN_IF_ERROR(states_[a]->Merge(dst.data(), *other.states_[a],
                                            src.data(), src.size()));
    }
    return Status::OK();
  }

  // Output rows, keys then finalized aggregates, one per group in
  // creation order, as batches of `batch_rows` rows; consumes the keys.
  // `global` (no GROUP BY) yields one row even over no input: SELECT
  // COUNT(*) of nothing is 0.
  Result<std::vector<RowBatch>> TakeBatches(bool global, size_t batch_rows) {
    const size_t groups = global && size() == 0 ? 1 : size();
    for (auto& state : states_) state->Resize(groups);
    std::vector<RowBatch> out;
    for (size_t first = 0; first < groups; first += batch_rows) {
      const size_t end = std::min(groups, first + batch_rows);
      RowBatch batch(batch_rows);
      batch.ResetColumns(keys_.size() + states_.size());
      for (size_t k = 0; k < keys_.size(); ++k) {
        std::vector<Value>& col = batch.column(k);
        col.reserve(end - first);
        for (size_t g = first; g < end; ++g) {
          col.push_back(std::move(keys_[k][g]));
        }
      }
      for (size_t a = 0; a < states_.size(); ++a) {
        std::vector<Value>& col = batch.column(keys_.size() + a);
        col.reserve(end - first);
        for (size_t g = first; g < end; ++g) {
          HTG_ASSIGN_OR_RETURN(Value v, states_[a]->Finalize(g));
          col.push_back(std::move(v));
        }
      }
      batch.set_num_rows(end - first);
      out.push_back(std::move(batch));
    }
    return out;
  }

 private:
  // Slots hold the hash's upper half over (group id + 1); 0 is empty.
  static constexpr uint64_t kTagMask = ~uint64_t{0xffffffff};

  bool KeyEquals(uint32_t g, const std::vector<udf::ValueView>& keys,
                 size_t i) const {
    for (size_t k = 0; k < keys.size(); ++k) {
      if (keys_[k][g].Compare(keys[k][i]) != 0) return false;
    }
    return true;
  }

  // Doubles the slot array (at most half full) and reinserts by hash.
  void Grow() {
    std::vector<uint64_t> slots(slots_.empty() ? 64 : 2 * slots_.size(), 0);
    const size_t mask = slots.size() - 1;
    for (uint64_t slot : slots_) {
      if (slot == 0) continue;
      size_t idx = hashes_[static_cast<uint32_t>(slot) - 1] & mask;
      while (slots[idx] != 0) idx = (idx + 1) & mask;
      slots[idx] = slot;
    }
    slots_ = std::move(slots);
  }

  std::vector<std::vector<Value>> keys_;  // [key column][group id]
  std::vector<uint64_t> hashes_;          // [group id]
  std::vector<uint64_t> slots_;           // power of two
  std::vector<std::unique_ptr<udf::AggregateColumn>> states_;
  size_t bytes_ = 0;
};

// A group key or aggregate argument over one batch. A column reference
// is viewed in place; any other expression evaluates into `scratch`.
struct BatchInput {
  const Expr* expr;
  int column;  // >= 0 for a column reference
  std::vector<Value> scratch;

  explicit BatchInput(const Expr* e) : expr(e), column(-1) {
    if (const auto* ref = dynamic_cast<const ColumnRefExpr*>(e)) {
      column = ref->index();
    }
  }

  Status View(udf::EvalContext* eval, const RowBatch& batch,
              const uint32_t* sel, size_t n, udf::ValueView* view) {
    if (column >= 0) {
      if (static_cast<size_t>(column) >= batch.num_columns()) {
        return Status::Internal("column index out of range: " +
                                expr->ToString());
      }
      *view = udf::ValueView{batch.column(column).data(), sel};
      return Status::OK();
    }
    HTG_RETURN_IF_ERROR(expr->EvalBatch(eval, batch, sel, n, &scratch));
    *view = udf::ValueView{scratch.data(), nullptr};
    return Status::OK();
  }
};

// Drains `iter` a batch at a time into `table` (spilling over-budget keys
// when `gov` is armed). The one build loop of every hash aggregate: a
// per-row producer (TVF, join, spill run) arrives through the RowSource
// batch fill. Keys hash and probe in place; a spilled row is the only
// one materialized.
Status BuildGroups(storage::RowIterator* iter, size_t batch_rows,
                   const std::vector<ExprPtr>& group_exprs,
                   const std::vector<AggSpec>& aggs, udf::EvalContext* eval,
                   GroupTable* table, AggGovernance* gov) {
  std::vector<BatchInput> key_inputs;
  for (const ExprPtr& g : group_exprs) key_inputs.emplace_back(g.get());
  std::vector<std::vector<BatchInput>> arg_inputs(aggs.size());
  std::vector<std::vector<udf::ValueView>> args(aggs.size());
  for (size_t a = 0; a < aggs.size(); ++a) {
    for (const ExprPtr& e : aggs[a].args) arg_inputs[a].emplace_back(e.get());
    args[a].resize(aggs[a].args.size());
  }
  std::vector<udf::ValueView> keys(group_exprs.size());
  std::vector<uint64_t> hashes;
  std::vector<uint32_t> gids;
  RowBatch batch(batch_rows);
  while (iter->NextBatch(&batch)) {
    const size_t n = batch.ActiveRows();
    const uint32_t* sel = batch.selection_data();
    for (size_t k = 0; k < keys.size(); ++k) {
      HTG_RETURN_IF_ERROR(key_inputs[k].View(eval, batch, sel, n, &keys[k]));
    }
    for (size_t a = 0; a < aggs.size(); ++a) {
      for (size_t j = 0; j < args[a].size(); ++j) {
        HTG_RETURN_IF_ERROR(
            arg_inputs[a][j].View(eval, batch, sel, n, &args[a][j]));
      }
    }
    hashes.assign(n, 0);
    for (const udf::ValueView& k : keys) {
      for (size_t i = 0; i < n; ++i) {
        hashes[i] = (hashes[i] ^ k[i].Hash()) * 0x9e3779b97f4a7c15ULL;
      }
    }
    gids.resize(n);
    HTG_RETURN_IF_ERROR(
        table->Resolve(keys, hashes.data(), n, gov, &batch, gids.data()));
    HTG_RETURN_IF_ERROR(table->Update(gids.data(), n, args));
  }
  return iter->status();
}

std::string DescribeAggs(const std::vector<ExprPtr>& group_exprs,
                         const std::vector<AggSpec>& aggs) {
  std::string out = "[";
  if (!group_exprs.empty()) {
    out += "GROUP BY: ";
    for (size_t i = 0; i < group_exprs.size(); ++i) {
      if (i > 0) out += ", ";
      out += group_exprs[i]->ToString();
    }
    out += "; ";
  }
  for (size_t i = 0; i < aggs.size(); ++i) {
    if (i > 0) out += ", ";
    out += aggs[i].display;
  }
  out += "]";
  return out;
}

// The spill partitions still to re-aggregate, each tagged with the
// recursion depth of the pass that will process it (its sub-spills salt
// their hash with that level), plus the spill files holding them.
class AggSpillQueue {
 public:
  AggSpillQueue(const std::vector<ExprPtr>* group_exprs,
                const std::vector<AggSpec>* aggs, ExecContext* ctx,
                OperatorStats* stats, const char* op_name)
      : group_exprs_(group_exprs),
        aggs_(aggs),
        ctx_(ctx),
        stats_(stats),
        op_name_(op_name) {}

  bool empty() const { return work_.empty(); }

  // Seals `spill` and queues its partitions.
  Status Add(std::unique_ptr<AggSpill> spill) {
    HTG_ASSIGN_OR_RETURN(std::vector<storage::SpillRun> runs, spill->Finish());
    for (storage::SpillRun& run : runs) {
      work_.push_back(Work{spill->file(), std::move(run), spill->level() + 1});
    }
    files_.push_back(std::move(spill));
    return Status::OK();
  }

  // Re-aggregates the next partition into `table`, charging its new
  // groups to `charge`; keys the budget refuses spill one level deeper
  // and join the queue.
  Status ReaggregateNext(GroupTable* table, MemoryCharge* charge) {
    Work work = std::move(work_.back());
    work_.pop_back();
    if (work.level > kMaxSpillDepth) return SpillDepthError(op_name_);
    auto sub = std::make_unique<AggSpill>(
        ctx_->tablespace, ctx_->spill_partitions, work.level, stats_);
    AggGovernance gov{charge, ctx_, sub.get(), op_name_};
    storage::SpillRunReader reader(work.file, std::move(work.run));
    HTG_RETURN_IF_ERROR(BuildGroups(&reader, ctx_->batch_rows, *group_exprs_,
                                    *aggs_, &ctx_->eval, table, &gov));
    if (stats_ != nullptr) RecordPeakMem(stats_, charge->peak());
    return sub->engaged() ? Add(std::move(sub)) : Status::OK();
  }

 private:
  struct Work {
    storage::SpillFile* file;
    storage::SpillRun run;
    int level;
  };

  const std::vector<ExprPtr>* group_exprs_;
  const std::vector<AggSpec>* aggs_;
  ExecContext* ctx_;
  OperatorStats* stats_;
  const char* op_name_;
  std::vector<Work> work_;
  std::vector<std::unique_ptr<AggSpill>> files_;  // keeps spill data alive
};

// Streams the aggregate's output when the build spilled: emits the
// finalized in-memory groups first, then lazily re-aggregates one spill
// partition at a time (each under a fresh budget charge; partitions that
// still blow the budget sub-partition recursively with a new hash salt).
// Owns every spill file involved, so the data is deleted with the
// iterator.
class SpilledAggIterator : public BatchIterator {
 public:
  SpilledAggIterator(std::vector<RowBatch> ready, MemoryCharge charge,
                     AggSpillQueue queue,
                     const std::vector<ExprPtr>* group_exprs,
                     const std::vector<AggSpec>* aggs, size_t batch_rows)
      : ready_(std::move(ready)),
        charge_(std::move(charge)),
        queue_(std::move(queue)),
        group_exprs_(group_exprs),
        aggs_(aggs),
        batch_rows_(batch_rows) {}

 protected:
  bool ProduceBatch(RowBatch* batch) override {
    if (!status_.ok()) return false;
    for (;;) {
      while (next_ready_ < ready_.size()) {
        *batch = std::move(ready_[next_ready_++]);
        if (batch->ActiveRows() > 0) return true;
      }
      if (queue_.empty()) return false;
      status_ = ProcessNextPartition();
      if (!status_.ok()) return false;
    }
  }

 private:
  Status ProcessNextPartition() {
    ready_.clear();
    next_ready_ = 0;
    charge_.ReleaseAll();  // the previous partition's rows are consumed
    GroupTable groups(group_exprs_->size(), *aggs_);
    HTG_RETURN_IF_ERROR(queue_.ReaggregateNext(&groups, &charge_));
    HTG_ASSIGN_OR_RETURN(ready_, groups.TakeBatches(false, batch_rows_));
    return Status::OK();
  }

  std::vector<RowBatch> ready_;
  size_t next_ready_ = 0;
  MemoryCharge charge_;
  AggSpillQueue queue_;
  const std::vector<ExprPtr>* group_exprs_;
  const std::vector<AggSpec>* aggs_;
  size_t batch_rows_;
};

// Wraps an aggregate with DISTINCT semantics: argument tuples are
// deduplicated by Value equality (the order of Value::Compare, so 1.0000001
// and 1.0000002 stay two values, as they are two GROUP BY groups) and
// replayed into a fresh inner instance at Terminate, so that Merge (set
// union) stays correct under parallel plans.
class DistinctAggregateInstance : public udf::AggregateInstance {
 public:
  explicit DistinctAggregateInstance(const udf::AggregateFunction* fn)
      : fn_(fn) {}

  Status Accumulate(const std::vector<Value>& args) override {
    distinct_.insert(args);
    return Status::OK();
  }

  Status Merge(const udf::AggregateInstance& other) override {
    const auto& o = static_cast<const DistinctAggregateInstance&>(other);
    distinct_.insert(o.distinct_.begin(), o.distinct_.end());
    return Status::OK();
  }

  Result<Value> Terminate() override {
    std::unique_ptr<udf::AggregateInstance> inner = fn_->NewInstance();
    for (const std::vector<Value>& args : distinct_) {
      HTG_RETURN_IF_ERROR(inner->Accumulate(args));
    }
    return inner->Terminate();
  }

 private:
  const udf::AggregateFunction* fn_;
  std::set<std::vector<Value>> distinct_;  // lexicographic Value::operator<
};

}  // namespace

AggSpec AggSpec::Clone() const {
  AggSpec copy;
  copy.fn = fn;
  copy.display = display;
  copy.distinct = distinct;
  copy.args.reserve(args.size());
  for (const ExprPtr& a : args) copy.args.push_back(a->Clone());
  return copy;
}

std::unique_ptr<udf::AggregateColumn> AggSpec::NewColumn() const {
  if (!distinct) return fn->NewColumn();
  const udf::AggregateFunction* f = fn;
  return std::make_unique<udf::InstanceColumn>(
      [f] { return std::make_unique<DistinctAggregateInstance>(f); });
}

DataType AggSpec::result_type() const {
  std::vector<DataType> types;
  types.reserve(args.size());
  for (const ExprPtr& a : args) types.push_back(a->result_type());
  return fn->result_type(types);
}

Schema MakeAggregateSchema(const std::vector<ExprPtr>& group_exprs,
                           const std::vector<std::string>& group_names,
                           const std::vector<AggSpec>& aggs) {
  Schema schema;
  for (size_t i = 0; i < group_exprs.size(); ++i) {
    Column col;
    col.name = i < group_names.size() ? group_names[i]
                                      : StringPrintf("group%zu", i);
    col.type = group_exprs[i]->result_type();
    schema.AddColumn(col);
  }
  for (const AggSpec& a : aggs) {
    Column col;
    col.name = a.display;
    col.type = a.result_type();
    schema.AddColumn(col);
  }
  return schema;
}

HashAggregateOp::HashAggregateOp(OperatorPtr child,
                                 std::vector<ExprPtr> group_exprs,
                                 std::vector<std::string> group_names,
                                 std::vector<AggSpec> aggs)
    : child_(std::move(child)),
      group_exprs_(std::move(group_exprs)),
      aggs_(std::move(aggs)),
      schema_(MakeAggregateSchema(group_exprs_, group_names, aggs_)) {}

Result<std::unique_ptr<storage::RowIterator>> HashAggregateOp::OpenImpl(
    ExecContext* ctx) {
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> child,
                       child_->Open(ctx));
  OperatorStats* stats = mutable_stats();
  MemoryCharge charge(ctx->mem.get(), "Hash Match (Aggregate)");
  auto spill = std::make_unique<AggSpill>(
      ctx->tablespace, ctx->spill_partitions, 0, stats);
  AggGovernance gov{&charge, ctx, spill.get(), "Hash Match (Aggregate)"};
  GroupTable groups(group_exprs_.size(), aggs_);
  HTG_RETURN_IF_ERROR(BuildGroups(child.get(), ctx->batch_rows, group_exprs_,
                                  aggs_, &ctx->eval, &groups, &gov));
  RecordPeakMem(stats, charge.peak());
  // A spilled global aggregate gets its one row from the spill pass.
  HTG_ASSIGN_OR_RETURN(
      std::vector<RowBatch> batches,
      groups.TakeBatches(group_exprs_.empty() && !spill->engaged(),
                         ctx->batch_rows));
  if (!spill->engaged()) {
    return {std::make_unique<ChargedBatchesIterator>(std::move(batches),
                                                     std::move(charge))};
  }
  AggSpillQueue queue(&group_exprs_, &aggs_, ctx, stats,
                      "Hash Match (Aggregate)");
  HTG_RETURN_IF_ERROR(queue.Add(std::move(spill)));
  return {std::make_unique<SpilledAggIterator>(
      std::move(batches), std::move(charge), std::move(queue), &group_exprs_,
      &aggs_, ctx->batch_rows)};
}

std::string HashAggregateOp::Describe() const {
  return "Hash Match (Aggregate) " + DescribeAggs(group_exprs_, aggs_);
}

StreamAggregateOp::StreamAggregateOp(OperatorPtr child,
                                     std::vector<ExprPtr> group_exprs,
                                     std::vector<std::string> group_names,
                                     std::vector<AggSpec> aggs)
    : child_(std::move(child)),
      group_exprs_(std::move(group_exprs)),
      aggs_(std::move(aggs)),
      schema_(MakeAggregateSchema(group_exprs_, group_names, aggs_)) {}

namespace {

// Emits one row per run of equal group keys in the (ordered) input.
class StreamAggIterator : public storage::RowSource {
 public:
  StreamAggIterator(std::unique_ptr<storage::RowIterator> child,
                    const std::vector<ExprPtr>* group_exprs,
                    const std::vector<AggSpec>* aggs, udf::EvalContext* eval,
                    size_t batch_rows)
      : child_(std::move(child)),
        input_(child_.get(), batch_rows),
        group_exprs_(group_exprs),
        aggs_(aggs),
        eval_(eval) {}

  Status status() const override { return status_; }

 protected:
  bool NextRow(Row* out) override {
    if (done_) return false;
    Row input;
    for (;;) {
      if (!input_.Next(&input)) {
        status_ = input_.status();
        done_ = true;
        if (!status_.ok() || !has_group_) return false;
        return EmitCurrent(out);
      }
      Row key;
      key.reserve(group_exprs_->size());
      for (const ExprPtr& g : *group_exprs_) {
        Result<Value> v = g->Eval(eval_, input);
        if (!v.ok()) {
          status_ = v.status();
          return false;
        }
        key.push_back(std::move(*v));
      }
      // Value::operator== is Compare() == 0, the group-equality rule.
      const bool same = has_group_ && std::equal(key.begin(), key.end(),
                                                 current_key_.begin());
      if (!same && has_group_) {
        // Close the previous group, then start the new one with this row.
        Row result;
        if (!EmitCurrent(&result)) return false;
        StartGroup(std::move(key));
        if (!Accumulate(input)) return false;
        *out = std::move(result);
        return true;
      }
      if (!has_group_) StartGroup(std::move(key));
      if (!Accumulate(input)) return false;
    }
  }

 private:
  void StartGroup(Row key) {
    current_key_ = std::move(key);
    has_group_ = true;
    states_.clear();
    for (const AggSpec& a : *aggs_) {
      states_.push_back(a.NewColumn());
      states_.back()->Resize(1);
    }
  }

  bool Accumulate(const Row& input) {
    const uint32_t group = 0;
    for (size_t i = 0; i < aggs_->size(); ++i) {
      const std::vector<ExprPtr>& arg_exprs = (*aggs_)[i].args;
      args_.resize(arg_exprs.size());
      views_.resize(arg_exprs.size());
      for (size_t a = 0; a < arg_exprs.size(); ++a) {
        Result<Value> v = arg_exprs[a]->Eval(eval_, input);
        if (!v.ok()) {
          status_ = v.status();
          return false;
        }
        args_[a] = std::move(*v);
        views_[a] = udf::ValueView{&args_[a], nullptr};
      }
      const Status s = states_[i]->Update(&group, 1, views_);
      if (!s.ok()) {
        status_ = s;
        return false;
      }
    }
    return true;
  }

  bool EmitCurrent(Row* out) {
    *out = current_key_;
    for (auto& state : states_) {
      Result<Value> v = state->Finalize(0);
      if (!v.ok()) {
        status_ = v.status();
        return false;
      }
      out->push_back(std::move(*v));
    }
    return true;
  }

  std::unique_ptr<storage::RowIterator> child_;
  RowReader input_;
  const std::vector<ExprPtr>* group_exprs_;
  const std::vector<AggSpec>* aggs_;
  udf::EvalContext* eval_;
  Row current_key_;
  bool has_group_ = false;
  bool done_ = false;
  std::vector<std::unique_ptr<udf::AggregateColumn>> states_;
  std::vector<Value> args_;
  std::vector<udf::ValueView> views_;
  Status status_;
};

}  // namespace

Result<std::unique_ptr<storage::RowIterator>> StreamAggregateOp::OpenImpl(
    ExecContext* ctx) {
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> child,
                       child_->Open(ctx));
  return {std::make_unique<StreamAggIterator>(std::move(child), &group_exprs_,
                                              &aggs_, &ctx->eval,
                                              ctx->batch_rows)};
}

std::string StreamAggregateOp::Describe() const {
  return "Stream Aggregate " + DescribeAggs(group_exprs_, aggs_);
}

ParallelAggregateOp::ParallelAggregateOp(catalog::TableDef* table,
                                         std::vector<ParallelStage> stages,
                                         std::vector<ExprPtr> group_exprs,
                                         std::vector<std::string> group_names,
                                         std::vector<AggSpec> aggs, int dop,
                                         size_t morsel_pages)
    : table_(table),
      stages_(std::move(stages)),
      group_exprs_(std::move(group_exprs)),
      aggs_(std::move(aggs)),
      dop_(dop < 1 ? 1 : dop),
      morsel_pages_(morsel_pages == 0 ? kDefaultMorselPages : morsel_pages),
      schema_(MakeAggregateSchema(group_exprs_, group_names, aggs_)),
      repr_(BuildExplainPipeline(table_, stages_, dop_, morsel_pages_)) {}

int64_t ParallelAggregateOp::EstimateRows() const {
  // A global aggregate yields exactly one row; grouped cardinality is
  // unknown without column statistics.
  return group_exprs_.empty() ? 1 : -1;
}

Result<std::unique_ptr<storage::RowIterator>> ParallelAggregateOp::OpenImpl(
    ExecContext* ctx) {
  auto* heap = dynamic_cast<storage::HeapTable*>(table_->table.get());
  if (heap == nullptr) {
    return Status::Internal("parallel aggregate over non-heap table " +
                            table_->name);
  }
  HTG_RETURN_IF_ERROR(heap->SealCurrentPage());
  const std::vector<Morsel> morsels =
      MakeMorsels(heap->num_pages_sealed(), morsel_pages_);
  const int dop =
      std::min(static_cast<size_t>(dop_), std::max<size_t>(1, morsels.size()));

  OperatorStats* stats = mutable_stats();
  if (ctx->collect_stats) {
    stats->worker_rows.assign(dop, 0);
    stats->worker_morsels.assign(dop, 0);
    stats->worker_batches.assign(dop, 0);
  }

  // Shared governance: one charge ledger and one partition-spill sink
  // for all workers. A worker that cannot create a new group (budget
  // crossed) spills its input rows; keys resident in *its* partial table
  // keep accumulating. The same key may then live in one worker's table
  // and in the spill partitions, so the spill path below merges
  // everything (tables and re-aggregated partitions) into one final table.
  MemoryCharge charge(ctx->mem.get(), "Parallel Hash Match (Aggregate)");
  auto spill = std::make_unique<AggSpill>(
      ctx->tablespace, ctx->spill_partitions, 0, stats);
  AggGovernance gov{&charge, ctx, spill.get(),
                    "Parallel Hash Match (Aggregate)"};

  // Partial phase: workers steal morsels off the shared counter, replay
  // the stage pipeline over each page range, and accumulate into
  // thread-local partial tables. Expression trees are immutable and
  // shared; each worker evaluates through its own EvalContext copy.
  std::vector<GroupTable> partials;
  partials.reserve(dop);
  for (int w = 0; w < dop; ++w) {
    partials.emplace_back(group_exprs_.size(), aggs_);
  }
  std::vector<ExecContext> worker_ctx(dop, *ctx);
  HTG_RETURN_IF_ERROR(ParallelDrainMorsels(
      ctx->pool, dop, morsels.size(), [&](int worker, size_t m) -> Status {
        OperatorPtr pipeline =
            BuildMorselPipeline(table_, morsels[m], stages_);
        if (ctx->collect_stats) {
          LinkPipelineStats(pipeline.get(), repr_.get());
        }
        HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> iter,
                             pipeline->Open(&worker_ctx[worker]));
        if (ctx->collect_stats) {
          // Count the rows (and batches) this worker feeds its partial
          // table, for the per-worker skew lines under the exchange in
          // ANALYZE output.
          iter = WrapCounting(std::move(iter), &stats->worker_rows[worker],
                              &stats->worker_batches[worker]);
          ++stats->worker_morsels[worker];
        }
        return BuildGroups(iter.get(), ctx->batch_rows, group_exprs_, aggs_,
                           &worker_ctx[worker].eval, &partials[worker], &gov);
      }));
  RecordPeakMem(stats, charge.peak());

  if (spill->engaged()) {
    // Degraded path: fold every partial table into one final table, then
    // re-aggregate each spill partition (recursively, fresh budget per
    // pass) into it too — the only ordering that is correct when a key
    // sits in one worker's table and in the spill.
    GroupTable merged(group_exprs_.size(), aggs_);
    for (const GroupTable& partial : partials) {
      HTG_RETURN_IF_ERROR(merged.MergeFrom(partial));
    }
    partials.clear();
    // The resident merged table was sized by the budget during the build;
    // release its charges so each partition pass below gets the full
    // budget — otherwise a pass could never admit a group and rows would
    // re-spill until the depth limit. The table is re-accounted (and the
    // peak recorded) once the passes are done.
    charge.ReleaseAll();
    // Each pass re-aggregates straight into the merged table, charging
    // its new groups to a fresh pass budget: keys are owned by exactly
    // one partition per level, so a pass only meets build-time residents.
    AggSpillQueue queue(&group_exprs_, &aggs_, ctx, stats,
                        "Parallel Hash Match (Aggregate)");
    HTG_RETURN_IF_ERROR(queue.Add(std::move(spill)));
    while (!queue.empty()) {
      MemoryCharge pass_charge(ctx->mem.get(),
                               "Parallel Hash Match (Aggregate)");
      HTG_RETURN_IF_ERROR(queue.ReaggregateNext(&merged, &pass_charge));
    }
    charge.AddUnchecked(merged.bytes());
    RecordPeakMem(stats, charge.peak());
    HTG_ASSIGN_OR_RETURN(std::vector<RowBatch> batches,
                         merged.TakeBatches(false, ctx->batch_rows));
    return {std::make_unique<ChargedBatchesIterator>(std::move(batches),
                                                     std::move(charge))};
  }

  // Final phase: a parallel partitioned merge instead of a serial fold.
  // Groups are owned by hash partition; each partition worker walks every
  // partial table, merges the groups it owns, and finalizes them. The
  // partial tables are only read, so they need no locking. A global
  // aggregate's one key hashes to 0, so partition 0 owns it and yields its
  // row even over an empty input.
  const size_t nparts = static_cast<size_t>(dop);
  std::vector<std::vector<RowBatch>> out_parts(nparts);
  HTG_RETURN_IF_ERROR(ParallelDrainMorsels(
      ctx->pool, dop, nparts, [&](int, size_t part) -> Status {
        GroupTable merged(group_exprs_.size(), aggs_);
        for (const GroupTable& partial : partials) {
          HTG_RETURN_IF_ERROR(merged.MergeFrom(partial, part, nparts));
        }
        HTG_ASSIGN_OR_RETURN(
            out_parts[part],
            merged.TakeBatches(part == 0 && group_exprs_.empty(),
                               ctx->batch_rows));
        return Status::OK();
      }));

  std::vector<RowBatch> batches;
  for (std::vector<RowBatch>& part : out_parts) {
    for (RowBatch& b : part) batches.push_back(std::move(b));
    part.clear();
  }
  RecordPeakMem(stats, charge.peak());
  return {std::make_unique<ChargedBatchesIterator>(std::move(batches),
                                                   std::move(charge))};
}

std::string ParallelAggregateOp::Describe() const {
  return StringPrintf(
             "Parallelism (Gather Streams) + Hash Match "
             "(Partial/Final Aggregate), DOP=%d ",
             dop_) +
         DescribeAggs(group_exprs_, aggs_);
}

}  // namespace htg::exec
