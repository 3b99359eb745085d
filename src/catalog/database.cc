#include "catalog/database.h"

#include "common/metrics.h"
#include "common/string_util.h"
#include "storage/clustered_table.h"
#include "storage/heap_table.h"

#include <algorithm>
#include <cstdlib>

#include "types/row_batch.h"

namespace htg {

size_t DatabaseOptions::ResolvedBatchRows() const {
  return batch_rows != 0 ? batch_rows : RowBatch::kDefaultRows;
}

size_t DatabaseOptions::ResolvedQueryMemBytes() const {
  if (query_mem_bytes >= 0) return static_cast<size_t>(query_mem_bytes);
  if (const char* env = std::getenv("HTG_QUERY_MEM_MB")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && parsed >= 0) {
      return static_cast<size_t>(parsed) << 20;
    }
  }
  return size_t{256} << 20;
}

bool DatabaseOptions::ResolvedSpillEnabled() const {
  if (!enable_spill) return false;
  if (const char* env = std::getenv("HTG_SPILL")) {
    if (env[0] == '0' && env[1] == '\0') return false;
  }
  return true;
}

bool DatabaseOptions::ResolvedMvccEnabled() const {
  if (!enable_mvcc) return false;
  if (const char* env = std::getenv("HTG_MVCC")) {
    if (env[0] == '0' && env[1] == '\0') return false;
  }
  return true;
}

uint64_t DatabaseOptions::ResolvedMvccGcEvery() const {
  if (mvcc_gc_every >= 0) return static_cast<uint64_t>(mvcc_gc_every);
  if (const char* env = std::getenv("HTG_MVCC_GC_EVERY")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && parsed >= 0) return static_cast<uint64_t>(parsed);
  }
  return 16;
}

Database::Database(std::string name, DatabaseOptions options)
    : name_(std::move(name)), options_(std::move(options)) {}

Database::~Database() = default;

Result<std::unique_ptr<Database>> Database::Open(const std::string& name,
                                                 DatabaseOptions options) {
  if (options.filestream_root.empty()) {
    options.filestream_root = "/tmp/htgdb_" + name + "_fs";
  }
  std::unique_ptr<Database> db(new Database(name, std::move(options)));
  if (db->options_.enable_buffer_pool) {
    storage::BufferPoolOptions pool_options;
    pool_options.capacity_bytes = db->options_.buffer_pool_bytes != 0
                                      ? db->options_.buffer_pool_bytes
                                      : storage::BufferPoolCapacityFromEnv();
    db->buffer_pool_ =
        std::make_unique<storage::BufferPool>(pool_options);
    storage::Vfs* vfs = db->options_.filestream_options.vfs != nullptr
                            ? db->options_.filestream_options.vfs
                            : storage::Vfs::Default();
    HTG_ASSIGN_OR_RETURN(
        db->tablespace_,
        storage::TableSpace::Open(vfs,
                                  db->options_.filestream_root + "/tablespace",
                                  db->buffer_pool_.get()));
    // Blob chunk reads share the same pool as table pages.
    db->options_.filestream_options.buffer_pool = db->buffer_pool_.get();
  }
  HTG_ASSIGN_OR_RETURN(
      db->filestream_,
      storage::FileStreamStore::Open(db->options_.filestream_root,
                                     db->options_.filestream_options));
  HTG_RETURN_IF_ERROR(udf::RegisterBuiltins(&db->functions_));
  db->mvcc_enabled_ = db->options_.ResolvedMvccEnabled();
  db->mvcc_gc_every_ = db->options_.ResolvedMvccGcEvery();
  return db;
}

Status Database::CreateTable(catalog::TableDef def) {
  const std::string key = ToUpper(def.name);
  {
    ReaderMutexLock lock(&catalog_mu_);
    if (tables_.count(key) > 0) {
      return Status::AlreadyExists("table exists: " + def.name);
    }
  }
  for (int c : def.clustered_key) {
    if (c < 0 || c >= def.schema.num_columns()) {
      return Status::InvalidArgument("clustered key column out of range");
    }
  }
  if (def.table == nullptr) {
    if (def.clustered_key.empty()) {
      auto heap = std::make_unique<storage::HeapTable>(def.schema,
                                                       def.compression);
      if (tablespace_ != nullptr) {
        HTG_RETURN_IF_ERROR(heap->AttachStorage(tablespace_.get(), def.name));
      }
      def.table = std::move(heap);
    } else {
      auto clustered = std::make_unique<storage::ClusteredTable>(
          def.schema, def.clustered_key, def.compression);
      if (tablespace_ != nullptr) {
        HTG_RETURN_IF_ERROR(
            clustered->AttachStorage(tablespace_.get(), def.name));
      }
      def.table = std::move(clustered);
    }
  }
  if (def.mvcc == nullptr) {
    def.mvcc = std::make_unique<storage::MvccTableState>();
  }
  MutexLock lock(&catalog_mu_);
  const auto [it, inserted] = tables_.emplace(
      key, std::make_unique<catalog::TableDef>(std::move(def)));
  (void)it;
  if (!inserted) {
    // Lost a create/create race since the pre-check above.
    return Status::AlreadyExists("table exists: " + key);
  }
  return Status::OK();
}

Status Database::DropTable(const std::string& name) {
  const std::string key = ToUpper(name);
  MutexLock lock(&catalog_mu_);
  auto it = tables_.find(key);
  if (it == tables_.end()) return Status::NotFound("no such table: " + name);
  tables_.erase(it);
  return Status::OK();
}

Result<catalog::TableDef*> Database::GetTable(const std::string& name) {
  ReaderMutexLock lock(&catalog_mu_);
  auto it = tables_.find(ToUpper(name));
  if (it == tables_.end()) return Status::NotFound("no such table: " + name);
  return it->second.get();
}

std::vector<std::string> Database::ListTables() const {
  ReaderMutexLock lock(&catalog_mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [key, def] : tables_) names.push_back(def->name);
  return names;
}

Status Database::InsertRow(catalog::TableDef* table, Row row,
                           storage::Transaction* txn) {
  return InsertRow(table, std::move(row), txn, storage::kFrozenTxn);
}

Status Database::InsertRow(catalog::TableDef* table, Row row,
                           storage::Transaction* txn, storage::TxnId stamp) {
  const Schema& schema = table->schema;
  if (static_cast<int>(row.size()) != schema.num_columns()) {
    return Status::InvalidArgument(StringPrintf(
        "INSERT supplies %zu values for %d columns", row.size(),
        schema.num_columns()));
  }
  for (int i = 0; i < schema.num_columns(); ++i) {
    const Column& col = schema.column(i);
    if (row[i].is_null()) {
      if (!col.nullable) {
        return Status::InvalidArgument("NULL into NOT NULL column " +
                                       col.name);
      }
      continue;
    }
    if (col.filestream && row[i].IsStringKind()) {
      // A string value that is already a path into the store stays a
      // reference (rows copied between FILESTREAM tables); anything else
      // is content and moves out into the FileStream store, with the row
      // keeping the file path (PathName()/DATALENGTH resolve it later).
      if (row[i].type() != DataType::kBlob &&
          row[i].AsString().rfind(filestream_->root(), 0) == 0 &&
          filestream_->BlobSize(row[i].AsString()).ok()) {
        continue;
      }
      HTG_ASSIGN_OR_RETURN(
          std::string path,
          filestream_->CreateBlob(table->name + "_" + col.name,
                                  row[i].AsString()));
      if (txn != nullptr) {
        storage::FileStreamStore* store = filestream_.get();
        txn->OnRollback(
            [store, path] { HTG_IGNORE_STATUS(store->Delete(path)); });
      }
      row[i] = Value::String(path);
      continue;
    }
    if (row[i].type() != col.type) {
      HTG_ASSIGN_OR_RETURN(row[i], row[i].CastTo(col.type));
    }
  }
  if (stamp != storage::kFrozenTxn) {
    // Clustered entries carry the stamp so snapshot scans can filter;
    // heaps stay unstamped — their visibility is a row-count watermark.
    if (auto* clustered =
            dynamic_cast<storage::ClusteredTable*>(table->table.get())) {
      return clustered->InsertStamped(row, stamp);
    }
  }
  return table->table->Insert(row);
}

void Database::MaybeSweepVersions() {
  if (!mvcc_enabled_ || mvcc_gc_every_ == 0) return;
  const uint64_t taken = txn_manager_.TakeCompletedSinceSweep();
  uint64_t pending =
      gc_pending_.fetch_add(taken, std::memory_order_acq_rel) + taken;
  // Claim one sweep's worth via CAS rather than store(0): completions
  // another thread folds in concurrently are never discarded, and two
  // racing triggers cannot both subtract below zero — the loser re-reads
  // the decremented count and backs off.
  while (pending >= mvcc_gc_every_) {
    if (gc_pending_.compare_exchange_weak(pending, pending - mvcc_gc_every_,
                                          std::memory_order_acq_rel)) {
      SweepVersions();
      return;
    }
  }
}

uint64_t Database::SweepVersions() {
  // Only ids below the horizon are settled for every live snapshot; a
  // concurrently-starting abort gets an id >= horizon, so trimming below
  // it cannot race a fresh abort.
  const storage::TxnId horizon = txn_manager_.Horizon();
  std::vector<storage::TxnId> aborted = txn_manager_.AbortedSet();
  aborted.erase(
      std::lower_bound(aborted.begin(), aborted.end(), horizon),
      aborted.end());
  uint64_t removed = 0;
  {
    // Holding the catalog lock keeps every TableDef alive for the sweep;
    // DropTable takes it exclusively. Lock order: catalog_mu_ before any
    // table latch.
    ReaderMutexLock lock(&catalog_mu_);
    for (const auto& [key, def] : tables_) {
      if (def->mvcc == nullptr) continue;
      def->mvcc->CollapseBelow(horizon);
      if (!aborted.empty()) {
        if (auto* clustered =
                dynamic_cast<storage::ClusteredTable*>(def->table.get())) {
          removed += clustered->SweepAborted(aborted);
        }
      }
    }
  }
  if (!aborted.empty()) txn_manager_.TrimAbortedBelow(horizon);
  HTG_METRIC_COUNTER("mvcc.gc.sweeps")->Add(1);
  if (removed > 0) {
    HTG_METRIC_COUNTER("mvcc.gc.entries_removed")->Add(removed);
  }
  return removed;
}

udf::EvalContext Database::MakeEvalContext() {
  udf::EvalContext ctx;
  ctx.db = this;
  storage::FileStreamStore* store = filestream_.get();
  const std::string root = store->root();
  ctx.filestream_size =
      [store, root](const std::string& path) -> Result<uint64_t> {
    if (path.rfind(root, 0) != 0) {
      return Status::NotFound("not a filestream path");
    }
    return store->BlobSize(path);
  };
  return ctx;
}

}  // namespace htg
