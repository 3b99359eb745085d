#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/table_def.h"
#include "common/result.h"
#include "common/synchronization.h"
#include "storage/buffer_pool.h"
#include "storage/filestream.h"
#include "storage/tablespace.h"
#include "storage/transaction.h"
#include "udf/registry.h"

namespace htg {

// Database-wide tunables.
struct DatabaseOptions {
  // Directory for FILESTREAM BLOBs. Empty = "<name>_fs" under /tmp.
  std::string filestream_root;
  // Durability knobs for the BLOB store (Vfs seam, retry policy, read
  // verification). Tests inject a FaultInjectingVfs here.
  storage::FileStreamOptions filestream_options;
  // Route table pages and BLOB chunk reads through one shared buffer
  // pool (with spill files under "<filestream_root>/tablespace"). Off
  // reverts every table to the fully in-memory storage mode — the
  // ablation knob for cache-effect measurements.
  bool enable_buffer_pool = true;
  // Pool capacity in bytes; 0 = HTG_BUFFER_POOL_MB (default 64 MiB).
  size_t buffer_pool_bytes = 0;
  // Degree of parallelism for eligible query plans (SQL Server's MAXDOP).
  int max_dop = 4;
  // Row-count threshold below which the planner stays serial.
  uint64_t parallel_threshold = 10000;
  // Upper bound on morsel size (heap pages per stolen work unit) for
  // parallel plans; the planner shrinks morsels on small tables so every
  // worker gets several.
  size_t morsel_pages = 32;
  // Rows per batch pulled between operators; 0 = RowBatch::kDefaultRows
  // (1024).
  size_t batch_rows = 0;
  // Per-query memory budget for materializing operators (sort, hash
  // aggregate, hash join, DISTINCT).
  //   -1 = use HTG_QUERY_MEM_MB (default 256 MiB)
  //    0 = unlimited
  //   >0 = that many bytes
  int64_t query_mem_bytes = -1;
  // Let over-budget operators degrade to disk spill runs through the
  // tablespace instead of failing. Off (or no buffer pool/tablespace):
  // over-budget statements fail with kResourceExhausted. HTG_SPILL=0
  // disables it from the environment.
  bool enable_spill = true;
  // Fan-out of one partition-spill pass in hash aggregate / hash join.
  size_t spill_partitions = 16;
  // Snapshot-isolation MVCC: statements read a consistent snapshot
  // (heap row-count watermarks, clustered txn stamps) and the server
  // accepts multi-statement BEGIN/COMMIT/ABORT. HTG_MVCC=0 disables it
  // from the environment and reverts to lock-only visibility.
  bool enable_mvcc = true;
  // Completed (committed + aborted) transactions between opportunistic
  // version-GC sweeps. -1 = HTG_MVCC_GC_EVERY (default 16); 0 disables
  // the automatic sweep (SweepVersions can still be called directly).
  int64_t mvcc_gc_every = -1;

  // batch_rows with the 0 = default applied.
  size_t ResolvedBatchRows() const;
  // query_mem_bytes with the -1 = environment default applied; 0 means
  // unlimited.
  size_t ResolvedQueryMemBytes() const;
  // enable_spill combined with the HTG_SPILL environment override.
  bool ResolvedSpillEnabled() const;
  // enable_mvcc combined with the HTG_MVCC environment override.
  bool ResolvedMvccEnabled() const;
  // mvcc_gc_every with the -1 = environment default applied.
  uint64_t ResolvedMvccGcEvery() const;
};

// The top-level engine object: catalog of tables, the function registry
// (built-ins plus any registered extension assemblies, e.g. the genomics
// library), and the FileStream BLOB store.
class Database {
 public:
  static Result<std::unique_ptr<Database>> Open(const std::string& name,
                                                DatabaseOptions options = {});
  ~Database();

  const std::string& name() const { return name_; }
  const DatabaseOptions& options() const { return options_; }
  void set_max_dop(int dop) { options_.max_dop = dop; }

  udf::FunctionRegistry* functions() { return &functions_; }
  const udf::FunctionRegistry* functions() const { return &functions_; }
  storage::FileStreamStore* filestream() { return filestream_.get(); }
  // Null when options.enable_buffer_pool is false.
  storage::BufferPool* buffer_pool() { return buffer_pool_.get(); }
  // Spill-file space for out-of-core operators; null when the buffer
  // pool is disabled (no tablespace -> no spilling, budget errors
  // instead).
  storage::TableSpace* tablespace() { return tablespace_.get(); }

  // DDL -----------------------------------------------------------------
  // The catalog map itself is internally synchronized (SharedMutex), so
  // concurrent sessions can resolve tables while one creates or drops.
  // Pointer lifetime is the caller's concern: a TableDef* stays valid
  // until DropTable, which the server's LockManager serializes against
  // in-flight statements (exclusive table + catalog locks).

  // Creates a table; `def.table` is instantiated here (heap, or clustered
  // when def.clustered_key is non-empty).
  Status CreateTable(catalog::TableDef def);
  Status DropTable(const std::string& name);

  Result<catalog::TableDef*> GetTable(const std::string& name);
  std::vector<std::string> ListTables() const;

  // DML -----------------------------------------------------------------

  // Inserts one row, converting inline BLOB values bound for FILESTREAM
  // columns into store-managed files (the stored value becomes the file
  // path, as with SQL Server's PathName()). If `txn` is non-null, undo
  // actions are registered.
  Status InsertRow(catalog::TableDef* table, Row row,
                   storage::Transaction* txn = nullptr);

  // Inserts one row stamped with the writing transaction's id: clustered
  // tables record it on the B+-tree entry (snapshot scans filter on it);
  // heaps ignore the stamp — their visibility is watermark-based.
  Status InsertRow(catalog::TableDef* table, Row row,
                   storage::Transaction* txn, storage::TxnId stamp);

  // An EvalContext wired to this database (DATALENGTH on filestreams etc).
  udf::EvalContext MakeEvalContext();

  // MVCC ----------------------------------------------------------------

  // Resolved enable_mvcc, cached at Open.
  bool mvcc_enabled() const { return mvcc_enabled_; }
  storage::TxnManager* txns() { return &txn_manager_; }

  // Opportunistic version GC: once ResolvedMvccGcEvery() transactions
  // have completed since the last sweep, retires committed watermark
  // ranges below the oldest live snapshot and physically removes
  // aborted-transaction entries from clustered trees.
  void MaybeSweepVersions();
  // Unconditional sweep; returns the number of clustered entries removed.
  uint64_t SweepVersions();

 private:
  Database(std::string name, DatabaseOptions options);

  std::string name_;
  DatabaseOptions options_;
  // Declared before tables_ and filestream_: TableFiles and pooled blob
  // registrations must be destroyed before the pool and tablespace they
  // point into (members destruct in reverse declaration order).
  std::unique_ptr<storage::BufferPool> buffer_pool_;
  std::unique_ptr<storage::TableSpace> tablespace_;
  mutable SharedMutex catalog_mu_{"Database::catalog_mu_"};
  std::map<std::string, std::unique_ptr<catalog::TableDef>> tables_
      HTG_GUARDED_BY(catalog_mu_);
  udf::FunctionRegistry functions_;
  std::unique_ptr<storage::FileStreamStore> filestream_;
  storage::TxnManager txn_manager_;
  bool mvcc_enabled_ = true;        // resolved once at Open
  uint64_t mvcc_gc_every_ = 16;     // resolved once at Open
  std::atomic<uint64_t> gc_pending_{0};
};

}  // namespace htg

