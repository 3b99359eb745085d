#include "sql/engine.h"

#include <algorithm>
#include <cassert>

#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "exec/batch.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "storage/clustered_table.h"
#include "storage/heap_table.h"
#include "storage/transaction.h"

namespace htg::sql {

std::string QueryResult::ToString(size_t max_rows) const {
  if (schema.num_columns() == 0) {
    return message.empty()
               ? StringPrintf("(%llu rows affected)",
                              static_cast<unsigned long long>(rows_affected))
               : message;
  }
  const int ncols = schema.num_columns();
  std::vector<size_t> widths(ncols);
  std::vector<std::vector<std::string>> cells;
  for (int c = 0; c < ncols; ++c) widths[c] = schema.column(c).name.size();
  const size_t limit = std::min(rows.size(), max_rows);
  cells.reserve(limit);
  for (size_t r = 0; r < limit; ++r) {
    std::vector<std::string> line;
    line.reserve(ncols);
    for (int c = 0; c < ncols; ++c) {
      std::string text = rows[r][c].ToString();
      if (text.size() > 40) text = text.substr(0, 37) + "...";
      widths[c] = std::max(widths[c], text.size());
      line.push_back(std::move(text));
    }
    cells.push_back(std::move(line));
  }
  std::string out;
  for (int c = 0; c < ncols; ++c) {
    out += StringPrintf("%-*s ", static_cast<int>(widths[c]),
                        schema.column(c).name.c_str());
  }
  out += '\n';
  for (int c = 0; c < ncols; ++c) {
    out += std::string(widths[c], '-') + ' ';
  }
  out += '\n';
  for (const auto& line : cells) {
    for (int c = 0; c < ncols; ++c) {
      out += StringPrintf("%-*s ", static_cast<int>(widths[c]),
                          line[c].c_str());
    }
    out += '\n';
  }
  if (rows.size() > limit) {
    out += StringPrintf("... (%zu rows total)\n", rows.size());
  }
  return out;
}

Result<QueryResult> SqlEngine::Execute(std::string_view sql) {
  return Execute(sql, StatementOptions{});
}

Result<QueryResult> SqlEngine::Execute(std::string_view sql,
                                       const StatementOptions& opts) {
  HTG_ASSIGN_OR_RETURN(std::vector<Statement> statements, ParseSql(sql));
  return ExecuteParsed(statements, opts);
}

Result<QueryResult> SqlEngine::ExecuteParsed(
    const std::vector<Statement>& statements, const StatementOptions& opts) {
  if (statements.empty()) {
    return Status::ParseError("no statement to execute");
  }
  // Dedupe before touching any table: a session retrying a statement whose
  // first run committed (the transient fault hit after the commit point)
  // must observe the recorded result, not a second execution.
  if (!opts.token.empty()) {
    QueryResult recorded;
    if (LookupToken(opts.token, &recorded)) {
      HTG_METRIC_COUNTER("sql.token.dedupe_hit")->Add();
      return recorded;
    }
  }
  QueryResult last;
  for (const Statement& stmt : statements) {
    // Statement-level degradation: a failed statement has already rolled
    // back its partial writes (see ExecuteInsert), so a transient I/O fault
    // can be retried whole-statement, and a hard failure aborts the batch
    // while leaving the session fully usable. When the caller owns retries
    // (the session layer, with its dedupe token) the internal loop is off.
    Result<QueryResult> r = ExecuteStatement(stmt, opts);
    // Inside an explicit transaction there is no silent re-execution:
    // the statement may have observed (and built on) the transaction's
    // earlier writes, so the only sound recovery is aborting the whole
    // transaction — which the session layer does on any statement error.
    if (!opts.caller_owns_retries && opts.txn == nullptr) {
      for (int attempt = 1; !r.ok() && r.status().IsTransient() &&
                            attempt < kStatementRetries;
           ++attempt) {
        r = ExecuteStatement(stmt, opts);
      }
    }
    HTG_ASSIGN_OR_RETURN(last, std::move(r));
  }
  if (!opts.token.empty()) RecordToken(opts.token, last);
  return last;
}

bool SqlEngine::LookupToken(const std::string& token, QueryResult* result) {
  MutexLock lock(&ledger_mu_);
  const auto it = committed_.find(token);
  if (it == committed_.end()) return false;
  *result = it->second;
  return true;
}

void SqlEngine::RecordToken(const std::string& token,
                            const QueryResult& result) {
  MutexLock lock(&ledger_mu_);
  const auto [it, inserted] = committed_.emplace(token, result);
  (void)it;
  if (!inserted) return;
  committed_order_.push_back(token);
  while (committed_order_.size() > kTokenLedgerCapacity) {
    committed_.erase(committed_order_.front());
    committed_order_.pop_front();
  }
}

exec::ExecContext SqlEngine::MakeContext(const StatementOptions& opts) {
  exec::ExecContext ctx = exec::ExecContext::For(db_);
  if (opts.query_mem_bytes > 0) {
    // Session-scoped budget: tighter than (and independent of) the
    // database-wide default, same spill policy.
    ctx.mem = std::make_shared<MemoryContext>(
        opts.query_mem_bytes, db_->options().ResolvedSpillEnabled());
  }
  return ctx;
}

Result<exec::OperatorPtr> SqlEngine::Plan(std::string_view sql) {
  HTG_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  if (stmt.kind != Statement::Kind::kSelect) {
    return Status::InvalidArgument("Plan() expects a SELECT");
  }
  Binder binder(db_);
  return binder.BindSelect(*stmt.select);
}

Result<std::string> SqlEngine::Explain(std::string_view sql) {
  HTG_ASSIGN_OR_RETURN(exec::OperatorPtr plan, Plan(sql));
  return exec::ExplainPlan(*plan);
}

Result<QueryResult> SqlEngine::ExecuteStatement(const Statement& stmt,
                                                const StatementOptions& opts) {
  // DDL and TRUNCATE are not versioned: they rewrite storage in place,
  // which no snapshot could un-see on abort. Keep them out of explicit
  // transactions (autocommit DDL serializes via the catalog lock).
  if (opts.txn != nullptr && (stmt.kind == Statement::Kind::kCreateTable ||
                              stmt.kind == Statement::Kind::kDropTable ||
                              stmt.kind == Statement::Kind::kTruncate)) {
    return Status::InvalidArgument(
        "DDL and TRUNCATE are not allowed inside a transaction");
  }
  switch (stmt.kind) {
    case Statement::Kind::kSelect:
      return ExecuteSelect(*stmt.select, opts);
    case Statement::Kind::kExplain: {
      Binder binder(db_);
      HTG_ASSIGN_OR_RETURN(exec::OperatorPtr plan,
                           binder.BindSelect(*stmt.select));
      QueryResult result;
      if (!stmt.explain_analyze) {
        result.message = exec::ExplainPlan(*plan);
        return result;
      }
      // EXPLAIN ANALYZE: run the plan to completion with per-operator
      // stats collection on, then render the annotated tree. Result rows
      // are drained and discarded — the plan is the output.
      exec::ExecContext ctx = MakeContext(opts);
      ctx.collect_stats = true;
      const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
      Stopwatch total;
      HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::RowIterator> iter,
                           plan->Open(&ctx));
      std::vector<Row> rows;
      HTG_RETURN_IF_ERROR(exec::DrainIterator(iter.get(), &rows));
      iter.reset();  // fold iterator teardown into the close timings
      result.message =
          exec::ExplainAnalyzePlan(*plan) +
          StringPrintf("total: %llu rows in %.3f ms\n",
                       static_cast<unsigned long long>(rows.size()),
                       total.ElapsedMillis());
      // Cache behaviour of this one statement: the pool counters' delta
      // across the run. Omitted when the plan never touched the pool.
      const obs::MetricsSnapshot delta =
          obs::MetricsRegistry::Global().Snapshot().Delta(before);
      const auto counter = [&delta](const char* name) -> uint64_t {
        const auto it = delta.counters.find(name);
        return it == delta.counters.end() ? 0 : it->second;
      };
      const uint64_t hits = counter("bufferpool.hit");
      const uint64_t misses = counter("bufferpool.miss");
      if (hits + misses > 0) {
        result.message += StringPrintf(
            "buffer pool: %llu hits, %llu misses (%.1f%% hit), "
            "%llu evictions, %llu write-backs\n",
            static_cast<unsigned long long>(hits),
            static_cast<unsigned long long>(misses),
            100.0 * static_cast<double>(hits) /
                static_cast<double>(hits + misses),
            static_cast<unsigned long long>(counter("bufferpool.evict")),
            static_cast<unsigned long long>(counter("bufferpool.writeback")));
      }
      // Per-statement memory governance summary: the query context's peak
      // charge, its budget, and any graceful-degradation spilling.
      const size_t peak = ctx.mem->peak();
      HTG_METRIC_GAUGE("mem.query.peak")->Set(static_cast<int64_t>(peak));
      std::string budget_text =
          ctx.mem->unlimited()
              ? std::string("unlimited")
              : StringPrintf("%.1f MiB",
                             static_cast<double>(ctx.mem->budget()) /
                                 (1024.0 * 1024.0));
      result.message += StringPrintf(
          "memory: peak=%.1f KiB (budget %s), spill runs=%llu, "
          "spill bytes=%llu\n",
          static_cast<double>(peak) / 1024.0, budget_text.c_str(),
          static_cast<unsigned long long>(counter("exec.spill.runs")),
          static_cast<unsigned long long>(counter("exec.spill.bytes")));
      return result;
    }
    case Statement::Kind::kCreateTable:
      return ExecuteCreateTable(*stmt.create_table);
    case Statement::Kind::kDropTable: {
      HTG_RETURN_IF_ERROR(db_->DropTable(stmt.table_name));
      QueryResult result;
      result.message = "DROP TABLE " + stmt.table_name;
      return result;
    }
    case Statement::Kind::kTruncate: {
      HTG_ASSIGN_OR_RETURN(catalog::TableDef * table,
                           db_->GetTable(stmt.table_name));
      table->table->Truncate();
      // Version history restarts from zero rows; the server's exclusive
      // schema lock guarantees no snapshot scan is mid-flight here.
      if (table->mvcc != nullptr) table->mvcc->ResetForTruncate();
      QueryResult result;
      result.message = "TRUNCATE TABLE " + stmt.table_name;
      return result;
    }
    case Statement::Kind::kInsert:
      return ExecuteInsert(*stmt.insert, opts);
  }
  return Status::Internal("unhandled statement kind");
}

Result<QueryResult> SqlEngine::ExecuteSelect(const SelectStmt& stmt,
                                             const StatementOptions& opts) {
  Binder binder(db_);
  HTG_ASSIGN_OR_RETURN(exec::OperatorPtr plan, binder.BindSelect(stmt));
  exec::ExecContext ctx = MakeContext(opts);
  // MVCC read view: a transaction reads through its own snapshot; an
  // autocommit SELECT begins a short-lived read transaction, which pins
  // the GC horizon so the sweep cannot collapse versions out from under
  // the running scan.
  storage::Snapshot pinned_snapshot;
  storage::TxnId pinned_id = storage::kFrozenTxn;
  if (opts.txn != nullptr) {
    ctx.snapshot = &opts.txn->snapshot;
    ctx.txn_id = opts.txn->id;
  } else if (db_->mvcc_enabled()) {
    storage::TxnManager::BeginResult pin = db_->txns()->Begin();
    pinned_snapshot = std::move(pin.snapshot);
    pinned_id = pin.id;
    ctx.snapshot = &pinned_snapshot;
    ctx.txn_id = pinned_id;
  }
  const auto finish = [&](Result<QueryResult> r) -> Result<QueryResult> {
    if (pinned_id != storage::kFrozenTxn) db_->txns()->Commit(pinned_id);
    return r;
  };
  Result<std::unique_ptr<storage::RowIterator>> iter = plan->Open(&ctx);
  if (!iter.ok()) return finish(iter.status());
  QueryResult result;
  result.schema = plan->output_schema();
  const Status drained = exec::DrainIterator(iter->get(), &result.rows);
  if (!drained.ok()) return finish(drained);
  iter->reset();  // operators release their charges before we read the peak
  HTG_METRIC_GAUGE("mem.query.peak")
      ->Set(static_cast<int64_t>(ctx.mem->peak()));
  result.rows_affected = result.rows.size();
  return finish(std::move(result));
}

Result<QueryResult> SqlEngine::ExecuteCreateTable(const CreateTableStmt& stmt) {
  catalog::TableDef def;
  def.name = stmt.name;
  std::vector<std::string> pk = stmt.primary_key;
  for (const ColumnDefAst& ast : stmt.columns) {
    Column col;
    col.name = ast.name;
    HTG_ASSIGN_OR_RETURN(col.type, DataTypeFromName(ast.type_name));
    // Only CHAR/NCHAR are fixed-length (blank padded).
    if (ast.length > 0 && (EqualsIgnoreCase(ast.type_name, "CHAR") ||
                           EqualsIgnoreCase(ast.type_name, "NCHAR"))) {
      col.fixed_length = ast.length;
    }
    // N-types store UTF-16 (2 bytes/char in SQL Server 2008).
    if (EqualsIgnoreCase(ast.type_name, "NCHAR") ||
        EqualsIgnoreCase(ast.type_name, "NVARCHAR") ||
        EqualsIgnoreCase(ast.type_name, "NTEXT")) {
      col.utf16 = true;
    }
    col.nullable = !ast.not_null && !ast.primary_key;
    col.filestream = ast.filestream;
    col.rowguid = ast.rowguid;
    if (col.filestream && col.type != DataType::kBlob) {
      return Status::InvalidArgument(
          "FILESTREAM requires VARBINARY(MAX): " + col.name);
    }
    if (ast.primary_key) pk.push_back(ast.name);
    def.schema.AddColumn(std::move(col));
  }
  // Clustering: explicit CLUSTER BY wins, else the primary key (SQL
  // Server's PRIMARY KEY CLUSTERED default).
  const std::vector<std::string>& cluster =
      stmt.cluster_by.empty() ? pk : stmt.cluster_by;
  for (const std::string& name : cluster) {
    HTG_ASSIGN_OR_RETURN(int idx, def.schema.ResolveColumn(name));
    def.clustered_key.push_back(idx);
  }
  if (!stmt.compression.empty()) {
    if (EqualsIgnoreCase(stmt.compression, "NONE")) {
      def.compression = storage::Compression::kNone;
    } else if (EqualsIgnoreCase(stmt.compression, "ROW")) {
      def.compression = storage::Compression::kRow;
    } else if (EqualsIgnoreCase(stmt.compression, "PAGE")) {
      def.compression = storage::Compression::kPage;
    } else {
      return Status::InvalidArgument("bad DATA_COMPRESSION: " +
                                     stmt.compression);
    }
  }
  HTG_RETURN_IF_ERROR(db_->CreateTable(std::move(def)));
  QueryResult result;
  result.message = "CREATE TABLE " + stmt.name;
  return result;
}

namespace {

// Accumulates (table, rows inserted) into a transaction's written set.
void RecordWrite(TxnContext* txn, catalog::TableDef* table, uint64_t rows) {
  for (TxnContext::WrittenTable& w : txn->written) {
    if (w.table == table) {
      w.rows_inserted += rows;
      return;
    }
  }
  txn->written.push_back(TxnContext::WrittenTable{table, rows});
}

}  // namespace

Result<std::unique_ptr<TxnContext>> SqlEngine::BeginTxn() {
  if (!db_->mvcc_enabled()) {
    return Status::InvalidArgument(
        "transactions require MVCC (HTG_MVCC=0 disables them)");
  }
  auto txn = std::make_unique<TxnContext>();
  storage::TxnManager::BeginResult begun = db_->txns()->Begin();
  txn->id = begun.id;
  txn->snapshot = std::move(begun.snapshot);
  txn->is_explicit = true;
  return txn;
}

Status SqlEngine::CommitTxn(TxnContext* txn) {
  // Watermarks first; the txn id flips visible for new snapshots only at
  // TxnManager::Commit, so the whole transaction appears atomically.
  for (const TxnContext::WrittenTable& w : txn->written) {
    w.table->mvcc->CommitWrite(txn->id, w.table->table->num_rows());
  }
  txn->compensations.Commit();
  db_->txns()->Commit(txn->id);
  HTG_IGNORE_STATUS(db_->filestream()->LogTxnOutcome(txn->id, true));
  db_->MaybeSweepVersions();
  return Status::OK();
}

Status SqlEngine::AbortTxn(TxnContext* txn) {
  Status status;
  for (const TxnContext::WrittenTable& w : txn->written) {
    bool undone = true;
    if (auto* heap =
            dynamic_cast<storage::HeapTable*>(w.table->table.get())) {
      // Truncate while the pending marker still hides the tail, so no
      // reader window exists where the doomed rows look committed.
      const uint64_t target = w.table->mvcc->AbortTarget(txn->id);
      const Status undo = heap->TruncateToRows(target);
      if (!undo.ok()) {
        undone = false;
        if (status.ok()) status = undo;
      }
    } else if (auto* clustered = dynamic_cast<storage::ClusteredTable*>(
                   w.table->table.get())) {
      clustered->MarkAborted(w.rows_inserted);
    }
    // Undo failure leaves the pending marker set: the table is
    // quarantined (its surviving uncommitted tail stays hidden from every
    // snapshot) rather than re-exposed as committed rows.
    if (undone) w.table->mvcc->AbortWrite(txn->id);
  }
  txn->compensations.Rollback();
  db_->txns()->Abort(txn->id);
  HTG_IGNORE_STATUS(db_->filestream()->LogTxnOutcome(txn->id, false));
  db_->MaybeSweepVersions();
  return status;
}

Result<QueryResult> SqlEngine::ExecuteInsert(const InsertStmt& stmt,
                                             const StatementOptions& opts) {
  HTG_ASSIGN_OR_RETURN(catalog::TableDef * table, db_->GetTable(stmt.table));
  const Schema& schema = table->schema;

  // Map the supplied column order to table positions.
  std::vector<int> positions;
  if (stmt.columns.empty()) {
    for (int i = 0; i < schema.num_columns(); ++i) positions.push_back(i);
  } else {
    for (const std::string& name : stmt.columns) {
      HTG_ASSIGN_OR_RETURN(int idx, schema.ResolveColumn(name));
      positions.push_back(idx);
    }
  }

  // Transaction setup. Three modes:
  //  * explicit   — opts.txn: first-writer-wins check, writes recorded for
  //                 the session's later COMMIT/ABORT.
  //  * implicit   — MVCC on, no opts.txn: a per-statement transaction so
  //                 concurrent snapshot readers never see a partial
  //                 statement; committed (or aborted) before returning.
  //  * untracked  — MVCC off, or a hand-built TableDef without MVCC
  //                 state: the legacy truncate-to-prior-rows undo.
  TxnContext* txn = opts.txn;
  std::unique_ptr<TxnContext> implicit;
  bool tracked = false;
  auto* heap = dynamic_cast<storage::HeapTable*>(table->table.get());
  if (table->mvcc != nullptr && db_->mvcc_enabled()) {
    if (txn == nullptr) {
      implicit = std::make_unique<TxnContext>();
      storage::TxnManager::BeginResult begun = db_->txns()->Begin();
      implicit->id = begun.id;
      implicit->snapshot = std::move(begun.snapshot);
      txn = implicit.get();
    } else {
      // First-writer-wins: another transaction committed this table after
      // our snapshot was taken; appending behind it would interleave with
      // writes this transaction cannot see. Typed kAborted so clients can
      // retry the whole transaction.
      const storage::TxnId last = table->mvcc->LastCommittedWriter();
      if (last != storage::kFrozenTxn && last != txn->id &&
          !txn->snapshot.Sees(last)) {
        return Status::Aborted(
            "write-write conflict: table " + table->name +
            " was modified by a transaction concurrent with this one");
      }
    }
    const Status begun = table->mvcc->BeginWrite(txn->id,
                                                 table->table->num_rows());
    if (begun.ok()) {
      tracked = true;
      if (txn->is_explicit) {
        // Record the table the moment it has a pending marker, not only on
        // statement success: if this statement fails mid-way, the session's
        // ABORT must still find the table to truncate its tail and clear
        // the marker — an unrecorded pending writer would hide the table's
        // tail from every snapshot forever.
        RecordWrite(txn, table, 0);
      }
    } else if (txn->is_explicit) {
      return begun;  // impossible under the server's write locks
    } else {
      // Library-mode race: another untracked writer is mid-statement on
      // this table. Release the unused txn and fall back to the legacy
      // (unversioned) insert path.
      db_->txns()->Commit(implicit->id);
      implicit.reset();
      txn = nullptr;
    }
  }
  const storage::TxnId stamp =
      tracked ? txn->id : storage::kFrozenTxn;

  // Blob compensations: statement-local for autocommit, transaction-owned
  // for explicit transactions (they must survive until COMMIT/ABORT).
  storage::Transaction local_undo;
  storage::Transaction* blob_undo =
      (txn != nullptr && txn->is_explicit) ? &txn->compensations
                                           : &local_undo;
  if (!tracked && heap != nullptr) {
    const uint64_t prior_rows = heap->num_rows();
    local_undo.OnRollback([heap, prior_rows] {
      // Rollback runs on the void undo path; an undo that loses rows is a
      // broken invariant, not a recoverable error.
      const Status undo = heap->TruncateToRows(prior_rows);
      assert(undo.ok());
      (void)undo;
    });
  }

  uint64_t inserted = 0;
  auto insert_source_row = [&](Row source) -> Status {
    if (source.size() != positions.size()) {
      return Status::InvalidArgument(StringPrintf(
          "INSERT supplies %zu values for %zu columns", source.size(),
          positions.size()));
    }
    Row row(schema.num_columns(), Value::Null());
    for (size_t i = 0; i < positions.size(); ++i) {
      row[positions[i]] = std::move(source[i]);
    }
    HTG_RETURN_IF_ERROR(db_->InsertRow(table, std::move(row), blob_undo,
                                       stamp));
    ++inserted;
    return Status::OK();
  };

  // Statement failure. Explicit transactions leave rollback to the
  // session's ABORT (the appended tail is already invisible to every
  // snapshot); implicit ones abort right here; untracked ones run the
  // legacy compensation.
  auto fail = [&](Status s) -> Status {
    if (tracked && txn->is_explicit) {
      // The rows inserted before the failure are physically present (heap
      // tail / stamped clustered entries); fold them into the written set
      // so ABORT's truncate target and clustered discount match reality.
      RecordWrite(txn, table, inserted);
    } else if (tracked) {
      bool undone = true;
      if (heap != nullptr) {
        const uint64_t target = table->mvcc->AbortTarget(txn->id);
        const Status undo = heap->TruncateToRows(target);
        undone = undo.ok();
      } else if (auto* clustered = dynamic_cast<storage::ClusteredTable*>(
                     table->table.get())) {
        clustered->MarkAborted(inserted);
      }
      if (undone) {
        table->mvcc->AbortWrite(txn->id);
      }
      // Undo failure (I/O error truncating the tail): keep the pending
      // marker set. It quarantines the table — the surviving uncommitted
      // tail stays invisible to every snapshot — instead of clearing the
      // marker and letting VisibleRows treat the tail as committed
      // library-mode rows.
      local_undo.Rollback();
      db_->txns()->Abort(txn->id);
      HTG_IGNORE_STATUS(db_->filestream()->LogTxnOutcome(txn->id, false));
      db_->MaybeSweepVersions();
    } else {
      local_undo.Rollback();
    }
    return s;
  };

  if (!stmt.values_rows.empty()) {
    Binder binder(db_);
    udf::EvalContext eval = db_->MakeEvalContext();
    for (const auto& exprs : stmt.values_rows) {
      Row source;
      for (const AstExprPtr& ast : exprs) {
        // VALUES expressions are scalar (no column references).
        Result<exec::ExprPtr> bound = binder.BindValueExpr(*ast);
        if (!bound.ok()) return fail(bound.status());
        Result<Value> v = (*bound)->Eval(&eval, Row{});
        if (!v.ok()) return fail(v.status());
        source.push_back(std::move(*v));
      }
      const Status s = insert_source_row(std::move(source));
      if (!s.ok()) return fail(s);
    }
  } else if (stmt.select != nullptr) {
    Binder binder(db_);
    Result<exec::OperatorPtr> plan = binder.BindSelect(*stmt.select);
    if (!plan.ok()) return fail(plan.status());
    exec::ExecContext ctx = MakeContext(opts);
    if (txn != nullptr) {
      // INSERT..SELECT reads through the writing transaction's snapshot
      // (and sees its own earlier writes via self-visibility).
      ctx.snapshot = &txn->snapshot;
      ctx.txn_id = txn->id;
    }
    Result<std::unique_ptr<storage::RowIterator>> iter = (*plan)->Open(&ctx);
    if (!iter.ok()) return fail(iter.status());
    exec::RowReader source_rows(iter->get(), ctx.batch_rows);
    Row row;
    while (source_rows.Next(&row)) {
      const Status s = insert_source_row(std::move(row));
      if (!s.ok()) return fail(s);
      row.clear();
    }
    const Status s = source_rows.status();
    if (!s.ok()) return fail(s);
  }

  if (tracked) {
    if (txn->is_explicit) {
      RecordWrite(txn, table, inserted);
    } else {
      table->mvcc->CommitWrite(txn->id, table->table->num_rows());
      local_undo.Commit();
      db_->txns()->Commit(txn->id);
      HTG_IGNORE_STATUS(db_->filestream()->LogTxnOutcome(txn->id, true));
      db_->MaybeSweepVersions();
    }
  } else {
    local_undo.Commit();
  }
  QueryResult result;
  result.rows_affected = inserted;
  result.message = StringPrintf("(%llu rows affected)",
                                static_cast<unsigned long long>(inserted));
  return result;
}

}  // namespace htg::sql
