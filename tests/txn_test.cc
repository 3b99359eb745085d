// Transaction and MVCC tests: the TxnManager / MvccTableState storage
// primitives, engine-level BEGIN/COMMIT/ABORT semantics (snapshot reads,
// first-writer-wins conflicts, rollback of heap and clustered tables,
// version GC), and full wire conversations — readers not blocking behind
// an open bulk-load transaction, auto-abort on statement failure with
// the session surviving, implicit abort on client disconnect, and the
// typed rejection of BEGIN when MVCC is disabled.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "catalog/database.h"
#include "common/metrics.h"
#include "exec/batch.h"
#include "server/client.h"
#include "server/server.h"
#include "server/session.h"
#include "sql/engine.h"
#include "sql/parser.h"
#include "storage/clustered_table.h"
#include "storage/mvcc.h"

namespace htg {
namespace {

using server::Client;
using server::ClientResult;
using server::Server;
using server::ServerOptions;
using sql::SqlEngine;
using sql::TxnContext;
using storage::kFrozenTxn;
using storage::MvccTableState;
using storage::Snapshot;
using storage::TxnManager;

// ------------------------------------------------------------ TxnManager

TEST(TxnManagerTest, SnapshotExcludesActiveAndSelf) {
  TxnManager txns;
  const auto a = txns.Begin();
  const auto b = txns.Begin();
  // b's snapshot was taken while a was active: a is invisible, and so is
  // b itself (self-visibility is layered on top by the caller).
  EXPECT_FALSE(b.snapshot.Sees(a.id));
  EXPECT_FALSE(b.snapshot.Sees(b.id));
  EXPECT_TRUE(b.snapshot.Sees(kFrozenTxn));
  txns.Commit(a.id);
  // An existing snapshot never changes: a stays invisible to b.
  EXPECT_FALSE(b.snapshot.Sees(a.id));
  // But a fresh snapshot sees the committed a and not the active b.
  const Snapshot fresh = txns.TakeSnapshot();
  EXPECT_TRUE(fresh.Sees(a.id));
  EXPECT_FALSE(fresh.Sees(b.id));
  txns.Commit(b.id);
}

TEST(TxnManagerTest, AbortedStaysInvisibleToNewSnapshots) {
  TxnManager txns;
  const auto a = txns.Begin();
  txns.Abort(a.id);
  EXPECT_TRUE(txns.IsAborted(a.id));
  const Snapshot fresh = txns.TakeSnapshot();
  EXPECT_FALSE(fresh.Sees(a.id));
}

TEST(TxnManagerTest, HorizonHeldBackByOldestSnapshot) {
  TxnManager txns;
  const auto a = txns.Begin();
  const auto b = txns.Begin();
  txns.Commit(b.id);
  // a is still active, so nothing at or above a.id is settled.
  EXPECT_LE(txns.Horizon(), a.id);
  txns.Commit(a.id);
  // Everything allocated so far is now below the horizon.
  EXPECT_GT(txns.Horizon(), b.id);
}

TEST(TxnManagerTest, TrimAbortedBelowDropsSweptIds) {
  TxnManager txns;
  const auto a = txns.Begin();
  txns.Abort(a.id);
  ASSERT_EQ(txns.AbortedSet().size(), 1u);
  txns.TrimAbortedBelow(txns.Horizon());
  EXPECT_TRUE(txns.AbortedSet().empty());
  EXPECT_FALSE(txns.IsAborted(a.id));  // settled history, not "aborted"
}

// -------------------------------------------------------- MvccTableState

TEST(MvccTableStateTest, CommittedWatermarkVisibleToLaterSnapshots) {
  TxnManager txns;
  MvccTableState state;
  const auto writer = txns.Begin();
  const Snapshot before = txns.TakeSnapshot();
  ASSERT_TRUE(state.BeginWrite(writer.id, 0).ok());
  // Mid-write: a reader sees none of the pending rows; the writer sees
  // everything it appended.
  EXPECT_EQ(state.VisibleRows(before, kFrozenTxn, 100), 0u);
  EXPECT_EQ(state.VisibleRows(writer.snapshot, writer.id, 100), 100u);
  state.CommitWrite(writer.id, 100);
  txns.Commit(writer.id);
  // The old snapshot still predates the writer; a fresh one sees it.
  EXPECT_EQ(state.VisibleRows(before, kFrozenTxn, 100), 0u);
  EXPECT_EQ(state.VisibleRows(txns.TakeSnapshot(), kFrozenTxn, 100), 100u);
  EXPECT_EQ(state.LastCommittedWriter(), writer.id);
}

TEST(MvccTableStateTest, AbortTargetWhilePendingThenCollapse) {
  TxnManager txns;
  MvccTableState state;
  const auto w1 = txns.Begin();
  ASSERT_TRUE(state.BeginWrite(w1.id, 10).ok());
  // AbortTarget while pending reports the pre-write row count; the tail
  // stays hidden until AbortWrite clears the pending marker.
  EXPECT_EQ(state.AbortTarget(w1.id), 10u);
  EXPECT_EQ(state.VisibleRows(txns.TakeSnapshot(), kFrozenTxn, 25), 10u);
  EXPECT_EQ(state.AbortWrite(w1.id), 10u);
  txns.Abort(w1.id);

  const auto w2 = txns.Begin();
  ASSERT_TRUE(state.BeginWrite(w2.id, 10).ok());
  state.CommitWrite(w2.id, 40);
  txns.Commit(w2.id);
  // GC: collapsing below the horizon folds the range into frozen rows.
  EXPECT_EQ(state.CollapseBelow(txns.Horizon()), 1u);
  EXPECT_EQ(state.VisibleRows(txns.TakeSnapshot(), kFrozenTxn, 40), 40u);
}

TEST(MvccTableStateTest, UntrackedRowsFoldOnlyWithFullPrefix) {
  TxnManager txns;
  MvccTableState state;
  const auto writer = txns.Begin();
  const Snapshot before = txns.TakeSnapshot();
  ASSERT_TRUE(state.BeginWrite(writer.id, 0).ok());
  state.CommitWrite(writer.id, 50);
  txns.Commit(writer.id);
  // 10 untracked (library-mode) rows appended after the committed 50:
  // visible to snapshots that see the writer, not to older ones (prefix
  // semantics: you cannot see row 51 without seeing rows 0..49).
  EXPECT_EQ(state.VisibleRows(txns.TakeSnapshot(), kFrozenTxn, 60), 60u);
  EXPECT_EQ(state.VisibleRows(before, kFrozenTxn, 60), 0u);
}

// ----------------------------------------------------- clustered GC sweep

TEST(ClusteredSweepTest, SweepRemovesAbortedStampsWithoutDeadRowAccounting) {
  Schema schema;
  schema.AddColumn({.name = "k", .type = DataType::kInt64});
  schema.AddColumn({.name = "v", .type = DataType::kString});
  storage::ClusteredTable table(schema, {0}, storage::Compression::kNone);
  ASSERT_TRUE(table.Insert(Row{Value::Int64(1), Value::String("keep")}).ok());
  // An entry stamped by an aborted txn whose MarkAborted accounting was
  // lost: dead_rows_ is zero, yet the sweep must still remove it — the
  // caller retires the id from the allocator's aborted set right after
  // the sweep, and a leftover entry would resurrect as committed data
  // the moment new snapshots stop recognizing the id as aborted.
  ASSERT_TRUE(table
                  .InsertStamped(Row{Value::Int64(2), Value::String("dead")},
                                 /*txn=*/7)
                  .ok());
  EXPECT_EQ(table.SweepAborted({7}), 1u);
  EXPECT_EQ(table.num_rows(), 1u);
  auto iter = table.NewScan();
  exec::RowReader reader(iter.get());
  Row row;
  ASSERT_TRUE(reader.Next(&row));
  EXPECT_EQ(row[0].AsInt64(), 1);
  EXPECT_FALSE(reader.Next(&row));
}

// ----------------------------------------------------------- GC cadence

TEST(GcCadenceTest, BatchedCompletionsCountTowardSweepThreshold) {
  DatabaseOptions options;
  options.filestream_root = "/tmp/htg_txn_gc_cadence";
  options.mvcc_gc_every = 4;
  auto db = Database::Open("gccadence", options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  // Three completions the opportunistic trigger has not observed yet:
  // they sit in the TxnManager's since-sweep counter.
  for (int i = 0; i < 3; ++i) {
    const auto t = (*db)->txns()->Begin();
    (*db)->txns()->Commit(t.id);
  }
  const uint64_t before = HTG_METRIC_COUNTER("mvcc.gc.sweeps")->Value();
  // The fourth completion reaches the threshold exactly — the trigger
  // must count the whole batch it just folded in, not "pre-add + 1".
  const auto t = (*db)->txns()->Begin();
  (*db)->txns()->Commit(t.id);
  (*db)->MaybeSweepVersions();
  EXPECT_EQ(HTG_METRIC_COUNTER("mvcc.gc.sweeps")->Value(), before + 1);
}

// ------------------------------------------------------------ engine txn

class TxnEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static int counter = 0;
    DatabaseOptions options;
    options.filestream_root = "/tmp/htg_txn_test_" + std::to_string(counter++);
    auto db = Database::Open("txntest", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    ASSERT_TRUE(db_->filestream()->Clear().ok());
    engine_ = std::make_unique<SqlEngine>(db_.get());
  }

  sql::QueryResult Exec(const std::string& sqltext, TxnContext* txn = nullptr) {
    sql::StatementOptions opts;
    opts.txn = txn;
    auto r = engine_->Execute(sqltext, opts);
    EXPECT_TRUE(r.ok()) << sqltext << "\n--> " << r.status().ToString();
    return r.ok() ? std::move(*r) : sql::QueryResult{};
  }

  int64_t Count(const std::string& table, TxnContext* txn = nullptr) {
    const sql::QueryResult r = Exec("SELECT COUNT(*) FROM " + table, txn);
    return r.rows.empty() ? -1 : r.rows[0][0].AsInt64();
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<SqlEngine> engine_;
};

TEST_F(TxnEngineTest, SnapshotReaderSeesNoneOfOpenTxnsRows) {
  Exec("CREATE TABLE t (id INT, v INT)");
  Exec("INSERT INTO t VALUES (1, 10), (2, 20)");
  auto txn = engine_->BeginTxn();
  ASSERT_TRUE(txn.ok()) << txn.status().ToString();
  Exec("INSERT INTO t VALUES (3, 30)", txn->get());
  Exec("INSERT INTO t VALUES (4, 40)", txn->get());
  // Autocommit reader: pre-transaction state. The writer: all its rows.
  EXPECT_EQ(Count("t"), 2);
  EXPECT_EQ(Count("t", txn->get()), 4);
  ASSERT_TRUE(engine_->CommitTxn(txn->get()).ok());
  EXPECT_EQ(Count("t"), 4);
}

TEST_F(TxnEngineTest, SnapshotTakenBeforeCommitStaysConsistent) {
  Exec("CREATE TABLE t (id INT, v INT)");
  Exec("INSERT INTO t VALUES (1, 10)");
  auto reader = engine_->BeginTxn();
  ASSERT_TRUE(reader.ok());
  auto writer = engine_->BeginTxn();
  ASSERT_TRUE(writer.ok());
  Exec("INSERT INTO t VALUES (2, 20)", writer->get());
  ASSERT_TRUE(engine_->CommitTxn(writer->get()).ok());
  // The reader's snapshot predates the writer's commit: repeatable reads.
  EXPECT_EQ(Count("t", reader->get()), 1);
  EXPECT_EQ(Count("t"), 2);
  ASSERT_TRUE(engine_->CommitTxn(reader->get()).ok());
}

TEST_F(TxnEngineTest, AbortRollsBackHeapAndClusteredCounts) {
  Exec("CREATE TABLE h (id INT, v INT)");
  Exec("CREATE TABLE c (id INT PRIMARY KEY, v INT)");
  Exec("INSERT INTO h VALUES (1, 10)");
  Exec("INSERT INTO c VALUES (1, 10)");
  auto txn = engine_->BeginTxn();
  ASSERT_TRUE(txn.ok());
  Exec("INSERT INTO h VALUES (2, 20), (3, 30)", txn->get());
  Exec("INSERT INTO c VALUES (2, 20), (3, 30)", txn->get());
  EXPECT_EQ(Count("h", txn->get()), 3);
  EXPECT_EQ(Count("c", txn->get()), 3);
  ASSERT_TRUE(engine_->AbortTxn(txn->get()).ok());
  EXPECT_EQ(Count("h"), 1);
  EXPECT_EQ(Count("c"), 1);
  // The tables stay writable after the rollback.
  Exec("INSERT INTO h VALUES (9, 90)");
  Exec("INSERT INTO c VALUES (9, 90)");
  EXPECT_EQ(Count("h"), 2);
  EXPECT_EQ(Count("c"), 2);
}

TEST_F(TxnEngineTest, FirstWriterWinsConflictIsTypedAborted) {
  Exec("CREATE TABLE t (id INT, v INT)");
  auto a = engine_->BeginTxn();
  auto b = engine_->BeginTxn();
  ASSERT_TRUE(a.ok() && b.ok());
  Exec("INSERT INTO t VALUES (1, 10)", a->get());
  ASSERT_TRUE(engine_->CommitTxn(a->get()).ok());
  // b's snapshot predates a's commit, and a wrote the same table: the
  // first writer won, b must abort rather than write blind.
  sql::StatementOptions opts;
  opts.txn = b->get();
  auto r = engine_->Execute("INSERT INTO t VALUES (2, 20)", opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAborted);
  EXPECT_NE(r.status().message().find("write-write conflict"),
            std::string::npos)
      << r.status().ToString();
  ASSERT_TRUE(engine_->AbortTxn(b->get()).ok());
  EXPECT_EQ(Count("t"), 1);
}

TEST_F(TxnEngineTest, MidStatementFailureInTxnRollsBackOnAbort) {
  Exec("CREATE TABLE h (id INT, v INT)");
  Exec("CREATE TABLE c (id INT PRIMARY KEY, v INT)");
  Exec("INSERT INTO h VALUES (1, 10)");
  Exec("INSERT INTO c VALUES (1, 10)");
  auto txn = engine_->BeginTxn();
  ASSERT_TRUE(txn.ok());
  sql::StatementOptions opts;
  opts.txn = txn->get();
  // The second VALUES row has the wrong arity, so each statement fails
  // after its first row was already inserted — and it is the txn's first
  // (and only) write to that table. ABORT must still find the table,
  // undo the partial row, and clear the pending-writer marker.
  auto h = engine_->Execute("INSERT INTO h VALUES (2, 20), (3)", opts);
  ASSERT_FALSE(h.ok());
  auto c = engine_->Execute("INSERT INTO c VALUES (2, 20), (3)", opts);
  ASSERT_FALSE(c.ok());
  ASSERT_TRUE(engine_->AbortTxn(txn->get()).ok());
  EXPECT_EQ(Count("h"), 1);
  EXPECT_EQ(Count("c"), 1);
  // Both explicit-txn and autocommit writes work again afterwards (a
  // stuck pending marker would fail the former and hide the latter).
  auto txn2 = engine_->BeginTxn();
  ASSERT_TRUE(txn2.ok());
  Exec("INSERT INTO h VALUES (8, 80)", txn2->get());
  Exec("INSERT INTO c VALUES (8, 80)", txn2->get());
  ASSERT_TRUE(engine_->CommitTxn(txn2->get()).ok());
  Exec("INSERT INTO h VALUES (9, 90)");
  Exec("INSERT INTO c VALUES (9, 90)");
  EXPECT_EQ(Count("h"), 3);
  EXPECT_EQ(Count("c"), 3);
  // GC physically removes the aborted clustered entry; counts hold.
  db_->SweepVersions();
  EXPECT_EQ(Count("c"), 3);
  EXPECT_TRUE(db_->txns()->AbortedSet().empty());
}

TEST_F(TxnEngineTest, GcSweepRemovesAbortedClusteredEntries) {
  Exec("CREATE TABLE c (id INT PRIMARY KEY, v INT)");
  Exec("INSERT INTO c VALUES (1, 10)");
  auto txn = engine_->BeginTxn();
  ASSERT_TRUE(txn.ok());
  Exec("INSERT INTO c VALUES (2, 20), (3, 30)", txn->get());
  ASSERT_TRUE(engine_->AbortTxn(txn->get()).ok());
  // The aborted entries are hidden logically; an unconditional sweep
  // removes them physically and retires the aborted id.
  EXPECT_EQ(db_->SweepVersions(), 2u);
  EXPECT_EQ(Count("c"), 1);
  EXPECT_TRUE(db_->txns()->AbortedSet().empty());
  // Idempotent: nothing left to sweep.
  EXPECT_EQ(db_->SweepVersions(), 0u);
}

TEST_F(TxnEngineTest, DdlInsideTxnRejected) {
  auto txn = engine_->BeginTxn();
  ASSERT_TRUE(txn.ok());
  sql::StatementOptions opts;
  opts.txn = txn->get();
  auto r = engine_->Execute("CREATE TABLE t (id INT)", opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(engine_->AbortTxn(txn->get()).ok());
}

TEST_F(TxnEngineTest, BeginTxnFailsWithMvccDisabled) {
  DatabaseOptions options;
  options.enable_mvcc = false;
  options.filestream_root = "/tmp/htg_txn_test_nomvcc";
  auto db = Database::Open("nomvcc", options);
  ASSERT_TRUE(db.ok());
  SqlEngine engine(db->get());
  auto txn = engine.BeginTxn();
  ASSERT_FALSE(txn.ok());
  EXPECT_EQ(txn.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------- lock footprints

TEST(TxnLockFootprintTest, MvccReadersTakeSchemaLocksNotTableLocks) {
  auto stmts = sql::ParseSql("SELECT * FROM t");
  ASSERT_TRUE(stmts.ok());
  const server::LockFootprint fp =
      server::DeriveLockFootprint(*stmts, /*mvcc_snapshots=*/true);
  EXPECT_TRUE(fp.writes.empty());
  // Schema-stability lock + catalog pseudo-lock; no plain "T" read lock,
  // which is exactly why a SELECT cannot block behind a bulk load.
  ASSERT_EQ(fp.reads.size(), 2u);
  EXPECT_EQ(fp.reads[0], std::string("\x02") + "T");
}

TEST(TxnLockFootprintTest, MvccInsertHoldsTableExclusiveAndSchemaShared) {
  auto stmts = sql::ParseSql("INSERT INTO t VALUES (1)");
  ASSERT_TRUE(stmts.ok());
  const server::LockFootprint fp =
      server::DeriveLockFootprint(*stmts, /*mvcc_snapshots=*/true);
  ASSERT_EQ(fp.writes.size(), 1u);
  EXPECT_EQ(fp.writes[0], "T");
  ASSERT_EQ(fp.reads.size(), 2u);
  EXPECT_EQ(fp.reads[0], std::string("\x02") + "T");
}

TEST(TxnLockFootprintTest, MvccTruncateTakesSchemaExclusive) {
  auto stmts = sql::ParseSql("TRUNCATE TABLE t");
  ASSERT_TRUE(stmts.ok());
  const server::LockFootprint fp =
      server::DeriveLockFootprint(*stmts, /*mvcc_snapshots=*/true);
  // Table exclusive + schema exclusive: waits out snapshot scans.
  ASSERT_EQ(fp.writes.size(), 2u);
  EXPECT_EQ(fp.writes[0], "T");
  EXPECT_EQ(fp.writes[1], std::string("\x02") + "T");
}

// ------------------------------------------------------------ wire level

class TxnServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static int counter = 0;
    options_.filestream_root =
        "/tmp/htg_txn_server_test_" + std::to_string(counter++);
  }

  void OpenAndStart(ServerOptions server_options = {}) {
    auto db = Database::Open("txnserver", options_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    ASSERT_TRUE(db_->filestream()->Clear().ok());
    server_ = std::make_unique<Server>(db_.get(), server_options);
    const Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
  }

  std::unique_ptr<Client> Connect() {
    auto client = Client::Connect(server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.ok() ? std::move(*client) : nullptr;
  }

  ClientResult Query(Client* client, const std::string& sqltext) {
    Result<ClientResult> r = client->Query(sqltext);
    EXPECT_TRUE(r.ok()) << sqltext << "\n--> " << r.status().ToString();
    return r.ok() ? std::move(*r) : ClientResult{};
  }

  int64_t Count(Client* client, const std::string& table) {
    const ClientResult r = Query(client, "SELECT COUNT(*) FROM " + table);
    return r.rows.empty() ? -1 : r.rows[0][0].AsInt64();
  }

  DatabaseOptions options_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Server> server_;
};

TEST_F(TxnServerTest, BeginCommitAbortRoundTrip) {
  OpenAndStart();
  std::unique_ptr<Client> c = Connect();
  ASSERT_NE(c, nullptr);
  Query(c.get(), "CREATE TABLE t (id INT, v INT)");

  ASSERT_TRUE(c->Begin().ok());
  Query(c.get(), "INSERT INTO t VALUES (1, 10)");
  ASSERT_TRUE(c->Commit().ok());
  EXPECT_EQ(Count(c.get(), "t"), 1);

  ASSERT_TRUE(c->Begin().ok());
  Query(c.get(), "INSERT INTO t VALUES (2, 20)");
  ASSERT_TRUE(c->Abort().ok());
  EXPECT_EQ(Count(c.get(), "t"), 1);

  // Protocol misuse fails typed without killing the session.
  const Status no_txn = c->Commit();
  ASSERT_FALSE(no_txn.ok());
  EXPECT_EQ(no_txn.code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(c->Begin().ok());
  const Status nested = c->Begin();
  ASSERT_FALSE(nested.ok());
  EXPECT_EQ(nested.code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(c->Abort().ok());
  EXPECT_EQ(Count(c.get(), "t"), 1);
}

TEST_F(TxnServerTest, ReaderDoesNotBlockBehindOpenLoadTxn) {
  // A short lock timeout turns "the reader waited on the loader's table
  // lock" into a hard test failure instead of a slow pass.
  ServerOptions server_options;
  server_options.lock_timeout_ms = 250;
  OpenAndStart(server_options);
  std::unique_ptr<Client> loader = Connect();
  std::unique_ptr<Client> reader = Connect();
  ASSERT_NE(loader, nullptr);
  ASSERT_NE(reader, nullptr);
  Query(loader.get(), "CREATE TABLE reads (id INT, sample VARCHAR(20))");
  Query(loader.get(), "INSERT INTO reads VALUES (1, 'NA12878')");

  ASSERT_TRUE(loader->Begin().ok());
  Query(loader.get(), "INSERT INTO reads VALUES (2, 'NA12891')");
  Query(loader.get(), "INSERT INTO reads VALUES (3, 'NA12892')");
  // The loader holds the table exclusively (write locks to commit), yet
  // the reader completes within the 250 ms lock budget and sees the
  // consistent pre-load snapshot.
  EXPECT_EQ(Count(reader.get(), "reads"), 1);
  ASSERT_TRUE(loader->Commit().ok());
  EXPECT_EQ(Count(reader.get(), "reads"), 3);
}

TEST_F(TxnServerTest, StatementFailureAutoAbortsAndSessionSurvives) {
  OpenAndStart();
  std::unique_ptr<Client> c1 = Connect();
  std::unique_ptr<Client> c2 = Connect();
  ASSERT_NE(c1, nullptr);
  ASSERT_NE(c2, nullptr);
  Query(c1.get(), "CREATE TABLE t (id INT, v INT)");

  ASSERT_TRUE(c1->Begin().ok());
  ASSERT_TRUE(c2->Begin().ok());
  Query(c1.get(), "INSERT INTO t VALUES (1, 10)");
  ASSERT_TRUE(c1->Commit().ok());
  // c2's snapshot predates c1's commit: first-writer-wins aborts c2's
  // insert, typed, and the server auto-aborts the whole transaction.
  auto conflicted = c2->Query("INSERT INTO t VALUES (2, 20)");
  ASSERT_FALSE(conflicted.ok());
  EXPECT_EQ(conflicted.status().code(), StatusCode::kAborted);
  EXPECT_NE(conflicted.status().message().find("transaction aborted"),
            std::string::npos)
      << conflicted.status().ToString();
  // The transaction is gone (auto-aborted) but the session lives on.
  const Status commit_after = c2->Commit();
  ASSERT_FALSE(commit_after.ok());
  EXPECT_EQ(commit_after.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Count(c2.get(), "t"), 1);
}

TEST_F(TxnServerTest, DdlInsideTxnAutoAborts) {
  OpenAndStart();
  std::unique_ptr<Client> c = Connect();
  ASSERT_NE(c, nullptr);
  Query(c.get(), "CREATE TABLE t (id INT, v INT)");
  ASSERT_TRUE(c->Begin().ok());
  Query(c.get(), "INSERT INTO t VALUES (1, 10)");
  auto ddl = c->Query("TRUNCATE TABLE t");
  ASSERT_FALSE(ddl.ok());
  EXPECT_EQ(ddl.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(ddl.status().message().find("transaction aborted"),
            std::string::npos);
  // The insert rolled back with the auto-abort.
  EXPECT_EQ(Count(c.get(), "t"), 0);
}

TEST_F(TxnServerTest, DisconnectMidTxnAbortsAndReleasesLocks) {
  OpenAndStart();
  std::unique_ptr<Client> doomed = Connect();
  std::unique_ptr<Client> survivor = Connect();
  ASSERT_NE(doomed, nullptr);
  ASSERT_NE(survivor, nullptr);
  Query(doomed.get(), "CREATE TABLE t (id INT, v INT)");
  Query(doomed.get(), "INSERT INTO t VALUES (1, 10)");

  ASSERT_TRUE(doomed->Begin().ok());
  Query(doomed.get(), "INSERT INTO t VALUES (2, 20)");
  // Hard disconnect mid-transaction: the session must abort implicitly
  // and release the accumulated table lock.
  doomed->Goodbye();
  doomed.reset();
  for (int i = 0; i < 100 && server_->locks()->LockedTableCount() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server_->locks()->LockedTableCount(), 0u);
  // The write rolled back and the table is immediately writable.
  EXPECT_EQ(Count(survivor.get(), "t"), 1);
  Query(survivor.get(), "INSERT INTO t VALUES (3, 30)");
  EXPECT_EQ(Count(survivor.get(), "t"), 2);
}

TEST_F(TxnServerTest, BeginRejectedTypedWhenMvccDisabled) {
  options_.enable_mvcc = false;
  OpenAndStart();
  std::unique_ptr<Client> c = Connect();
  ASSERT_NE(c, nullptr);
  const Status begin = c->Begin();
  ASSERT_FALSE(begin.ok());
  EXPECT_EQ(begin.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(begin.message().find("MVCC"), std::string::npos);
  // Plain autocommit statements still work without MVCC.
  Query(c.get(), "CREATE TABLE t (id INT)");
  Query(c.get(), "INSERT INTO t VALUES (1)");
  EXPECT_EQ(Count(c.get(), "t"), 1);
}

}  // namespace
}  // namespace htg
