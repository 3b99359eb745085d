// Memory governance and spill-to-disk degradation: parity between
// in-memory and forced-spill execution for sort / hash aggregate / hash
// join (one-row and default-size batches, DOP-8 parallel aggregation,
// NULL join keys, LEFT JOIN, re-partitioned join partitions), DISTINCT
// spilling like GROUP BY, typed kResourceExhausted failures when spilling
// is unavailable or the join's keys are too skewed, materialized output
// that is charged once under a consumer, EXPLAIN ANALYZE spill reporting,
// and fault injection into the aggregate's and the join's spill writes
// through the Vfs seam (ENOSPC, torn write, transient EIO) — after which
// the session keeps working and no orphan spill files remain.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "exec/spill_util.h"
#include "genomics/register.h"
#include "sql/engine.h"
#include "storage/fault_injection.h"
#include "storage/vfs.h"

namespace htg::sql {
namespace {

constexpr int kRows = 12000;   // above parallel_threshold (10000)
constexpr int kGroups = 500;   // distinct aggregation keys
constexpr int kDimRows = 2000; // join build side (4 rows per key)
constexpr int64_t kTinyBudget = 64 * 1024;  // forces multi-run spills

std::string PayloadFor(int i) {
  // 32 deterministic chars so each row carries real bytes.
  std::string s;
  s.reserve(32);
  uint64_t x = 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(i + 1);
  for (int c = 0; c < 32; ++c) {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    s.push_back(static_cast<char>('a' + (x * 0x2545F4914F6CDD1DULL >> 59) % 26));
  }
  return s;
}

// Opens a database with the given memory governance settings and loads
// the deterministic fact table t and dimension table u.
std::unique_ptr<Database> OpenLoaded(const std::string& tag,
                                     int64_t query_mem_bytes,
                                     bool enable_spill, size_t batch_rows,
                                     int max_dop,
                                     storage::Vfs* vfs = nullptr) {
  DatabaseOptions options;
  options.filestream_root = "/tmp/htg_spill_test_" + tag;
  std::filesystem::remove_all(options.filestream_root);
  options.query_mem_bytes = query_mem_bytes;
  options.enable_spill = enable_spill;
  options.batch_rows = batch_rows;
  options.max_dop = max_dop;
  if (vfs != nullptr) options.filestream_options.vfs = vfs;
  auto db = Database::Open("spill_" + tag, options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  if (!db.ok()) return nullptr;
  SqlEngine engine(db->get());
  EXPECT_TRUE(engine
                  .Execute("CREATE TABLE t (k INT, v BIGINT, s VARCHAR(64))")
                  .ok());
  EXPECT_TRUE(engine.Execute("CREATE TABLE u (k INT, w BIGINT)").ok());
  catalog::TableDef* t = *(*db)->GetTable("t");
  for (int i = 0; i < kRows; ++i) {
    const Status s = (*db)->InsertRow(
        t, Row{Value::Int32(i % kGroups), Value::Int64(i),
               Value::String(PayloadFor(i))});
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  catalog::TableDef* u = *(*db)->GetTable("u");
  for (int i = 0; i < kDimRows; ++i) {
    const Status s = (*db)->InsertRow(
        u, Row{Value::Int32(i % kGroups), Value::Int64(i * 10)});
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  return std::move(*db);
}

// Creates table `name` (k INT, w BIGINT, s VARCHAR(64)) holding `rows`
// rows: k = key(i), NULL where key(i) < 0; w = i; s = PayloadFor(i).
void LoadKeyed(Database* db, const std::string& name, int rows,
               const std::function<int(int)>& key) {
  SqlEngine engine(db);
  ASSERT_TRUE(engine
                  .Execute("CREATE TABLE " + name +
                           " (k INT, w BIGINT, s VARCHAR(64))")
                  .ok());
  catalog::TableDef* table = *db->GetTable(name);
  for (int i = 0; i < rows; ++i) {
    const int k = key(i);
    const Status s = db->InsertRow(
        table, Row{k < 0 ? Value::Null() : Value::Int32(k), Value::Int64(i),
                   Value::String(PayloadFor(i))});
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
}

// A join build side with one row per key, far larger than kTinyBudget:
// each of its level-0 spill partitions still exceeds the budget.
constexpr int kBigRows = 16000;
void LoadBig(Database* db) {
  LoadKeyed(db, "big", kBigRows, [](int i) { return i; });
}

std::vector<std::string> RowStrings(const QueryResult& r) {
  std::vector<std::string> out;
  out.reserve(r.rows.size());
  for (const Row& row : r.rows) {
    std::string line;
    for (const Value& v : row) {
      line += v.is_null() ? std::string("<null>") : v.ToString();
      line += '|';
    }
    out.push_back(std::move(line));
  }
  return out;
}

uint64_t SpillRunsCounter() {
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  const auto it = snap.counters.find("exec.spill.runs");
  return it == snap.counters.end() ? 0 : it->second;
}

bool AnySpillFilesLeft(const std::string& root) {
  const std::filesystem::path dir = root + "/tablespace";
  if (!std::filesystem::exists(dir)) return false;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("spill", 0) == 0) return true;
  }
  return false;
}

// Runs `sql` on both databases and asserts identical result multisets
// (and identical order when `ordered`); asserts the tiny-budget run
// actually spilled.
void ExpectParity(SqlEngine* reference, SqlEngine* tiny,
                  const std::string& sql, bool ordered) {
  Result<QueryResult> expect = reference->Execute(sql);
  ASSERT_TRUE(expect.ok()) << sql << "\n--> " << expect.status().ToString();
  const uint64_t runs_before = SpillRunsCounter();
  Result<QueryResult> got = tiny->Execute(sql);
  ASSERT_TRUE(got.ok()) << sql << "\n--> " << got.status().ToString();
  EXPECT_GT(SpillRunsCounter(), runs_before)
      << "tiny-budget run did not spill: " << sql;
  std::vector<std::string> want = RowStrings(*expect);
  std::vector<std::string> have = RowStrings(*got);
  ASSERT_EQ(want.size(), have.size()) << sql;
  if (!ordered) {
    std::sort(want.begin(), want.end());
    std::sort(have.begin(), have.end());
  }
  EXPECT_EQ(want, have) << sql;
}

// batch_rows parameter: 1 = one-row batches, 0 = the default batch size.
class SpillParityTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SpillParityTest, ExternalSortMatchesInMemorySort) {
  auto ref = OpenLoaded("sortref_" + std::to_string(GetParam()), 0, true,
                        GetParam(), 4);
  auto tiny = OpenLoaded("sorttiny_" + std::to_string(GetParam()), kTinyBudget,
                         true, GetParam(), 4);
  ASSERT_NE(ref, nullptr);
  ASSERT_NE(tiny, nullptr);
  SqlEngine ref_engine(ref.get());
  SqlEngine tiny_engine(tiny.get());
  ExpectParity(&ref_engine, &tiny_engine,
               "SELECT k, v, s FROM t ORDER BY v DESC", /*ordered=*/true);
  ExpectParity(&ref_engine, &tiny_engine,
               "SELECT s, v FROM t ORDER BY s, v", /*ordered=*/true);
}

TEST_P(SpillParityTest, SpilledAggregateMatchesInMemoryAggregate) {
  auto ref = OpenLoaded("aggref_" + std::to_string(GetParam()), 0, true,
                        GetParam(), 1);
  auto tiny = OpenLoaded("aggtiny_" + std::to_string(GetParam()), kTinyBudget,
                         true, GetParam(), 1);
  ASSERT_NE(ref, nullptr);
  ASSERT_NE(tiny, nullptr);
  SqlEngine ref_engine(ref.get());
  SqlEngine tiny_engine(tiny.get());
  ExpectParity(&ref_engine, &tiny_engine,
               "SELECT k, COUNT(*), SUM(v), MIN(s), MAX(s) FROM t GROUP BY k",
               /*ordered=*/false);
  ExpectParity(&ref_engine, &tiny_engine,
               "SELECT s, COUNT(*) FROM t GROUP BY s", /*ordered=*/false);
}

TEST_P(SpillParityTest, ParallelAggregateSpillsAtDop8) {
  auto ref = OpenLoaded("pagref_" + std::to_string(GetParam()), 0, true,
                        GetParam(), 8);
  auto tiny = OpenLoaded("pagtiny_" + std::to_string(GetParam()), kTinyBudget,
                         true, GetParam(), 8);
  ASSERT_NE(ref, nullptr);
  ASSERT_NE(tiny, nullptr);
  SqlEngine ref_engine(ref.get());
  SqlEngine tiny_engine(tiny.get());
  ExpectParity(&ref_engine, &tiny_engine,
               "SELECT k, COUNT(*), SUM(v), MIN(s) FROM t GROUP BY k",
               /*ordered=*/false);
}

TEST_P(SpillParityTest, GraceHashJoinMatchesInMemoryJoin) {
  auto ref = OpenLoaded("joinref_" + std::to_string(GetParam()), 0, true,
                        GetParam(), 1);
  auto tiny = OpenLoaded("jointiny_" + std::to_string(GetParam()), kTinyBudget,
                         true, GetParam(), 1);
  ASSERT_NE(ref, nullptr);
  ASSERT_NE(tiny, nullptr);
  SqlEngine ref_engine(ref.get());
  SqlEngine tiny_engine(tiny.get());
  ExpectParity(&ref_engine, &tiny_engine,
               "SELECT t.v, u.w FROM t JOIN u ON t.k = u.k WHERE u.w < 2000",
               /*ordered=*/false);
  // NULL keys on both sides: they never match, and a LEFT JOIN pads its
  // NULL-keyed probe rows in whichever partition they hash to.
  for (Database* db : {ref.get(), tiny.get()}) {
    LoadKeyed(db, "tn", kDimRows,
              [](int i) { return i % 7 == 0 ? -1 : i % kGroups; });
    LoadKeyed(db, "un", kDimRows,
              [](int i) { return i % 11 == 0 ? -1 : i % kGroups; });
  }
  ExpectParity(&ref_engine, &tiny_engine,
               "SELECT tn.w, un.w FROM tn JOIN un ON tn.k = un.k",
               /*ordered=*/false);
  ExpectParity(&ref_engine, &tiny_engine,
               "SELECT tn.w, un.w FROM tn LEFT JOIN un ON tn.k = un.k",
               /*ordered=*/false);
}

TEST_P(SpillParityTest, GraceHashJoinRepartitionsOversizedPartitions) {
  // A build side many times the budget: its level-0 partitions exceed the
  // budget too and are partitioned again one level deeper.
  auto ref = OpenLoaded("deepref_" + std::to_string(GetParam()), 0, true,
                        GetParam(), 1);
  auto tiny = OpenLoaded("deeptiny_" + std::to_string(GetParam()),
                         kTinyBudget, true, GetParam(), 1);
  ASSERT_NE(ref, nullptr);
  ASSERT_NE(tiny, nullptr);
  LoadBig(ref.get());
  LoadBig(tiny.get());
  SqlEngine ref_engine(ref.get());
  SqlEngine tiny_engine(tiny.get());
  const uint64_t runs_before = SpillRunsCounter();
  ExpectParity(&ref_engine, &tiny_engine,
               "SELECT t.v, big.w, big.s FROM t JOIN big ON t.k = big.k",
               /*ordered=*/false);
  EXPECT_GT(SpillRunsCounter() - runs_before, 2 * exec::kSpillPartitions);
}

INSTANTIATE_TEST_SUITE_P(RowAndBatchModes, SpillParityTest,
                         ::testing::Values<size_t>(1, 0));

TEST(SpillDisabledTest, OverBudgetFailsTypedAndSessionSurvives) {
  auto db = OpenLoaded("nospill", kTinyBudget, /*enable_spill=*/false, 0, 4);
  ASSERT_NE(db, nullptr);
  SqlEngine engine(db.get());
  for (const char* sql :
       {"SELECT k, v, s FROM t ORDER BY v DESC",
        "SELECT k, COUNT(*), SUM(v) FROM t GROUP BY k",
        "SELECT t.v, u.w FROM t JOIN u ON t.k = u.k"}) {
    Result<QueryResult> r = engine.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_TRUE(r.status().IsResourceExhausted())
        << sql << "\n--> " << r.status().ToString();
  }
  // The failures are statement-level: the same session keeps answering.
  Result<QueryResult> alive = engine.Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(alive.ok()) << alive.status().ToString();
  EXPECT_EQ(alive->rows[0][0].AsInt64(), kRows);
}

TEST(SpillJoinTest, SingleKeySkewFailsTypedAtDepthLimit) {
  // Every build row has the same key, so no level of re-partitioning
  // splits it: the join gives up at the depth limit, typed.
  auto db = OpenLoaded("skew", kTinyBudget, /*enable_spill=*/true, 0, 1);
  ASSERT_NE(db, nullptr);
  LoadKeyed(db.get(), "skew", 20000, [](int) { return 1; });
  SqlEngine engine(db.get());
  Result<QueryResult> r =
      engine.Execute("SELECT t.v, skew.s FROM t JOIN skew ON t.k = skew.k");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("exceeded depth 8"), std::string::npos)
      << r.status().ToString();
  EXPECT_FALSE(AnySpillFilesLeft(db->options().filestream_root));
  Result<QueryResult> alive = engine.Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(alive.ok()) << alive.status().ToString();
  EXPECT_EQ(alive->rows[0][0].AsInt64(), kRows);
}

// Opens a database holding `aligned`: kRows reads that PivotAlignment
// turns into three rows each.
std::unique_ptr<Database> OpenAligned(const std::string& tag,
                                      int64_t query_mem_bytes,
                                      bool enable_spill) {
  DatabaseOptions options;
  options.filestream_root = "/tmp/htg_spill_test_" + tag;
  std::filesystem::remove_all(options.filestream_root);
  options.query_mem_bytes = query_mem_bytes;
  options.enable_spill = enable_spill;
  options.max_dop = 4;
  auto db = Database::Open("spill_" + tag, options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  if (!db.ok()) return nullptr;
  EXPECT_TRUE(genomics::RegisterGenomicsExtensions(db->get()).ok());
  SqlEngine engine(db->get());
  EXPECT_TRUE(engine
                  .Execute("CREATE TABLE aligned (pos BIGINT, seq "
                           "VARCHAR(10), quals VARCHAR(10))")
                  .ok());
  catalog::TableDef* table = *(*db)->GetTable("aligned");
  for (int i = 0; i < kRows; ++i) {
    const Status s = (*db)->InsertRow(
        table, Row{Value::Int64(i * 2), Value::String("ACG"),
                   Value::String("III")});
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  return std::move(*db);
}

TEST(SpillGatherTest, SortOverParallelGatherCountsRowsOnce) {
  // The CROSS APPLY gather charges the batches it buffers and releases
  // each one as the Sort above takes it, so the statement needs about
  // the gathered bytes plus the Sort's keys, not twice the gathered bytes.
  const std::string pivot =
      "SELECT * FROM aligned CROSS APPLY PivotAlignment(aligned.pos, seq, "
      "quals) AS pa";
  const std::string sorted = pivot + " ORDER BY pa.pos DESC, base";
  size_t gathered = 0;
  std::vector<std::string> want;
  {
    auto db = OpenAligned("gather_ref", 0, true);
    ASSERT_NE(db, nullptr);
    SqlEngine engine(db.get());
    Result<QueryResult> all = engine.Execute(pivot);
    ASSERT_TRUE(all.ok()) << all.status().ToString();
    ASSERT_EQ(all->rows.size(), 3u * kRows);
    for (const Row& row : all->rows) {
      for (const Value& v : row) gathered += v.ApproxBytes();
    }
    Result<QueryResult> ref = engine.Execute(sorted);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    want = RowStrings(*ref);
  }

  const int64_t budget = static_cast<int64_t>(gathered * 3 / 2);
  for (const bool spill : {false, true}) {
    auto db = OpenAligned(spill ? "gather_spill" : "gather_nospill", budget,
                          spill);
    ASSERT_NE(db, nullptr);
    SqlEngine engine(db.get());
    Result<QueryResult> plan = engine.Execute("EXPLAIN " + sorted);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ASSERT_NE(plan->message.find("Gather Streams"), std::string::npos)
        << plan->message;
    const uint64_t runs_before = SpillRunsCounter();
    Result<QueryResult> got = engine.Execute(sorted);
    ASSERT_TRUE(got.ok()) << "spill=" << spill << ": "
                          << got.status().ToString();
    EXPECT_EQ(SpillRunsCounter(), runs_before) << "spill=" << spill;
    EXPECT_EQ(RowStrings(*got), want) << "spill=" << spill;
  }
}

// The KiB figure after `key` on the first line of `text` holding `marker`.
double KiBOnLine(const std::string& text, const std::string& marker,
                 const std::string& key) {
  const size_t line = text.find(marker);
  if (line == std::string::npos) return -1;
  const size_t at = text.find(key, text.rfind('\n', line) + 1);
  if (at == std::string::npos) return -1;
  return std::strtod(text.c_str() + at + key.size(), nullptr);
}

TEST(SpillGatherTest, SortOverAggregateCountsGroupsOnce) {
  // The aggregate releases its groups' charge batch by batch as the Sort
  // above takes them, so the statement needs about the larger of the two
  // operators, not their sum. One group per row makes both large.
  const std::string sql = "SELECT s, COUNT(*) FROM t GROUP BY s ORDER BY s";
  std::vector<std::string> want;
  double agg_kib = 0;
  {
    auto db = OpenLoaded("aggsort_ref", 0, true, 0, 4);
    ASSERT_NE(db, nullptr);
    SqlEngine engine(db.get());
    Result<QueryResult> ref = engine.Execute(sql);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    ASSERT_EQ(ref->rows.size(), static_cast<size_t>(kRows));
    want = RowStrings(*ref);
    Result<QueryResult> plan = engine.Execute("EXPLAIN ANALYZE " + sql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    agg_kib = KiBOnLine(plan->message, "Aggregate", "peak-mem=");
    const double sort_kib = KiBOnLine(plan->message, "Sort [", "peak-mem=");
    const double total_kib =
        KiBOnLine(plan->message, "memory: peak=", "memory: peak=");
    ASSERT_GT(agg_kib, 0) << plan->message;
    ASSERT_GT(sort_kib, 0) << plan->message;
    EXPECT_LT(total_kib, agg_kib + sort_kib) << plan->message;
  }

  const auto budget = static_cast<int64_t>(agg_kib * 1024 * 3 / 2);
  auto db = OpenLoaded("aggsort_nospill", budget, /*enable_spill=*/false, 0, 4);
  ASSERT_NE(db, nullptr);
  SqlEngine engine(db.get());
  Result<QueryResult> got = engine.Execute(sql);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(RowStrings(*got), want);
}

TEST(SpillDistinctTest, SpillsUnderBudgetAndFailsTypedWhenDisabled) {
  // DISTINCT is a hash aggregate over the projected columns, so over
  // budget it spills like GROUP BY and returns every distinct row.
  std::vector<std::string> want;
  for (int i = 0; i < kRows; ++i) {
    want.push_back(PayloadFor(i) + "|" + std::to_string(i) + "|");
  }
  std::sort(want.begin(), want.end());
  auto db = OpenLoaded("distinct", kTinyBudget, /*enable_spill=*/true, 0, 4);
  ASSERT_NE(db, nullptr);
  SqlEngine engine(db.get());
  Result<QueryResult> r = engine.Execute("SELECT DISTINCT s, v FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::vector<std::string> have = RowStrings(*r);
  std::sort(have.begin(), have.end());
  EXPECT_EQ(want, have);
  Result<QueryResult> explain =
      engine.Execute("EXPLAIN ANALYZE SELECT DISTINCT s, v FROM t");
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_NE(explain->message.find("spill runs="), std::string::npos)
      << explain->message;

  // With spilling off, the same statement fails typed and the session
  // keeps working.
  auto nospill =
      OpenLoaded("distinct_nospill", kTinyBudget, /*enable_spill=*/false, 0, 4);
  ASSERT_NE(nospill, nullptr);
  SqlEngine nospill_engine(nospill.get());
  Result<QueryResult> failed =
      nospill_engine.Execute("SELECT DISTINCT s, v FROM t");
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsResourceExhausted())
      << failed.status().ToString();
  EXPECT_TRUE(nospill_engine.Execute("SELECT COUNT(*) FROM t").ok());
}

TEST(SpillExplainTest, AnalyzeReportsSpillRunsAndPeakMem) {
  auto db = OpenLoaded("explain", kTinyBudget, true, 0, 4);
  ASSERT_NE(db, nullptr);
  SqlEngine engine(db.get());
  Result<QueryResult> r = engine.Execute(
      "EXPLAIN ANALYZE SELECT k, COUNT(*), SUM(v) FROM t GROUP BY k");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->message.find("peak-mem="), std::string::npos) << r->message;
  EXPECT_NE(r->message.find("spill runs="), std::string::npos) << r->message;
  EXPECT_NE(r->message.find("memory: peak="), std::string::npos) << r->message;
  EXPECT_NE(r->message.find("budget 0.1 MiB"), std::string::npos)
      << r->message;

  // An in-budget statement reports zero spill runs in the summary.
  Result<QueryResult> quiet =
      engine.Execute("EXPLAIN ANALYZE SELECT COUNT(*) FROM u");
  ASSERT_TRUE(quiet.ok());
  EXPECT_NE(quiet->message.find("spill runs=0"), std::string::npos)
      << quiet->message;
}

// ---------------------------------------------------------------------
// Fault injection into the spill write path

class SpillFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    vfs_ = std::make_unique<storage::FaultInjectingVfs>(
        storage::Vfs::Default(), storage::FaultPlan{});
    db_ = OpenLoaded("fault", kTinyBudget, true, 0, 4, vfs_.get());
    ASSERT_NE(db_, nullptr);
    engine_ = std::make_unique<SqlEngine>(db_.get());
  }

  void Arm(storage::FaultPlan::Kind kind, int64_t at, int transient = 2) {
    storage::FaultPlan plan;
    plan.kind = kind;
    plan.fail_at_op = at;
    plan.transient_failures = transient;
    plan.crash_after_fault = false;  // device degrades, process survives
    vfs_->Reset(plan);
  }

  void Heal() { vfs_->Reset(storage::FaultPlan{}); }

  const char* kSpillQuery = "SELECT k, COUNT(*), SUM(v) FROM t GROUP BY k";

  std::unique_ptr<storage::FaultInjectingVfs> vfs_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<SqlEngine> engine_;
};

TEST_F(SpillFaultTest, NoSpaceOnSpillWriteFailsStatementOnly) {
  Arm(storage::FaultPlan::Kind::kNoSpace, 0);
  Result<QueryResult> failed = engine_->Execute(kSpillQuery);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(vfs_->fault_fired());
  // The failed statement's spill files were cleaned up with its
  // iterators — nothing orphaned in the tablespace directory.
  Heal();
  EXPECT_FALSE(AnySpillFilesLeft(db_->options().filestream_root));
  // The device recovered: the same session runs the same query.
  Result<QueryResult> ok = engine_->Execute(kSpillQuery);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->rows.size(), static_cast<size_t>(kGroups));
  EXPECT_FALSE(AnySpillFilesLeft(db_->options().filestream_root));
}

TEST_F(SpillFaultTest, TornSpillWriteFailsStatementOnly) {
  Arm(storage::FaultPlan::Kind::kTornWrite, 2);
  Result<QueryResult> failed = engine_->Execute(kSpillQuery);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(vfs_->fault_fired());
  Heal();
  EXPECT_FALSE(AnySpillFilesLeft(db_->options().filestream_root));
  Result<QueryResult> ok = engine_->Execute(kSpillQuery);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->rows.size(), static_cast<size_t>(kGroups));
}

TEST_F(SpillFaultTest, JoinSpillFaultsFailStatementOnly) {
  // The join's build side (big) is many times the budget, so it spills at
  // level 0 and every level-0 partition is partitioned again at level 1.
  LoadBig(db_.get());
  const char* kJoinQuery = "SELECT t.v, big.w FROM t JOIN big ON t.k = big.k";
  Result<QueryResult> ref = engine_->Execute(kJoinQuery);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  const std::vector<std::string> want = RowStrings(*ref);
  ASSERT_EQ(want.size(), static_cast<size_t>(kRows));

  // Mutating ops of the statement once the WAL is open: op 0 creates the
  // level-0 spill file, whose 32 pages are written back when its runs are
  // sealed, each as a WAL append (odd op) and a data append (even op).
  // The build runs fill and seal before the probe runs, so the first page
  // (op 2) holds build rows and the last (op 64) probe rows. Op 65 creates
  // the first level-1 re-partition's file and op 67 writes its first
  // page. A level-0 write fails with exactly the level-0 runs sealed; a
  // level-1 write fails after some level-1 runs were sealed too.
  struct Point {
    const char* phase;
    int64_t op;
    bool level0;
  };
  for (const auto kind : {storage::FaultPlan::Kind::kNoSpace,
                          storage::FaultPlan::Kind::kTornWrite}) {
    for (const Point& point : {Point{"build", 2, true},
                               Point{"probe", 64, true},
                               Point{"level-1", 67, false}}) {
      SCOPED_TRACE(std::string(point.phase) +
                   (kind == storage::FaultPlan::Kind::kNoSpace ? " ENOSPC"
                                                               : " torn"));
      Arm(kind, point.op);
      const uint64_t runs_before = SpillRunsCounter();
      Result<QueryResult> failed = engine_->Execute(kJoinQuery);
      ASSERT_FALSE(failed.ok());
      EXPECT_TRUE(vfs_->fault_fired());
      EXPECT_NE(failed.status().message().find("spill_join"),
                std::string::npos)
          << failed.status().ToString();
      const uint64_t runs = SpillRunsCounter() - runs_before;
      if (point.level0) {
        EXPECT_EQ(runs, 2 * exec::kSpillPartitions);
      } else {
        EXPECT_GT(runs, 2 * exec::kSpillPartitions);
      }
      Heal();
      EXPECT_FALSE(AnySpillFilesLeft(db_->options().filestream_root));
      Result<QueryResult> ok = engine_->Execute(kJoinQuery);
      ASSERT_TRUE(ok.ok()) << ok.status().ToString();
      EXPECT_EQ(RowStrings(*ok), want);
    }
  }
}

TEST_F(SpillFaultTest, TransientEioOnSpillWriteIsAbsorbed) {
  // The device flakes twice on one spill write, then heals: the storage
  // retry policy (and statement-level retry above it) absorb the fault
  // and the query still answers correctly.
  Arm(storage::FaultPlan::Kind::kTransientEio, 1, /*transient=*/2);
  Result<QueryResult> r = engine_->Execute(kSpillQuery);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(vfs_->fault_fired());
  EXPECT_EQ(r->rows.size(), static_cast<size_t>(kGroups));
  EXPECT_FALSE(AnySpillFilesLeft(db_->options().filestream_root));
}

}  // namespace
}  // namespace htg::sql
