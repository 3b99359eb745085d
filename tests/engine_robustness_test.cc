// Robustness of the engine surface: transactional undo of failed bulk
// inserts, FILESTREAM cleanup on rollback, NOT NULL enforcement, UTF-16
// storage round trips, and binder edge cases.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>

#include "genomics/register.h"
#include "sql/engine.h"

namespace htg::sql {
namespace {

class RobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static int counter = 0;
    DatabaseOptions options;
    options.filestream_root =
        "/tmp/htg_robust_test_" + std::to_string(counter++);
    auto db = Database::Open("robust", options);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    ASSERT_TRUE(db_->filestream()->Clear().ok());
    ASSERT_TRUE(genomics::RegisterGenomicsExtensions(db_.get()).ok());
    engine_ = std::make_unique<SqlEngine>(db_.get());
  }

  QueryResult Exec(const std::string& sql) {
    Result<QueryResult> result = engine_->Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << "\n--> " << result.status().ToString();
    return result.ok() ? std::move(*result) : QueryResult{};
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<SqlEngine> engine_;
};

TEST_F(RobustnessTest, FailedInsertSelectRollsBackHeapRows) {
  Exec("CREATE TABLE src (a INT, b VARCHAR(10))");
  Exec("INSERT INTO src VALUES (1, 'x'), (2, NULL), (3, 'z')");
  Exec("CREATE TABLE dst (a INT, b VARCHAR(10) NOT NULL)");
  Exec("INSERT INTO dst VALUES (100, 'pre')");
  // The NULL in row 2 violates dst's NOT NULL mid-stream: the whole
  // statement must roll back, leaving only the pre-existing row.
  Result<QueryResult> failed =
      engine_->Execute("INSERT INTO dst SELECT a, b FROM src");
  ASSERT_FALSE(failed.ok());
  QueryResult after = Exec("SELECT COUNT(*), MIN(a) FROM dst");
  EXPECT_EQ(after.rows[0][0].AsInt64(), 1);
  EXPECT_EQ(after.rows[0][1].AsInt64(), 100);
}

TEST_F(RobustnessTest, FailedInsertRollsBackFilestreamBlobs) {
  Exec("CREATE TABLE files (id INT NOT NULL, data VARBINARY(MAX) FILESTREAM)");
  const uint64_t before = db_->filestream()->TotalBytes();
  // Row 1 creates a blob; row 2 fails (NULL into NOT NULL id): the blob
  // from row 1 must be deleted again.
  Result<QueryResult> failed = engine_->Execute(
      "INSERT INTO files VALUES (1, 'blob-bytes'), (NULL, 'more')");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(db_->filestream()->TotalBytes(), before);
  QueryResult count = Exec("SELECT COUNT(*) FROM files");
  EXPECT_EQ(count.rows[0][0].AsInt64(), 0);
}

TEST_F(RobustnessTest, SuccessfulFilestreamInsertKeepsBlob) {
  Exec("CREATE TABLE files (id INT, data VARBINARY(MAX) FILESTREAM)");
  Exec("INSERT INTO files VALUES (1, 'blob-bytes')");
  EXPECT_EQ(db_->filestream()->TotalBytes(), 10u);
  QueryResult r = Exec("SELECT DATALENGTH(data) FROM files");
  EXPECT_EQ(r.rows[0][0].AsInt64(), 10);
}

TEST_F(RobustnessTest, Utf16ColumnsRoundTripThroughStorage) {
  Exec("CREATE TABLE n (a NVARCHAR(50), b NCHAR(4))");
  Exec("INSERT INTO n VALUES ('hello', 'AC'), (NULL, NULL)");
  QueryResult r = Exec("SELECT a, b FROM n");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "hello");
  EXPECT_EQ(r.rows[0][1].AsString(), "AC  ");  // NCHAR blank padding
  EXPECT_TRUE(r.rows[1][0].is_null());
  // UTF-16 columns really cost 2 bytes per char in storage.
  auto* table = *db_->GetTable("n");
  Exec("TRUNCATE TABLE n");
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db_->InsertRow(table, Row{Value::String(std::string(20, 'x')),
                                          Value::String("ABCD")})
                    .ok());
  }
  const uint64_t utf16_bytes = table->table->Stats().data_bytes;
  Exec("CREATE TABLE v (a VARCHAR(50), b CHAR(4))");
  auto* narrow = *db_->GetTable("v");
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db_->InsertRow(narrow, Row{Value::String(std::string(20, 'x')),
                                           Value::String("ABCD")})
                    .ok());
  }
  const uint64_t narrow_bytes = narrow->table->Stats().data_bytes;
  EXPECT_GT(utf16_bytes, narrow_bytes * 17 / 10);
}

TEST_F(RobustnessTest, NotNullEnforcedOnDirectInsert) {
  Exec("CREATE TABLE t (a INT NOT NULL)");
  Result<QueryResult> failed =
      engine_->Execute("INSERT INTO t VALUES (NULL)");
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM t").rows[0][0].AsInt64(), 0);
}

TEST_F(RobustnessTest, PrimaryKeyColumnsClusterTheTable) {
  Exec("CREATE TABLE pk (a INT, b INT, PRIMARY KEY (b, a))");
  auto* table = *db_->GetTable("pk");
  ASSERT_EQ(table->clustered_key.size(), 2u);
  EXPECT_EQ(table->clustered_key[0], 1);  // b first
  EXPECT_EQ(table->clustered_key[1], 0);
  Exec("INSERT INTO pk VALUES (1, 9), (2, 3), (3, 3)");
  QueryResult r = Exec("SELECT a, b FROM pk");  // clustered scan order
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][1].AsInt64(), 3);
  EXPECT_EQ(r.rows[2][1].AsInt64(), 9);
}

TEST_F(RobustnessTest, DistinctWithHiddenOrderByRejected) {
  Exec("CREATE TABLE t (a INT, b INT)");
  Result<QueryResult> failed =
      engine_->Execute("SELECT DISTINCT a FROM t ORDER BY b");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kBindError);
}

TEST_F(RobustnessTest, DeeplyNestedExpressionsEvaluate) {
  std::string expr = "1";
  for (int i = 0; i < 200; ++i) expr = "(" + expr + " + 1)";
  QueryResult r = Exec("SELECT " + expr);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 201);
}

TEST_F(RobustnessTest, WideRowsSurviveStorage) {
  // A row wider than one page must still store and scan (pages hold at
  // least one row each).
  Exec("CREATE TABLE wide (a VARCHAR(100000)) WITH (DATA_COMPRESSION = ROW)");
  auto* table = *db_->GetTable("wide");
  const std::string big(50000, 'G');
  ASSERT_TRUE(db_->InsertRow(table, Row{Value::String(big)}).ok());
  ASSERT_TRUE(db_->InsertRow(table, Row{Value::String("tiny")}).ok());
  QueryResult r = Exec("SELECT LEN(a) FROM wide ORDER BY 1 DESC");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 50000);
}

TEST_F(RobustnessTest, AggregateOverEmptyGroupByYieldsNoRows) {
  Exec("CREATE TABLE t (k INT, v INT)");
  QueryResult r = Exec("SELECT k, SUM(v) FROM t GROUP BY k");
  EXPECT_TRUE(r.rows.empty());
}

TEST_F(RobustnessTest, SelfJoinWithAliases) {
  Exec("CREATE TABLE e (id INT, boss INT)");
  Exec("INSERT INTO e VALUES (1, NULL), (2, 1), (3, 1), (4, 2)");
  QueryResult r = Exec(
      "SELECT a.id, b.id FROM e a JOIN e b ON a.boss = b.id ORDER BY a.id");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 2);
  EXPECT_EQ(r.rows[0][1].AsInt64(), 1);
  EXPECT_EQ(r.rows[2][0].AsInt64(), 4);
  EXPECT_EQ(r.rows[2][1].AsInt64(), 2);
}

TEST_F(RobustnessTest, TvfInsideSubquery) {
  QueryResult r = Exec(
      "SELECT total FROM (SELECT COUNT(*) AS total FROM "
      "PivotAlignment(5, 'ACGT', 'IIII')) t");
  EXPECT_EQ(r.rows[0][0].AsInt64(), 4);
}

TEST_F(RobustnessTest, QueryResultToStringRendersTable) {
  Exec("CREATE TABLE t (a INT, b VARCHAR(10))");
  Exec("INSERT INTO t VALUES (1, 'x')");
  QueryResult r = Exec("SELECT a, b FROM t");
  const std::string text = r.ToString();
  EXPECT_NE(text.find("a"), std::string::npos);
  EXPECT_NE(text.find("x"), std::string::npos);
  EXPECT_NE(text.find('-'), std::string::npos);  // header rule
}

TEST_F(RobustnessTest, ErrorMessagesNameTheProblem) {
  Exec("CREATE TABLE t (a INT)");
  Result<QueryResult> r = engine_->Execute("SELECT nope FROM t");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("nope"), std::string::npos);
  r = engine_->Execute("SELECT FROBNICATE(a) FROM t");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("FROBNICATE"), std::string::npos);
}

// Integer overflow is a typed kExecError: never a wrapped result, and never
// a SIGFPE (INT64_MIN / -1 traps in hardware) that takes the process down.
TEST_F(RobustnessTest, IntegerOverflowIsTypedError) {
  Exec("CREATE TABLE t (a BIGINT)");
  Exec("INSERT INTO t VALUES (1)");
  for (const char* sql : {
           "SELECT (0 - 9223372036854775807 - 1) / (0 - 1) FROM t",
           "SELECT (0 - 9223372036854775807 - 1) % (0 - 1) FROM t",
           "SELECT 9223372036854775807 + a FROM t",
           "SELECT (0 - 9223372036854775807) - 2 FROM t",
           "SELECT 4611686018427387904 * 2 FROM t",
           "SELECT -(0 - 9223372036854775807 - 1) FROM t",
       }) {
    Result<QueryResult> r = engine_->Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kExecError) << sql;
    EXPECT_NE(r.status().message().find("arithmetic overflow"),
              std::string::npos)
        << r.status().ToString();
  }
  // In-range arithmetic near the limits still answers.
  QueryResult ok = Exec(
      "SELECT (0 - 9223372036854775807 - 1) / 1, "
      "9223372036854775807 - a, 7 % (0 - 1) FROM t");
  EXPECT_EQ(ok.rows[0][0].AsInt64(), INT64_MIN);
  EXPECT_EQ(ok.rows[0][1].AsInt64(), INT64_MAX - 1);
  EXPECT_EQ(ok.rows[0][2].AsInt64(), 0);
}

TEST_F(RobustnessTest, SumOverflowIsTypedError) {
  Exec("CREATE TABLE t (k INT, v BIGINT)");
  Exec("INSERT INTO t VALUES (1, 9223372036854775807), (1, 1), (2, 5)");
  for (const char* sql : {"SELECT SUM(v) FROM t",
                          "SELECT k, SUM(v) FROM t GROUP BY k"}) {
    Result<QueryResult> r = engine_->Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kExecError) << sql;
    EXPECT_NE(r.status().message().find("arithmetic overflow"),
              std::string::npos);
  }
  QueryResult ok = Exec("SELECT SUM(v) FROM t WHERE k = 2");
  EXPECT_EQ(ok.rows[0][0].AsInt64(), 5);
}

// SUM/AVG over strings is a typed error, not a bad_variant_access abort.
TEST_F(RobustnessTest, NumericAggregateOverStringIsTypedError) {
  Exec("CREATE TABLE t (s VARCHAR(10))");
  Exec("INSERT INTO t VALUES ('x')");
  for (const char* sql : {"SELECT SUM(s) FROM t", "SELECT AVG(s) FROM t"}) {
    Result<QueryResult> r = engine_->Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kExecError) << sql;
  }
}

// Value::Hash agrees with Value::Compare across numeric kinds, so an
// INT = FLOAT hash join finds the rows the equivalent filter finds.
TEST_F(RobustnessTest, IntEqualsFloatHashJoinMatchesFilter) {
  Exec("CREATE TABLE a (x INT)");
  Exec("CREATE TABLE b (y FLOAT)");
  Exec("INSERT INTO a VALUES (1), (2), (0)");
  Exec("INSERT INTO b VALUES (1.0), (2.0), (2.5), (-0.0)");
  QueryResult plan = Exec("EXPLAIN SELECT x, y FROM a JOIN b ON (x = y)");
  EXPECT_NE(plan.ToString().find("Hash Match"), std::string::npos)
      << plan.ToString();
  QueryResult join = Exec("SELECT x FROM a JOIN b ON (x = y) ORDER BY x");
  int64_t filtered = 0;
  for (const char* y : {"1.0", "2.0", "2.5", "-0.0"}) {
    filtered += Exec(std::string("SELECT COUNT(*) FROM a WHERE x = ") + y)
                    .rows[0][0]
                    .AsInt64();
  }
  ASSERT_EQ(static_cast<int64_t>(join.rows.size()), filtered);
  ASSERT_EQ(join.rows.size(), 3u);
  EXPECT_EQ(join.rows[0][0].AsInt64(), 0);
  EXPECT_EQ(join.rows[1][0].AsInt64(), 1);
  EXPECT_EQ(join.rows[2][0].AsInt64(), 2);
}

// COUNT(DISTINCT) dedupes by value, agreeing with GROUP BY.
TEST_F(RobustnessTest, CountDistinctDedupesByValueNotText) {
  Exec("CREATE TABLE t (v FLOAT)");
  Exec("INSERT INTO t VALUES (1.0000001), (1.0000002), (1.0000001)");
  QueryResult distinct = Exec("SELECT COUNT(DISTINCT v) FROM t");
  QueryResult groups =
      Exec("SELECT COUNT(*) FROM (SELECT v FROM t GROUP BY v) g");
  EXPECT_EQ(distinct.rows[0][0].AsInt64(), 2);
  EXPECT_EQ(groups.rows[0][0].AsInt64(), 2);
}

// SELECT DISTINCT dedupes by value, agreeing with COUNT(DISTINCT) and
// GROUP BY: close doubles stay apart, and so do equal-length blobs.
TEST_F(RobustnessTest, SelectDistinctDedupesByValueNotText) {
  Exec("CREATE TABLE t (c FLOAT)");
  Exec("INSERT INTO t VALUES (1.0000001), (1.0000002), (1.0000003), "
       "(1.0000002)");
  QueryResult distinct = Exec("SELECT DISTINCT c FROM t ORDER BY c");
  ASSERT_EQ(distinct.rows.size(), 3u);
  EXPECT_EQ(distinct.rows[0][0].AsDouble(), 1.0000001);
  EXPECT_EQ(distinct.rows[1][0].AsDouble(), 1.0000002);
  EXPECT_EQ(distinct.rows[2][0].AsDouble(), 1.0000003);
  EXPECT_EQ(Exec("SELECT COUNT(DISTINCT c) FROM t").rows[0][0].AsInt64(), 3);
  EXPECT_EQ(Exec("SELECT c FROM t GROUP BY c").rows.size(), 3u);

  Exec("CREATE TABLE b (v VARBINARY(16))");
  Result<catalog::TableDef*> blobs = db_->GetTable("b");
  ASSERT_TRUE(blobs.ok());
  for (const char* bytes : {"ab", "cd", "ab"}) {
    ASSERT_TRUE(db_->InsertRow(*blobs, Row{Value::Blob(bytes)}).ok());
  }
  EXPECT_EQ(Exec("SELECT DISTINCT v FROM b").rows.size(), 2u);
}

}  // namespace
}  // namespace htg::sql
