// Batch execution against an oracle: every query's expected rows are
// computed in C++ from the seeded data, and SQL must return exactly those
// rows under every execution configuration — batch_rows 1/7/1024 × DOP 1
// and DOP 8 (parallel_threshold 1 forces the exchange in) — at 0 rows and
// at row counts straddling the 1024-row batch boundary. Covers scan,
// filter (short-circuit AND guarding a division), Compute Scalar (CASE /
// IS NULL / LIKE), hash and global aggregates, DISTINCT, sort, TOP,
// ROW_NUMBER, inner and left-outer hash joins and CROSS APPLY over the
// PivotAlignment TVF. The DOP 8 cases run under TSan via the concurrency
// ctest label.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "exec/basic_ops.h"
#include "exec/join_ops.h"
#include "genomics/nucleotide.h"
#include "genomics/register.h"
#include "sql/engine.h"
#include "types/row_batch.h"

namespace htg {
namespace {

// ------------------------------------------------------------ RowBatch ---

TEST(RowBatchTest, AppendFillAndCapacity) {
  RowBatch batch(4);
  EXPECT_EQ(batch.capacity(), 4u);
  EXPECT_EQ(batch.num_rows(), 0u);
  EXPECT_FALSE(batch.full());
  for (int i = 0; i < 4; ++i) {
    batch.AppendRow(Row{Value::Int64(i), Value::String("r" +
                                                       std::to_string(i))});
  }
  EXPECT_TRUE(batch.full());
  EXPECT_EQ(batch.num_columns(), 2u);
  EXPECT_EQ(batch.ActiveRows(), 4u);
  Row row;
  batch.FillRowAt(2, &row);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0].AsInt64(), 2);
  EXPECT_EQ(row[1].AsString(), "r2");
}

TEST(RowBatchTest, SelectionNarrowsActiveRows) {
  RowBatch batch(8);
  for (int i = 0; i < 8; ++i) batch.AppendRow(Row{Value::Int64(i)});
  batch.SetSelection({1, 4, 6});
  EXPECT_TRUE(batch.has_selection());
  EXPECT_EQ(batch.ActiveRows(), 3u);
  EXPECT_EQ(batch.ActiveIndex(1), 4u);
  Row row;
  batch.FillRow(2, &row);  // active position 2 -> physical row 6
  EXPECT_EQ(row[0].AsInt64(), 6);
  batch.ClearSelection();
  EXPECT_EQ(batch.ActiveRows(), 8u);
  EXPECT_EQ(batch.selection_data(), nullptr);
}

TEST(RowBatchTest, ClearKeepsShapeAndReshapesOnNewArity) {
  RowBatch batch(4);
  batch.AppendRow(Row{Value::Int64(1), Value::Int64(2)});
  batch.Clear();
  EXPECT_EQ(batch.num_rows(), 0u);
  EXPECT_EQ(batch.num_columns(), 2u);  // shape survives Clear()
  // A recycled batch fed by a producer of different arity must reshape,
  // not silently pad or truncate.
  batch.AppendRow(Row{Value::Int64(7), Value::Int64(8), Value::Int64(9)});
  EXPECT_EQ(batch.num_columns(), 3u);
  Row row;
  batch.FillRowAt(0, &row);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[2].AsInt64(), 9);
}

// ---------------------------------------------------------- seeded data ---

// t(a BIGINT, b VARCHAR(20), c FLOAT): every 7th b and every 11th c is
// NULL, and a == 0 appears (the short-circuit division guard needs it).
std::vector<Row> MakeT(int n) {
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) {
    Row row;
    row.push_back(Value::Int64(i % 97));
    if (i % 7 == 3) {
      row.push_back(Value::Null());
    } else {
      row.push_back(Value::String((i % 3 != 0 ? "ACGT" : "TTNA") +
                                  std::to_string(i % 53)));
    }
    if (i % 11 == 5) {
      row.push_back(Value::Null());
    } else {
      row.push_back(Value::Double(i * 0.5));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

// u(k BIGINT, w VARCHAR(10)): keys 0..59, twenty of them twice, one NULL
// key; t.a values 60..96 have no match.
std::vector<Row> MakeU() {
  std::vector<Row> rows;
  for (int j = 0; j <= 80; ++j) {
    rows.push_back(Row{j == 80 ? Value::Null() : Value::Int64(j % 60),
                       Value::String("w" + std::to_string(j))});
  }
  return rows;
}

// aligned(pos BIGINT, seq VARCHAR(10), quals VARCHAR(10)): reads of 1-5
// bases, quality strings shorter than their read, NULL seqs and quals.
std::vector<Row> MakeAligned(int n) {
  static const char* const kSeqs[] = {"ACG", "TTAGC", "G", "NNAT"};
  static const char* const kQuals[] = {"I#5", "IIIII", "5", "#"};
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back(Row{
        Value::Int64(i * 2),
        i % 5 == 4 ? Value::Null() : Value::String(kSeqs[i % 4]),
        i % 6 == 1 ? Value::Null() : Value::String(kQuals[(i / 4) % 4])});
  }
  return rows;
}

// ------------------------------------------------------------- oracle ---

bool Null(const Value& v) { return v.is_null(); }

using Rows = std::vector<Row>;

struct Data {
  Rows t;
  Rows u;
  Rows aligned;
};

// (a, COUNT(*)) per group of t, ranked by COUNT(*) DESC, a.
Rows RankedGroups(const Data& d) {
  std::map<int64_t, int64_t> counts;
  for (const Row& r : d.t) ++counts[r[0].AsInt64()];
  std::vector<std::pair<int64_t, int64_t>> groups(counts.begin(),
                                                  counts.end());
  std::stable_sort(groups.begin(), groups.end(),
                   [](const auto& x, const auto& y) {
                     return x.second > y.second;
                   });
  Rows out;
  for (size_t i = 0; i < groups.size(); ++i) {
    out.push_back(Row{Value::Int64(static_cast<int64_t>(i + 1)),
                      Value::Int64(groups[i].second),
                      Value::Int64(groups[i].first)});
  }
  return out;
}

struct OracleQuery {
  const char* sql;
  std::function<Rows(const Data&)> expect;
  // ORDER BY output: the column that must be monotone (-1 = unordered)
  // and its direction. Rows equal on it may come in any order.
  int order_col = -1;
  bool descending = false;
};

const std::vector<OracleQuery>& Queries() {
  static const std::vector<OracleQuery>* queries = new std::vector<
      OracleQuery>{
      {"SELECT a, b, c FROM t WHERE a >= 40 AND a < 80",
       [](const Data& d) {
         Rows out;
         for (const Row& r : d.t) {
           if (r[0].AsInt64() >= 40 && r[0].AsInt64() < 80) out.push_back(r);
         }
         return out;
       }},
      {"SELECT a, CASE WHEN c IS NULL THEN 'nul' WHEN a < 10 "
       "THEN 'small' ELSE 'big' END FROM t",
       [](const Data& d) {
         Rows out;
         for (const Row& r : d.t) {
           const char* label = Null(r[2])             ? "nul"
                               : r[0].AsInt64() < 10 ? "small"
                                                     : "big";
           out.push_back(Row{r[0], Value::String(label)});
         }
         return out;
       }},
      {"SELECT b FROM t WHERE b LIKE 'ACGT%'",
       [](const Data& d) {
         Rows out;
         for (const Row& r : d.t) {
           if (!Null(r[1]) && r[1].AsString().rfind("ACGT", 0) == 0) {
             out.push_back(Row{r[1]});
           }
         }
         return out;
       }},
      {"SELECT a, c FROM t WHERE b IS NULL",
       [](const Data& d) {
         Rows out;
         for (const Row& r : d.t) {
           if (Null(r[1])) out.push_back(Row{r[0], r[2]});
         }
         return out;
       }},
      // AND must not evaluate the division for a == 0 rows.
      {"SELECT a FROM t WHERE a <> 0 AND 100 / a > 1",
       [](const Data& d) {
         Rows out;
         for (const Row& r : d.t) {
           const int64_t a = r[0].AsInt64();
           if (a != 0 && 100 / a > 1) out.push_back(Row{r[0]});
         }
         return out;
       }},
      {"SELECT a, COUNT(*), SUM(c) FROM t GROUP BY a",
       [](const Data& d) {
         // c values are multiples of 0.5, so sums are exact in any order.
         std::map<int64_t, std::pair<int64_t, Value>> groups;
         for (const Row& r : d.t) {
           auto& [count, sum] = groups[r[0].AsInt64()];
           ++count;
           if (Null(r[2])) continue;
           sum = Null(sum) ? r[2]
                           : Value::Double(sum.AsDouble() + r[2].AsDouble());
         }
         Rows out;
         for (const auto& [a, g] : groups) {
           out.push_back(Row{Value::Int64(a), Value::Int64(g.first),
                             g.second});
         }
         return out;
       }},
      {"SELECT COUNT(*), SUM(a), MIN(b), MAX(c) FROM t",
       [](const Data& d) {
         Value sum, min_b, max_c;
         for (const Row& r : d.t) {
           sum = Value::Int64((Null(sum) ? 0 : sum.AsInt64()) +
                              r[0].AsInt64());
           if (!Null(r[1]) && (Null(min_b) || r[1] < min_b)) min_b = r[1];
           if (!Null(r[2]) && (Null(max_c) || max_c < r[2])) max_c = r[2];
         }
         return Rows{Row{Value::Int64(static_cast<int64_t>(d.t.size())), sum,
                         min_b, max_c}};
       }},
      {"SELECT DISTINCT a FROM t",
       [](const Data& d) {
         std::set<int64_t> seen;
         for (const Row& r : d.t) seen.insert(r[0].AsInt64());
         Rows out;
         for (int64_t a : seen) out.push_back(Row{Value::Int64(a)});
         return out;
       }},
      {"SELECT a, b, c FROM t ORDER BY a", [](const Data& d) { return d.t; },
       /*order_col=*/0},
      // ROW_NUMBER sorts the filtered batches themselves (selection
      // vectors); c is unique, so the ranking is deterministic.
      {"SELECT ROW_NUMBER() OVER (ORDER BY c DESC) AS rn, a, c FROM t "
       "WHERE c > 100",
       [](const Data& d) {
         Rows kept;
         for (const Row& r : d.t) {
           if (!Null(r[2]) && r[2].AsDouble() > 100) kept.push_back(r);
         }
         std::sort(kept.begin(), kept.end(), [](const Row& x, const Row& y) {
           return x[2].AsDouble() > y[2].AsDouble();
         });
         Rows out;
         for (size_t i = 0; i < kept.size(); ++i) {
           out.push_back(Row{Value::Int64(static_cast<int64_t>(i + 1)),
                             kept[i][0], kept[i][2]});
         }
         return out;
       }},
      // A join whose probe side arrives filtered.
      {"SELECT t.a, u.w FROM t JOIN u ON t.a = u.k WHERE t.b IS NULL",
       [](const Data& d) {
         Rows out;
         for (const Row& r : d.t) {
           if (!Null(r[1])) continue;
           for (const Row& s : d.u) {
             if (!Null(s[0]) && s[0].AsInt64() == r[0].AsInt64()) {
               out.push_back(Row{r[0], s[1]});
             }
           }
         }
         return out;
       }},
      // Exactly ten rows hold the largest a (96) at every seeded size
      // above 1000, so the TOP 10 set has no ties at its boundary.
      {"SELECT TOP 10 a, b, c FROM t ORDER BY a DESC",
       [](const Data& d) {
         Rows sorted = d.t;
         std::stable_sort(sorted.begin(), sorted.end(),
                          [](const Row& x, const Row& y) {
                            return x[0].AsInt64() > y[0].AsInt64();
                          });
         if (sorted.size() > 10) sorted.resize(10);
         return sorted;
       },
       /*order_col=*/0, /*descending=*/true},
      {"SELECT ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC, a) AS rank, "
       "COUNT(*) AS freq, a FROM t GROUP BY a",
       RankedGroups},
      {"SELECT TOP 5 ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC, a) AS rank, "
       "COUNT(*) AS freq, a FROM t GROUP BY a ORDER BY rank",
       [](const Data& d) {
         Rows ranked = RankedGroups(d);
         if (ranked.size() > 5) ranked.resize(5);
         return ranked;
       },
       /*order_col=*/0},
      {"SELECT t.a, t.c, u.w FROM t JOIN u ON t.a = u.k",
       [](const Data& d) {
         Rows out;
         for (const Row& r : d.t) {
           for (const Row& s : d.u) {
             if (!Null(s[0]) && s[0].AsInt64() == r[0].AsInt64()) {
               out.push_back(Row{r[0], r[2], s[1]});
             }
           }
         }
         return out;
       }},
      {"SELECT t.a, u.w FROM t LEFT JOIN u ON t.a = u.k",
       [](const Data& d) {
         Rows out;
         for (const Row& r : d.t) {
           bool matched = false;
           for (const Row& s : d.u) {
             if (!Null(s[0]) && s[0].AsInt64() == r[0].AsInt64()) {
               out.push_back(Row{r[0], s[1]});
               matched = true;
             }
           }
           if (!matched) out.push_back(Row{r[0], Value::Null()});
         }
         return out;
       }},
      {"SELECT aligned.pos, pa.pos AS ref_pos, base, qual FROM aligned "
       "CROSS APPLY PivotAlignment(aligned.pos, seq, quals) AS pa",
       [](const Data& d) {
         Rows out;
         for (const Row& r : d.aligned) {
           if (Null(r[1])) continue;
           const std::string& seq = r[1].AsString();
           const std::string quals = Null(r[2]) ? "" : r[2].AsString();
           for (size_t j = 0; j < seq.size(); ++j) {
             out.push_back(Row{
                 r[0], Value::Int64(r[0].AsInt64() + static_cast<int64_t>(j)),
                 Value::String(std::string(1, seq[j])),
                 Value::Int32(j < quals.size()
                                  ? genomics::CharToPhred(quals[j])
                                  : 0)});
           }
         }
         return out;
       }},
      {"SELECT pa.pos, base FROM aligned CROSS APPLY "
       "PivotAlignment(aligned.pos, seq, quals) AS pa WHERE qual >= 20",
       [](const Data& d) {
         Rows out;
         for (const Row& r : d.aligned) {
           if (Null(r[1])) continue;
           const std::string& seq = r[1].AsString();
           const std::string quals = Null(r[2]) ? "" : r[2].AsString();
           for (size_t j = 0; j < seq.size(); ++j) {
             if (j >= quals.size() || genomics::CharToPhred(quals[j]) < 20) {
               continue;
             }
             out.push_back(Row{
                 Value::Int64(r[0].AsInt64() + static_cast<int64_t>(j)),
                 Value::String(std::string(1, seq[j]))});
           }
         }
         return out;
       }},
  };
  return *queries;
}

std::string Render(const Rows& rows) {
  std::string out;
  for (const Row& row : rows) {
    for (const Value& v : row) {
      out += v.is_null() ? "<null>" : v.ToString();
      out += '|';
    }
    out += '\n';
  }
  return out;
}

// Multiset equality under Value::Compare (numeric kinds compare by value,
// so an INT oracle value matches a BIGINT result).
bool SameRows(Rows want, Rows have) {
  if (want.size() != have.size()) return false;
  std::sort(want.begin(), want.end());
  std::sort(have.begin(), have.end());
  for (size_t i = 0; i < want.size(); ++i) {
    if (want[i].size() != have[i].size()) return false;
    for (size_t c = 0; c < want[i].size(); ++c) {
      if (want[i][c].Compare(have[i][c]) != 0) return false;
    }
  }
  return true;
}

bool Monotone(const Rows& rows, int col, bool descending) {
  for (size_t i = 1; i < rows.size(); ++i) {
    const int cmp = rows[i - 1][col].Compare(rows[i][col]);
    if (descending ? cmp < 0 : cmp > 0) return false;
  }
  return true;
}

// --------------------------------------------------------- fixtures ---

class BatchExecTest : public ::testing::Test {
 protected:
  struct Instance {
    std::unique_ptr<Database> db;
    std::unique_ptr<sql::SqlEngine> engine;
  };

  static Instance Make(size_t batch_rows, int max_dop = 0,
                       uint64_t parallel_threshold = 0) {
    static int counter = 0;
    DatabaseOptions options;
    options.batch_rows = batch_rows;
    if (max_dop > 0) options.max_dop = max_dop;
    if (parallel_threshold > 0) options.parallel_threshold = parallel_threshold;
    options.filestream_root =
        "/tmp/htg_batch_exec_test_" + std::to_string(counter++);
    auto db = Database::Open("batchtest", options);
    EXPECT_TRUE(db.ok());
    Instance in;
    in.db = std::move(*db);
    EXPECT_TRUE(in.db->filestream()->Clear().ok());
    EXPECT_TRUE(genomics::RegisterGenomicsExtensions(in.db.get()).ok());
    in.engine = std::make_unique<sql::SqlEngine>(in.db.get());
    return in;
  }

  static sql::QueryResult Exec(Instance& in, const std::string& query) {
    Result<sql::QueryResult> result = in.engine->Execute(query);
    EXPECT_TRUE(result.ok())
        << query << "\n--> " << result.status().ToString();
    return result.ok() ? std::move(*result) : sql::QueryResult{};
  }

  static void Load(Instance& in, const std::string& ddl,
                   const std::string& table, const Rows& rows) {
    Exec(in, ddl);
    auto def = in.db->GetTable(table);
    ASSERT_TRUE(def.ok());
    for (const Row& row : rows) {
      ASSERT_TRUE(in.db->InsertRow(*def, row).ok());
    }
  }

  static void SeedT(Instance& in, int n) {
    Load(in, "CREATE TABLE t (a BIGINT, b VARCHAR(20), c FLOAT)", "t",
         MakeT(n));
  }
};

// batch_rows × DOP × seeded row count.
class BatchOracleTest
    : public BatchExecTest,
      public ::testing::WithParamInterface<std::tuple<size_t, int, int>> {};

TEST_P(BatchOracleTest, EveryQueryMatchesOracle) {
  const auto [batch_rows, dop, n] = GetParam();
  Instance in = dop > 1 ? Make(batch_rows, dop, /*parallel_threshold=*/1)
                        : Make(batch_rows, /*max_dop=*/1);
  Data data{MakeT(n), MakeU(), MakeAligned(n)};
  SeedT(in, n);
  Load(in, "CREATE TABLE u (k BIGINT, w VARCHAR(10))", "u", data.u);
  Load(in,
       "CREATE TABLE aligned (pos BIGINT, seq VARCHAR(10), "
       "quals VARCHAR(10))",
       "aligned", data.aligned);
  if (dop > 1 && n > 0) {
    // The DOP 8 configuration really runs the exchange operators.
    const std::string plan =
        Exec(in, "EXPLAIN SELECT a, COUNT(*), SUM(c) FROM t GROUP BY a")
            .message;
    EXPECT_NE(plan.find("Parallelism"), std::string::npos) << plan;
  }
  for (const OracleQuery& q : Queries()) {
    const Rows want = q.expect(data);
    const Rows have = Exec(in, q.sql).rows;
    EXPECT_TRUE(SameRows(want, have))
        << q.sql << "\nwant " << want.size() << " rows:\n"
        << Render(want) << "have " << have.size() << " rows:\n"
        << Render(have);
    if (q.order_col >= 0) {
      EXPECT_TRUE(Monotone(have, q.order_col, q.descending))
          << q.sql << "\n" << Render(have);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, BatchOracleTest,
    ::testing::Combine(::testing::Values<size_t>(1, 7, 1024),
                       ::testing::Values(1, 8),
                       ::testing::Values(0, 1023, 1024, 1025)),
    [](const ::testing::TestParamInfo<std::tuple<size_t, int, int>>& info) {
      return "batch" + std::to_string(std::get<0>(info.param)) + "_dop" +
             std::to_string(std::get<1>(info.param)) + "_rows" +
             std::to_string(std::get<2>(info.param));
    });

TEST_F(BatchExecTest, HashJoinProbesFilteredBatches) {
  // SQL puts a Compute Scalar or the WHERE filter above a join, so only an
  // operator tree feeds the probe side a batch with a selection vector.
  const int n = 1500;
  const Data data{MakeT(n), MakeU(), {}};
  Rows want;
  for (const Row& r : data.t) {
    if (!Null(r[1])) continue;
    for (const Row& s : data.u) {
      if (!Null(s[0]) && s[0].AsInt64() == r[0].AsInt64()) {
        want.push_back(Row{r[0], r[1], r[2], s[0], s[1]});
      }
    }
  }
  for (size_t batch_rows : {size_t{1}, size_t{7}, size_t{1024}}) {
    Instance in = Make(batch_rows, /*max_dop=*/1);
    SeedT(in, n);
    Load(in, "CREATE TABLE u (k BIGINT, w VARCHAR(10))", "u", data.u);
    auto col = [](int i, const char* name) {
      return std::make_unique<exec::ColumnRefExpr>(i, name, DataType::kInt64);
    };
    std::vector<exec::ExprPtr> left_keys, right_keys;
    left_keys.push_back(col(0, "a"));
    right_keys.push_back(col(0, "k"));
    exec::OperatorPtr plan = std::make_unique<exec::HashJoinOp>(
        std::make_unique<exec::FilterOp>(
            std::make_unique<exec::TableScanOp>(*in.db->GetTable("t")),
            std::make_unique<exec::IsNullExpr>(
                std::make_unique<exec::ColumnRefExpr>(1, "b",
                                                      DataType::kString),
                /*negated=*/false)),
        std::make_unique<exec::TableScanOp>(*in.db->GetTable("u")),
        std::move(left_keys), std::move(right_keys));
    exec::ExecContext ctx = exec::ExecContext::For(in.db.get());
    auto iter = plan->Open(&ctx);
    ASSERT_TRUE(iter.ok()) << iter.status().ToString();
    Rows have;
    ASSERT_TRUE(exec::DrainIterator(iter->get(), &have).ok());
    EXPECT_TRUE(SameRows(want, have))
        << "batch_rows=" << batch_rows << "\nwant:\n"
        << Render(want) << "have:\n" << Render(have);
  }
}

TEST_F(BatchExecTest, ExplainAnalyzeReportsBatchSizes) {
  Instance in = Make(1024);
  SeedT(in, 4000);
  Result<sql::QueryResult> result =
      in.engine->Execute("EXPLAIN ANALYZE SELECT a, b, c FROM t "
                         "WHERE a >= 0");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string& plan = result->message;
  const size_t pos = plan.find("rows/batch=");
  ASSERT_NE(pos, std::string::npos) << plan;
  // 4000 rows in 1024-row batches: every batched operator should be
  // moving far more than 256 rows per pull.
  const double rows_per_batch =
      std::strtod(plan.c_str() + pos + std::string("rows/batch=").size(),
                  nullptr);
  EXPECT_GT(rows_per_batch, 256.0) << plan;
}

TEST_F(BatchExecTest, UdfSeamStillCountsPerRowCalls) {
  // Vectorization must stop at the scalar-UDF boundary: CHARINDEX over n
  // rows is n individual udf.scalar.calls ticks (NULL inputs propagate
  // without a call), not one vectorized invocation.
  const int n = 1000;
  Instance in = Make(1024);
  SeedT(in, n);
  uint64_t expected_calls = 0;
  for (int i = 0; i < n; ++i) {
    if (i % 7 != 3) ++expected_calls;  // NULL b rows never reach the UDF
  }
  obs::Counter* calls = HTG_METRIC_COUNTER("udf.scalar.calls");
  const uint64_t before = calls->Value();
  Exec(in, "SELECT CHARINDEX('N', b) FROM t");
  EXPECT_EQ(calls->Value() - before, expected_calls);
}

TEST_F(BatchExecTest, RowReaderCountsRowsCrossingIntoRowForm) {
  // A hash join reads both inputs one row at a time: every build and
  // probe row crosses from batches into row form exactly once, and
  // exec.batch.fillrow_rows counts each of them.
  const int n = 1500;
  Instance in = Make(1024, /*max_dop=*/1);
  SeedT(in, n);
  Load(in, "CREATE TABLE u (k BIGINT, w VARCHAR(10))", "u", MakeU());
  obs::Counter* fillrow = HTG_METRIC_COUNTER("exec.batch.fillrow_rows");
  const uint64_t before = fillrow->Value();
  Exec(in, "SELECT t.a, u.w FROM t JOIN u ON t.a = u.k");
  EXPECT_EQ(fillrow->Value() - before,
            static_cast<uint64_t>(n) + MakeU().size());
}

}  // namespace
}  // namespace htg
