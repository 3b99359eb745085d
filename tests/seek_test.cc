// Clustered Index Seek against a C++ oracle. Random clustered tables with
// 1-3 key columns (a nullable key column holding NULLs, heavy duplicate
// keys) are queried with random key-range WHERE clauses in every
// comparison form; each result must equal the oracle's, come back in key
// order, and the plan must seek exactly when the predicates allow it.
// MVCC cases check that a seek sees exactly its snapshot.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "sql/engine.h"

namespace htg::sql {
namespace {

constexpr int kRows = 3000;
constexpr int64_t kK0Values = 4;   // ~750 rows per value: many refills
constexpr int64_t kK1Values = 30;  // plus NULLs
const char* const kK2Values[] = {"a", "b", "c", "d", "e"};

bool Holds(exec::BinaryOp op, int cmp) {
  switch (op) {
    case exec::BinaryOp::kEq:
      return cmp == 0;
    case exec::BinaryOp::kNe:
      return cmp != 0;
    case exec::BinaryOp::kLt:
      return cmp < 0;
    case exec::BinaryOp::kLe:
      return cmp <= 0;
    case exec::BinaryOp::kGt:
      return cmp > 0;
    case exec::BinaryOp::kGe:
      return cmp >= 0;
    default:
      return false;
  }
}

const char* OpText(exec::BinaryOp op) {
  switch (op) {
    case exec::BinaryOp::kEq:
      return "=";
    case exec::BinaryOp::kLt:
      return "<";
    case exec::BinaryOp::kLe:
      return "<=";
    case exec::BinaryOp::kGt:
      return ">";
    case exec::BinaryOp::kGe:
      return ">=";
    default:
      return "?";
  }
}

exec::BinaryOp Mirrored(exec::BinaryOp op) {
  switch (op) {
    case exec::BinaryOp::kLt:
      return exec::BinaryOp::kGt;
    case exec::BinaryOp::kLe:
      return exec::BinaryOp::kGe;
    case exec::BinaryOp::kGt:
      return exec::BinaryOp::kLt;
    case exec::BinaryOp::kGe:
      return exec::BinaryOp::kLe;
    default:
      return op;
  }
}

// One generated query: SQL text, the oracle's row test, and whether the
// planner must seek.
struct Query {
  std::string where;
  std::function<bool(const Row&)> matches;
  bool seek = false;
};

class SeekOracleTest
    : public ::testing::TestWithParam<std::tuple<int, size_t>> {
 protected:
  void SetUp() override {
    static int counter = 0;
    nkeys_ = std::get<0>(GetParam());
    DatabaseOptions options;
    options.filestream_root = "/tmp/htg_seek_test_" + std::to_string(counter++);
    options.batch_rows = std::get<1>(GetParam());
    auto db = Database::Open("seektest", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    ASSERT_TRUE(db_->filestream()->Clear().ok());
    engine_ = std::make_unique<SqlEngine>(db_.get());

    std::string key = "k0";
    for (int i = 1; i < nkeys_; ++i) key += ", k" + std::to_string(i);
    Exec("CREATE TABLE T (k0 BIGINT NOT NULL, k1 INT, k2 VARCHAR(8), "
         "v BIGINT NOT NULL) CLUSTER BY (" + key + ")");
    auto table = db_->GetTable("T");
    ASSERT_TRUE(table.ok());
    Random rng(static_cast<uint64_t>(nkeys_) * 7919 + options.batch_rows);
    for (int i = 0; i < kRows; ++i) {
      Row row{Value::Int64(static_cast<int64_t>(rng.Uniform(kK0Values))),
              rng.Uniform(10) == 0
                  ? Value::Null()
                  : Value::Int32(static_cast<int32_t>(rng.Uniform(kK1Values))),
              Value::String(kK2Values[rng.Uniform(5)]), Value::Int64(i)};
      rows_.push_back(row);
      ASSERT_TRUE(db_->InsertRow(*table, std::move(row)).ok());
    }
  }

  QueryResult Exec(const std::string& sql) {
    Result<QueryResult> result = engine_->Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << "\n--> " << result.status().ToString();
    return result.ok() ? std::move(*result) : QueryResult{};
  }

  // Runs the query; checks its rows against the oracle, its key order and
  // its plan.
  void Check(const Query& q) {
    const std::string sql = "SELECT k0, k1, k2, v FROM T WHERE " + q.where;
    SCOPED_TRACE(sql);
    Result<std::string> plan = engine_->Explain(sql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_NE(plan->find(q.seek ? "Clustered Index Seek"
                                : "Clustered Index Scan"),
              std::string::npos)
        << *plan;
    const QueryResult got = Exec(sql);
    std::vector<int> key_cols;
    for (int i = 0; i < nkeys_; ++i) key_cols.push_back(i);
    for (size_t i = 1; i < got.rows.size(); ++i) {
      ASSERT_LE(CompareRowsOn(got.rows[i - 1], got.rows[i], key_cols), 0)
          << "rows out of key order at " << i;
    }
    std::vector<int64_t> got_ids;
    for (const Row& row : got.rows) got_ids.push_back(row[3].AsInt64());
    std::vector<int64_t> want_ids;
    for (const Row& row : rows_) {
      if (q.matches(row)) want_ids.push_back(row[3].AsInt64());
    }
    std::sort(got_ids.begin(), got_ids.end());
    EXPECT_EQ(got_ids, want_ids);
  }

  // A constant of key column `col` (sometimes just outside its domain),
  // as a Value and as SQL text in a randomly chosen foldable spelling.
  std::pair<Value, std::string> Constant(int col, Random* rng) {
    if (col == 2) {
      const char* const values[] = {"", "a", "b", "bb", "c", "d", "e", "f"};
      const std::string s = values[rng->Uniform(8)];
      return {Value::String(s), "'" + s + "'"};
    }
    const int64_t domain = col == 0 ? kK0Values : kK1Values;
    const int64_t v =
        static_cast<int64_t>(rng->Uniform(static_cast<uint64_t>(domain) + 2)) -
        1;
    std::string text = std::to_string(v);
    switch (rng->Uniform(4)) {
      case 0:
        text = std::to_string(v + 3) + " - 3";
        break;
      case 1:
        text = "-(" + std::to_string(-v) + ")";
        break;
      default:
        break;
    }
    return {Value::Int64(v), text};
  }

  // `col op k`, with the constant on a random side.
  void AddCompare(int col, exec::BinaryOp op, Random* rng,
                  std::vector<std::string>* terms,
                  std::vector<std::function<bool(const Row&)>>* preds) {
    auto [value, text] = Constant(col, rng);
    const std::string name = "k" + std::to_string(col);
    if (rng->Uniform(2) == 0) {
      terms->push_back(name + " " + OpText(op) + " " + text);
    } else {
      terms->push_back(text + " " + OpText(Mirrored(op)) + " " + name);
    }
    preds->push_back([col, op, value = value](const Row& row) {
      return !row[col].is_null() && Holds(op, row[col].Compare(value));
    });
  }

  Query RandomQuery(Random* rng) {
    std::vector<std::string> terms;
    std::vector<std::function<bool(const Row&)>> preds;
    const int eqs = static_cast<int>(rng->Uniform(nkeys_ + 1));
    for (int c = 0; c < eqs; ++c) {
      AddCompare(c, exec::BinaryOp::kEq, rng, &terms, &preds);
    }
    bool range = false;
    if (eqs < nkeys_ && rng->Uniform(5) != 0) {
      range = true;
      const exec::BinaryOp lows[] = {exec::BinaryOp::kGt,
                                     exec::BinaryOp::kGe};
      const exec::BinaryOp highs[] = {exec::BinaryOp::kLt,
                                      exec::BinaryOp::kLe};
      switch (rng->Uniform(5)) {
        case 0:  // lower bound only
          AddCompare(eqs, lows[rng->Uniform(2)], rng, &terms, &preds);
          break;
        case 1:  // upper bound only
          AddCompare(eqs, highs[rng->Uniform(2)], rng, &terms, &preds);
          break;
        case 2: {  // BETWEEN
          auto [lo, lo_text] = Constant(eqs, rng);
          auto [hi, hi_text] = Constant(eqs, rng);
          const int col = eqs;
          terms.push_back("k" + std::to_string(col) + " BETWEEN " + lo_text +
                          " AND " + hi_text);
          preds.push_back([col, lo = lo, hi = hi](const Row& row) {
            return !row[col].is_null() && row[col].Compare(lo) >= 0 &&
                   row[col].Compare(hi) <= 0;
          });
          break;
        }
        default:  // stacked bounds, often contradictory
          for (int i = 0; i < 2; ++i) {
            AddCompare(eqs, lows[rng->Uniform(2)], rng, &terms, &preds);
            AddCompare(eqs, highs[rng->Uniform(2)], rng, &terms, &preds);
          }
          break;
      }
    }
    // A residual predicate the seek cannot use.
    if (rng->Uniform(3) == 0 || terms.empty()) {
      terms.push_back("v % 3 = 1");
      preds.push_back(
          [](const Row& row) { return row[3].AsInt64() % 3 == 1; });
    }
    Query q;
    for (size_t i = 0; i < terms.size(); ++i) {
      q.where += (i > 0 ? " AND " : "") + terms[i];
    }
    q.matches = [preds](const Row& row) {
      return std::all_of(preds.begin(), preds.end(),
                         [&](const auto& p) { return p(row); });
    };
    q.seek = eqs > 0 || range;
    return q;
  }

  int nkeys_ = 1;
  std::vector<Row> rows_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<SqlEngine> engine_;
};

TEST_P(SeekOracleTest, RandomRangesMatchOracle) {
  Random rng(static_cast<uint64_t>(nkeys_) * 104729 +
             std::get<1>(GetParam()));
  for (int i = 0; i < 60; ++i) {
    Check(RandomQuery(&rng));
    if (HasFatalFailure()) return;
  }
}

// Ranges whose ends straddle the 256-row refill and batch boundaries,
// and empty ranges (contradictory bounds).
TEST_P(SeekOracleTest, FixedRangesMatchOracle) {
  auto k0_range = [](int64_t lo, int64_t hi) {
    return [lo, hi](const Row& row) {
      return row[0].AsInt64() >= lo && row[0].AsInt64() < hi;
    };
  };
  Check({"k0 >= 1 AND k0 < 3", k0_range(1, 3), true});
  Check({"k0 > 0", k0_range(1, kK0Values), true});
  Check({"k0 <= 0", k0_range(0, 1), true});
  Check({"k0 > 2 AND k0 < 2", k0_range(0, 0), true});
  Check({"k0 BETWEEN 3 AND 1", k0_range(0, 0), true});
  Check({"k0 = 2 AND k0 = 3", k0_range(0, 0), true});
}

// Forms the planner must leave to the full scan; the answers still match.
TEST_P(SeekOracleTest, NonSargableFormsScan) {
  auto k0_in = [](std::vector<int64_t> keep) {
    return [keep](const Row& row) {
      return std::find(keep.begin(), keep.end(), row[0].AsInt64()) !=
             keep.end();
    };
  };
  Check({"k0 = 1 OR k0 = 2", k0_in({1, 2}), false});
  Check({"k0 IN (0, 3)", k0_in({0, 3}), false});
  Check({"k0 <> 2", k0_in({0, 1, 3}), false});
  Check({"k0 >= 1.5", k0_in({2, 3}), false});
  Check({"k0 = NULL", k0_in({}), false});
  Check({"k0 > NULL", k0_in({}), false});
  Check({"NOT (k0 BETWEEN 1 AND 2)", k0_in({0, 3}), false});
  Check({"k0 + 0 = 1", k0_in({1}), false});
  Check({"v = k0", [](const Row& row) { return row[3] == row[0]; }, false});
  if (nkeys_ >= 2) {
    Check({"k1 = 3",
           [](const Row& row) {
             return !row[1].is_null() && row[1].AsInt64() == 3;
           },
           false});
  }
}

INSTANTIATE_TEST_SUITE_P(
    KeysAndBatches, SeekOracleTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(size_t{1}, size_t{7},
                                         size_t{1024})));

// ------------------------------------------------------------------ MVCC

// (g, p) keys, every p twice, so a range spans several 256-row refills
// and the writers' inserts land between existing duplicates.
class SeekMvccTest : public ::testing::Test {
 protected:
  static constexpr char kRange[] = "g = 1 AND p >= 100 AND p < 400";

  void SetUp() override {
    static int counter = 0;
    DatabaseOptions options;
    options.filestream_root =
        "/tmp/htg_seek_mvcc_test_" + std::to_string(counter++);
    options.batch_rows = 7;
    options.mvcc_gc_every = 0;  // sweeps only where a test asks
    auto db = Database::Open("seekmvcc", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    ASSERT_TRUE(db_->filestream()->Clear().ok());
    engine_ = std::make_unique<SqlEngine>(db_.get());
    Exec("CREATE TABLE A (g BIGINT NOT NULL, p BIGINT NOT NULL, v BIGINT) "
         "CLUSTER BY (g, p)");
    auto table = db_->GetTable("A");
    ASSERT_TRUE(table.ok());
    for (int64_t g = 0; g < 3; ++g) {
      for (int64_t p = 0; p < 1000; ++p) {
        for (int dup = 0; dup < 2; ++dup) {
          ASSERT_TRUE(db_->InsertRow(*table, Row{Value::Int64(g),
                                                 Value::Int64(p),
                                                 Value::Int64(0)})
                          .ok());
        }
      }
    }
  }

  QueryResult Exec(const std::string& sql, TxnContext* txn = nullptr) {
    StatementOptions opts;
    opts.txn = txn;
    Result<QueryResult> r = engine_->Execute(sql, opts);
    EXPECT_TRUE(r.ok()) << sql << "\n--> " << r.status().ToString();
    return r.ok() ? std::move(*r) : QueryResult{};
  }

  // (p, v) of the range's rows, in the order the seek returned them.
  std::vector<std::pair<int64_t, int64_t>> Range(TxnContext* txn = nullptr) {
    std::vector<std::pair<int64_t, int64_t>> out;
    for (const Row& row :
         Exec(std::string("SELECT p, v FROM A WHERE ") + kRange, txn).rows) {
      out.emplace_back(row[0].AsInt64(), row[1].AsInt64());
    }
    return out;
  }

  // The committed base rows of the range.
  static std::vector<std::pair<int64_t, int64_t>> Base() {
    std::vector<std::pair<int64_t, int64_t>> out;
    for (int64_t p = 100; p < 400; ++p) {
      out.emplace_back(p, 0);
      out.emplace_back(p, 0);
    }
    return out;
  }

  // Rows inserted by transaction `tag`: in-range keys between existing
  // duplicates and at both ends, plus keys just outside the range.
  static std::string InsertSql(int64_t tag) {
    std::string sql = "INSERT INTO A VALUES ";
    const int64_t ps[] = {99, 100, 150, 256, 257, 399, 400};
    for (size_t i = 0; i < std::size(ps); ++i) {
      sql += (i > 0 ? ", (1, " : "(1, ") + std::to_string(ps[i]) + ", " +
             std::to_string(tag) + ")";
    }
    return sql;
  }

  static std::vector<std::pair<int64_t, int64_t>> With(
      std::vector<std::pair<int64_t, int64_t>> rows, int64_t tag) {
    for (int64_t p : {100, 150, 256, 257, 399}) rows.emplace_back(p, tag);
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  static std::vector<std::pair<int64_t, int64_t>> Sorted(
      std::vector<std::pair<int64_t, int64_t>> rows) {
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<SqlEngine> engine_;
};

TEST_F(SeekMvccTest, PlanSeeks) {
  Result<std::string> plan =
      engine_->Explain(std::string("SELECT p, v FROM A WHERE ") + kRange);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("Clustered Index Seek [A] (g = 1 AND p >= 100 AND "
                       "p < 400)"),
            std::string::npos)
      << *plan;
}

TEST_F(SeekMvccTest, SnapshotHidesOpenWritersInsertsAndWriterSeesOwn) {
  auto reader = engine_->BeginTxn();
  auto writer = engine_->BeginTxn();
  Exec(InsertSql(7), writer.get());
  // Other snapshots: only the base rows, in key order.
  EXPECT_EQ(Range(), Base());
  EXPECT_EQ(Range(reader.get()), Base());
  // The writer sees its own in-range inserts.
  EXPECT_EQ(Sorted(Range(writer.get())), With(Base(), 7));
  ASSERT_TRUE(engine_->CommitTxn(writer.get()).ok());
  // The reader's snapshot predates the commit; new snapshots see it.
  EXPECT_EQ(Range(reader.get()), Base());
  EXPECT_EQ(Sorted(Range()), With(Base(), 7));
  ASSERT_TRUE(engine_->CommitTxn(reader.get()).ok());
}

TEST_F(SeekMvccTest, AbortedRowsStayHiddenAcrossSweep) {
  auto txn = engine_->BeginTxn();
  Exec(InsertSql(9), txn.get());
  ASSERT_TRUE(engine_->AbortTxn(txn.get()).ok());
  EXPECT_EQ(Range(), Base());
  EXPECT_GT(db_->SweepVersions(), 0u);
  EXPECT_EQ(Range(), Base());
}

// A writer thread commits in-range inserts while a reader seeks: every
// answer is the base plus whole transactions, never part of one, and the
// count never falls.
TEST_F(SeekMvccTest, ConcurrentWriterCommitsAreAtomicToSeeks) {
  constexpr int kTxns = 20;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int t = 1; t <= kTxns; ++t) {
      auto txn = engine_->BeginTxn();
      Exec(InsertSql(t), txn.get());
      EXPECT_TRUE(engine_->CommitTxn(txn.get()).ok());
    }
    done.store(true);
  });
  const size_t base = Base().size();
  size_t last = base;
  int reads = 0;
  bool consistent = true;
  while (consistent && (!done.load() || reads < 3)) {
    const auto rows = Range();
    ++reads;
    consistent =
        std::is_sorted(rows.begin(), rows.end(),
                       [](const auto& a, const auto& b) {
                         return a.first < b.first;
                       }) &&
        rows.size() >= last && (rows.size() - base) % 5 == 0;
    EXPECT_TRUE(consistent) << rows.size() << " rows after " << last;
    last = rows.size();
  }
  writer.join();
  EXPECT_EQ(Range().size(), base + 5 * kTxns);
}

}  // namespace
}  // namespace htg::sql
