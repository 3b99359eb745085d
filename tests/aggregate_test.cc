// Differential test of the hash aggregate: random tables with int, double,
// string and NULL group keys (1-3 key columns, group counts that cross the
// group table's growth steps) are aggregated by SQL under every execution
// configuration — DOP 1/2/8, batch_rows 1/7/1024, in memory and with a
// tiny query budget that forces spilling — and each answer is compared
// with one computed directly in C++. Covers COUNT(*), COUNT(x), SUM, MIN,
// MAX, AVG, COUNT(DISTINCT), the mergeable CallBase UDA (generic adapter,
// parallel merge) and the serial AssembleConsensus UDA, plus empty input in
// the global and the grouped form.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "genomics/register.h"
#include "sql/engine.h"

namespace htg::sql {
namespace {

constexpr int64_t kTinyBudget = 16 * 1024;  // forces multi-level spills

// One generated input table, kept in C++ for the oracle.
struct Dataset {
  std::string name;
  std::vector<Row> rows;  // (k1, k2, k3, x, d, s, base, q)
};

// Inputs of the AssembleConsensus query: (g, pos, seq, qual), ascending
// pos within each g, as the sliding-window UDA requires.
std::vector<Row> MakeReads(uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<Row> rows;
  const char* bases = "ACGT";
  for (int g = 0; g < 40; ++g) {
    int64_t pos = 0;
    const int reads = 1 + static_cast<int>(rng() % 6);
    for (int r = 0; r < reads; ++r) {
      pos += static_cast<int64_t>(rng() % 4);
      std::string seq;
      std::string qual;
      for (int i = 0; i < 8; ++i) {
        seq.push_back(bases[rng() % 4]);
        qual.push_back(static_cast<char>('!' + 10 + rng() % 30));
      }
      rows.push_back(Row{Value::Int32(g), Value::Int64(pos),
                         Value::String(seq), Value::String(qual)});
    }
  }
  // Interleave groups while keeping each group's positions ascending.
  std::stable_sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a[1].AsInt64() < b[1].AsInt64();
  });
  return rows;
}

// `groups` bounds the distinct values of each key column; NULLs appear in
// every column.
Dataset MakeDataset(std::string name, int rows, int groups, uint32_t seed) {
  std::mt19937 rng(seed);
  const auto pick = [&](int n) { return static_cast<int>(rng() % n); };
  const auto maybe_null = [&](Value v) {
    return pick(20) == 0 ? Value::Null() : std::move(v);
  };
  // Doubles are multiples of 0.25, so sums are exact in any order; -0.0
  // and 0.0 are one group.
  const double k2_values[] = {-0.0, 0.0, 1.0, 2.0, 0.5, -3.25, 1e15, 7.75};
  Dataset data;
  data.name = std::move(name);
  for (int i = 0; i < rows; ++i) {
    data.rows.push_back(Row{
        maybe_null(Value::Int32(pick(groups))),
        maybe_null(Value::Double(k2_values[pick(8)])),
        maybe_null(Value::String("key" + std::to_string(pick(groups)))),
        maybe_null(Value::Int64(pick(2000000) - 1000000)),
        maybe_null(Value::Double((pick(800) - 400) * 0.25)),
        maybe_null(Value::String(std::string(1 + pick(12), 'a' + pick(26)))),
        maybe_null(Value::String(std::string(1, "ACGTN"[pick(5)]))),
        maybe_null(Value::Int32(pick(40))),
    });
  }
  return data;
}

// The oracle's per-group state.
struct Expected {
  int64_t count_star = 0;
  int64_t count_x = 0;
  int64_t sum_x = 0;
  bool any_x = false;
  double sum_d = 0;
  int64_t count_d = 0;
  Value min_s;
  Value max_s;
  std::set<Value> distinct_k1;
  std::unique_ptr<udf::AggregateInstance> call_base;
};

Row ExpectedRow(const Row& key, Expected& e) {
  Row row = key;
  row.push_back(Value::Int64(e.count_star));
  row.push_back(Value::Int64(e.count_x));
  row.push_back(e.any_x ? Value::Int64(e.sum_x) : Value::Null());
  row.push_back(e.min_s);
  row.push_back(e.max_s);
  row.push_back(e.count_d == 0
                    ? Value::Null()
                    : Value::Double(e.sum_d / static_cast<double>(e.count_d)));
  row.push_back(Value::Int64(static_cast<int64_t>(e.distinct_k1.size())));
  Result<Value> call = e.call_base->Terminate();
  EXPECT_TRUE(call.ok());
  row.push_back(call.ok() ? *call : Value::Null());
  return row;
}

// Key column indexes (into the dataset row) of each grouped query, and
// the SQL text of its keys. Key -1 stands for the expression k1 % 7.
struct Grouping {
  std::vector<int> cols;
  std::string sql;
};

const std::vector<Grouping>& Groupings() {
  static const std::vector<Grouping> kGroupings = {
      {{}, ""},
      {{0}, "k1"},
      {{2}, "k3"},
      {{1, 2}, "k2, k3"},
      {{0, 1, 2}, "k1, k2, k3"},
      {{-1}, "k1 % 7"},
  };
  return kGroupings;
}

std::string QueryFor(const Grouping& g) {
  std::string select = g.sql.empty() ? "" : g.sql + ", ";
  std::string sql = "SELECT " + select +
                    "COUNT(*), COUNT(x), SUM(x), MIN(s), MAX(s), AVG(d), "
                    "COUNT(DISTINCT k1), CallBase(base, q) FROM t";
  if (!g.sql.empty()) sql += " GROUP BY " + g.sql;
  return sql;
}

std::vector<Row> Oracle(const Dataset& data, const Grouping& g,
                        const udf::AggregateFunction* call_base) {
  std::map<Row, Expected> groups;
  for (const Row& r : data.rows) {
    Row key;
    for (int c : g.cols) {
      if (c >= 0) {
        key.push_back(r[c]);
      } else {
        key.push_back(r[0].is_null() ? Value::Null()
                                     : Value::Int64(r[0].AsInt64() % 7));
      }
    }
    Expected& e = groups[key];
    if (e.call_base == nullptr) e.call_base = call_base->NewInstance();
    ++e.count_star;
    if (!r[3].is_null()) {
      ++e.count_x;
      e.any_x = true;
      e.sum_x += r[3].AsInt64();
    }
    if (!r[4].is_null()) {
      e.sum_d += r[4].AsDouble();
      ++e.count_d;
    }
    if (!r[5].is_null()) {
      if (e.min_s.is_null() || r[5] < e.min_s) e.min_s = r[5];
      if (e.max_s.is_null() || e.max_s < r[5]) e.max_s = r[5];
    }
    if (!r[0].is_null()) e.distinct_k1.insert(r[0]);
    EXPECT_TRUE(e.call_base->Accumulate({r[6], r[7]}).ok());
  }
  if (groups.empty() && g.cols.empty()) {
    groups[Row{}].call_base = call_base->NewInstance();
  }
  std::vector<Row> out;
  for (auto& [key, e] : groups) out.push_back(ExpectedRow(key, e));
  return out;
}

std::vector<Row> ConsensusOracle(const std::vector<Row>& reads,
                                 const udf::AggregateFunction* fn) {
  std::map<Value, std::unique_ptr<udf::AggregateInstance>> groups;
  for (const Row& r : reads) {
    auto& instance = groups[r[0]];
    if (instance == nullptr) instance = fn->NewInstance();
    EXPECT_TRUE(instance->Accumulate({r[1], r[2], r[3]}).ok());
  }
  std::vector<Row> out;
  for (auto& [key, instance] : groups) {
    Result<Value> v = instance->Terminate();
    EXPECT_TRUE(v.ok());
    out.push_back(Row{key, v.ok() ? *v : Value::Null()});
  }
  return out;
}

bool RowLess(const Row& a, const Row& b) {
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    const int c = a[i].Compare(b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

std::string RowText(const Row& row) {
  std::string out;
  for (const Value& v : row) out += v.ToString() + "|";
  return out;
}

void ExpectSameRows(std::vector<Row> want, std::vector<Row> got,
                    const std::string& context) {
  std::sort(want.begin(), want.end(), RowLess);
  std::sort(got.begin(), got.end(), RowLess);
  ASSERT_EQ(want.size(), got.size()) << context;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i].size(), got[i].size()) << context;
    for (size_t c = 0; c < want[i].size(); ++c) {
      // Compare() equates 0.0 with -0.0 and 1 with 1.0, as GROUP BY does.
      ASSERT_EQ(want[i][c].Compare(got[i][c]), 0)
          << context << "\n  want " << RowText(want[i]) << "\n  got  "
          << RowText(got[i]);
    }
  }
}

uint64_t SpillRuns() {
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  const auto it = snap.counters.find("exec.spill.runs");
  return it == snap.counters.end() ? 0 : it->second;
}

struct Config {
  int dop;
  size_t batch_rows;
  bool spill;

  std::string Name() const {
    return "dop" + std::to_string(dop) + "_batch" +
           std::to_string(batch_rows) + (spill ? "_spill" : "_mem");
  }
};

class AggregateDifferentialTest : public ::testing::TestWithParam<Config> {
 protected:
  void SetUp() override {
    const Config& config = GetParam();
    DatabaseOptions options;
    options.filestream_root = "/tmp/htg_aggregate_test_" + config.Name();
    std::filesystem::remove_all(options.filestream_root);
    options.max_dop = config.dop;
    options.parallel_threshold = 0;  // small tables still plan in parallel
    options.batch_rows = config.batch_rows;
    options.query_mem_bytes = config.spill ? kTinyBudget : 0;
    options.enable_spill = true;
    auto db = Database::Open("aggdiff_" + config.Name(), options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    ASSERT_TRUE(genomics::RegisterGenomicsExtensions(db_.get()).ok());
    engine_ = std::make_unique<SqlEngine>(db_.get());
  }

  void TearDown() override {
    engine_.reset();
    db_.reset();
    std::filesystem::remove_all("/tmp/htg_aggregate_test_" +
                                GetParam().Name());
  }

  void Load(const std::string& table, const std::string& ddl,
            const std::vector<Row>& rows) {
    Result<QueryResult> created = engine_->Execute(ddl);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    catalog::TableDef* def = *db_->GetTable(table);
    for (const Row& row : rows) {
      const Status s = db_->InsertRow(def, row);
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
  }

  std::vector<Row> Run(const std::string& sql) {
    Result<QueryResult> r = engine_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << "\n--> " << r.status().ToString();
    return r.ok() ? std::move(r->rows) : std::vector<Row>{};
  }

  void CheckDataset(const Dataset& data) {
    Load("t",
         "CREATE TABLE t (k1 INT, k2 FLOAT, k3 VARCHAR(16), x BIGINT, "
         "d FLOAT, s VARCHAR(16), base VARCHAR(1), q INT)",
         data.rows);
    const udf::AggregateFunction* call_base =
        db_->functions()->FindAggregate("CallBase");
    ASSERT_NE(call_base, nullptr);
    if (data.rows.size() > 1000) {
      // Enough heap pages for every worker: DOP > 1 must plan the
      // parallel partial/final aggregate.
      Result<QueryResult> explain =
          engine_->Execute("EXPLAIN " + QueryFor(Groupings()[1]));
      ASSERT_TRUE(explain.ok()) << explain.status().ToString();
      const std::string plan = explain->ToString();
      EXPECT_EQ(plan.find("Parallelism") != std::string::npos,
                GetParam().dop > 1)
          << plan;
    }
    for (const Grouping& g : Groupings()) {
      const std::string sql = QueryFor(g);
      ExpectSameRows(Oracle(data, g, call_base), Run(sql),
                     GetParam().Name() + " " + data.name + ": " + sql);
    }
    ASSERT_TRUE(engine_->Execute("DROP TABLE t").ok());
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<SqlEngine> engine_;
};

TEST_P(AggregateDifferentialTest, MatchesOracle) {
  const uint64_t spills_before = SpillRuns();
  CheckDataset(MakeDataset("few_groups", 60, 4, 7));
  // 1-key groupings reach ~700 groups and 3-key ones ~2500, crossing
  // every table growth step from 64 slots up.
  CheckDataset(MakeDataset("many_groups", 3000, 700, 11));
  if (GetParam().spill) {
    EXPECT_GT(SpillRuns(), spills_before) << "tiny budget did not spill";
  }
}

TEST_P(AggregateDifferentialTest, EmptyInputGlobalAndGrouped) {
  CheckDataset(Dataset{"empty", {}});
}

TEST_P(AggregateDifferentialTest, ConsensusUdaMatchesInstanceContract) {
  const std::vector<Row> reads = MakeReads(5);
  Load("r", "CREATE TABLE r (g INT, pos BIGINT, seq VARCHAR(16), "
       "qual VARCHAR(16))", reads);
  const udf::AggregateFunction* fn =
      db_->functions()->FindAggregate("AssembleConsensus");
  ASSERT_NE(fn, nullptr);
  ExpectSameRows(ConsensusOracle(reads, fn),
                 Run("SELECT g, AssembleConsensus(pos, seq, qual) FROM r "
                     "GROUP BY g"),
                 GetParam().Name() + " AssembleConsensus");
}

std::vector<Config> AllConfigs() {
  std::vector<Config> configs;
  for (int dop : {1, 2, 8}) {
    for (size_t batch : {size_t{1}, size_t{7}, size_t{1024}}) {
      for (bool spill : {false, true}) configs.push_back({dop, batch, spill});
    }
  }
  return configs;
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, AggregateDifferentialTest, ::testing::ValuesIn(AllConfigs()),
    [](const ::testing::TestParamInfo<Config>& info) {
      return info.param.Name();
    });

}  // namespace
}  // namespace htg::sql
