// SQL helpers, oracles and the layer probes every workload shares.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "catalog/database.h"
#include "genomics/formats.h"
#include "genomics/reference.h"
#include "harness.h"
#include "sql/engine.h"

namespace htgbench {

// A database with the genomics extensions and the normalized schema.
struct Db {
  std::unique_ptr<htg::Database> db;
  std::unique_ptr<htg::sql::SqlEngine> engine;
};
Db OpenDb(const std::string& root, size_t buffer_pool_bytes = 0,
          int max_dop = 4);

// The paper's Query 1 (unique-read binning) over a table or TVF call.
std::string Query1(const std::string& from);

// Runs `sql` the way SqlEngine::Execute does (ParseSql, then
// ExecuteParsed), so the sql and exec layers get spans of their own
// inside a request span named `request`. Counts one attempted operation;
// an engine error counts a failed one and returns nothing. `ms` receives
// the statement's latency.
std::optional<htg::sql::QueryResult> RunSql(
    htg::sql::SqlEngine* engine, const char* request, const std::string& sql,
    Checker* checker, Series* ms = nullptr);

// (frequency, sequence) pairs of a Query 1 answer, sorted.
using Bins = std::vector<std::pair<int64_t, std::string>>;
// The oracle: genomics::BinUniqueReads outside SQL.
Bins OracleBins(const std::vector<htg::genomics::ShortRead>& reads);
// A Query 1 result's bins; empty if its ranks are not 1..n in order of
// non-increasing frequency.
Bins ResultBins(const htg::sql::QueryResult& result);
// Compares bins; `corrupt` bumps one expected frequency.
bool SameBins(const Bins& actual, const Bins& expected, bool corrupt);

// User bytes of a Read row as LoadReads stores it: the id, six integer
// keys and coordinates, sequence and quality.
uint64_t ReadUserBytes(const std::vector<htg::genomics::ShortRead>& reads);
uint64_t TableBytes(htg::Database* db, const std::string& table);

// What the shared layer probes run on. Every workload has a `Read` table
// holding `reads`, loaded with workflow::LoadReads.
struct ProbeInputs {
  htg::Database* db = nullptr;
  htg::sql::SqlEngine* engine = nullptr;
  const std::vector<htg::genomics::ShortRead>* reads = nullptr;
  const htg::genomics::ReferenceGenome* reference = nullptr;
  std::string work_dir;
  // The workload's SELECT statements, for the parse and plan probes.
  std::vector<std::string> selects;
  // A join and the scans of its two inputs, for the join stage.
  std::string join_sql;
  std::string join_left_sql;
  std::string join_right_sql;
  uint64_t join_input_rows = 0;
  // The statement whose buffer-pool and page counters are reported per
  // query.
  std::string probe_sql;
  // Makes the ledger's stage sum a correctness check: it must land within
  // kLedgerBound of the untraced Query 1 (dge-bin).
  bool check_ledger = false;
  int reps = 5;
};

// Runs the per-layer probes: the staged Query 1 ledger (storage scan,
// exec scan, filter, hash aggregate, sort/rank), the join stage, DOP 4
// against DOP 1, buffer-pool counters of the probe statement, the FILESTREAM
// TVF FillRow seam, the aligner, bulk and clustered loads, storage bytes,
// and parse and plan time. Results go to `report` as per-layer metrics.
void RunLayerProbes(const ProbeInputs& in, Checker* checker, Report* report);

}  // namespace htgbench
