#include "util.h"

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "genomics/aligner.h"
#include "genomics/gene_expression.h"
#include "genomics/register.h"
#include "sql/parser.h"
#include "storage/table.h"
#include "workflow/loaders.h"
#include "workflow/schema.h"

namespace htgbench {

Db OpenDb(const std::string& root, size_t buffer_pool_bytes, int max_dop) {
  htg::DatabaseOptions options;
  options.filestream_root = root;
  options.buffer_pool_bytes = buffer_pool_bytes;
  options.max_dop = max_dop;
  Db out;
  out.db = CheckOk(htg::Database::Open("htgbench", options), "open database");
  CheckOk(htg::genomics::RegisterGenomicsExtensions(out.db.get()),
          "register genomics extensions");
  out.engine = std::make_unique<htg::sql::SqlEngine>(out.db.get());
  CheckOk(htg::workflow::CreateGenomicsSchema(out.engine.get(), {}),
          "create schema");
  return out;
}

std::string Query1(const std::string& from) {
  return "SELECT ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC) AS rank, "
         "COUNT(*) AS freq, short_read_seq FROM " +
         from +
         " WHERE CHARINDEX('N', short_read_seq) = 0 GROUP BY short_read_seq";
}

std::optional<htg::sql::QueryResult> RunSql(htg::sql::SqlEngine* engine,
                                            const char* request,
                                            const std::string& sql,
                                            Checker* checker, Series* ms) {
  Tracer& tracer = Tracer::Global();
  tracer.BeginRequest();
  checker->Attempt();
  const int64_t start = NowNs();
  htg::Result<htg::sql::QueryResult> result = htg::Status::OK();
  {
    Tracer::Span span(&tracer, request);
    htg::Result<std::vector<htg::sql::Statement>> parsed = [&] {
      Tracer::Span parse(&tracer, "sql.ParseSql");
      return htg::sql::ParseSql(sql);
    }();
    if (!parsed.ok()) {
      result = parsed.status();
    } else {
      Tracer::Span exec(&tracer, "exec.ExecuteParsed");
      result = engine->ExecuteParsed(*parsed, {});
    }
  }
  const int64_t end = NowNs();
  if (!result.ok()) {
    checker->Fail(std::string(request) + ": " + result.status().ToString());
    return std::nullopt;
  }
  if (ms != nullptr) ms->Add((end - start) * 1e-6);
  return std::move(*result);
}

Bins OracleBins(const std::vector<htg::genomics::ShortRead>& reads) {
  Tracer::Span span(&Tracer::Global(), "genomics.BinUniqueReads");
  Bins bins;
  for (const htg::genomics::TagCount& t :
       htg::genomics::BinUniqueReads(reads)) {
    bins.emplace_back(t.frequency, t.sequence);
  }
  std::sort(bins.begin(), bins.end());
  return bins;
}

Bins ResultBins(const htg::sql::QueryResult& result) {
  std::vector<std::tuple<int64_t, int64_t, std::string>> rows;
  rows.reserve(result.rows.size());
  for (const htg::Row& row : result.rows) {
    if (row.size() != 3 || row[0].is_null() || row[1].is_null() ||
        row[2].is_null()) {
      return {};
    }
    rows.emplace_back(row[0].AsInt64(), row[1].AsInt64(), row[2].AsString());
  }
  std::sort(rows.begin(), rows.end());
  Bins bins;
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& [rank, freq, seq] = rows[i];
    if (rank != static_cast<int64_t>(i + 1)) return {};
    if (i > 0 && freq > std::get<1>(rows[i - 1])) return {};
    bins.emplace_back(freq, seq);
  }
  std::sort(bins.begin(), bins.end());
  return bins;
}

bool SameBins(const Bins& actual, const Bins& expected, bool corrupt) {
  if (!corrupt) return !expected.empty() && actual == expected;
  Bins wrong = expected;
  if (!wrong.empty()) wrong.back().first += 1;
  return actual == wrong;
}

uint64_t ReadUserBytes(const std::vector<htg::genomics::ShortRead>& reads) {
  uint64_t bytes = 0;
  for (const auto& r : reads) {
    bytes += 8 + 6 * 4 + r.sequence.size() + r.quality.size();
  }
  return bytes;
}

uint64_t TableBytes(htg::Database* db, const std::string& table) {
  htg::catalog::TableDef* def = CheckOk(db->GetTable(table), table);
  return def->table->Stats().TotalBytes();
}

namespace {

double PerUnit(double ms, double units, double scale) {
  return units <= 0 ? 0 : ms * 1e-3 * scale / units;
}

// Median milliseconds of `fn` over `reps` runs.
template <typename Fn>
double MedianMs(int reps, const char* span_name, Fn&& fn) {
  Series ms;
  for (int i = 0; i < reps; ++i) {
    Tracer::Span span(&Tracer::Global(), span_name);
    const int64_t start = NowNs();
    fn();
    ms.Add((NowNs() - start) * 1e-6);
  }
  return ms.Median();
}

// The stated bound of the ledger: its stage sum must land within this
// share of the untraced Query 1.
constexpr double kLedgerBound = 0.15;
constexpr int kLedgerReps = 9;

// Query 1 in cumulative stages (scan, + filter, + GROUP BY, full) at
// DOP 1, traced, each rep paired with one untraced Query 1. Stage costs are
// differences of stage medians; per rep they telescope, so a rep's stage
// sum is its full staged Query 1, and holding it to the untraced Query 1
// run right after it bounds what staging and tracing add to the figure
// the ledger splits. The ratio reported is the median over reps.
void StagedLedger(const ProbeInputs& in, Checker* checker, Report* report) {
  htg::Database* db = in.db;
  const int saved_dop = db->options().max_dop;
  db->set_max_dop(1);
  const std::string where = " WHERE CHARINDEX('N', short_read_seq) = 0";
  const std::string stages[] = {
      "SELECT COUNT(*) FROM Read",
      "SELECT COUNT(*) FROM Read" + where,
      "SELECT COUNT(*), short_read_seq FROM Read" + where +
          " GROUP BY short_read_seq",
      Query1("Read"),
  };
  const char* names[] = {"ledger.exec_scan", "ledger.filter", "ledger.hashagg",
                         "ledger.sort_rank"};
  Series storage_ms;
  Series stage_ms[4];
  Series untraced_q1_ms;
  Series ratios;
  double rows = 0;
  double groups = 0;
  htg::catalog::TableDef* table = CheckOk(db->GetTable("Read"), "Read");
  const bool tracing = Tracer::Global().enabled();
  for (int rep = 0; rep < kLedgerReps; ++rep) {
    {
      Tracer::Span span(&Tracer::Global(), "storage.NewScan+NextBatch");
      const int64_t start = NowNs();
      std::unique_ptr<htg::storage::RowIterator> scan = table->table->NewScan();
      htg::RowBatch batch;
      uint64_t n = 0;
      while (scan->NextBatch(&batch)) n += batch.num_rows();
      storage_ms.Add((NowNs() - start) * 1e-6);
      CheckOk(scan->status(), "storage scan");
      rows = static_cast<double>(n);
    }
    std::optional<double> staged, untraced;
    for (int s = 0; s < 4; ++s) {
      std::optional<htg::sql::QueryResult> r =
          RunSql(in.engine, names[s], stages[s], checker, &stage_ms[s]);
      if (r && s == 3) {
        groups = static_cast<double>(r->rows.size());
        staged = stage_ms[3].values().back();
      }
    }
    Tracer::Global().set_enabled(false);
    if (RunSql(in.engine, "ledger.q1_untraced", stages[3], checker,
               &untraced_q1_ms)) {
      untraced = untraced_q1_ms.values().back();
    }
    Tracer::Global().set_enabled(tracing);
    // The untraced Query 1 right after the staged one sees the same host.
    if (staged && untraced) ratios.Add(*staged / *untraced);
  }
  const double m[4] = {stage_ms[0].Median(), stage_ms[1].Median(),
                       stage_ms[2].Median(), stage_ms[3].Median()};
  report->Metric("storage.scan_ns_per_row",
                 PerUnit(storage_ms.Median(), rows, 1e9));
  report->Metric("exec.scan_ns_per_row", PerUnit(m[0], rows, 1e9));
  report->Metric("exec.filter_ns_per_row", PerUnit(m[1] - m[0], rows, 1e9));
  report->Metric("exec.hashagg_ns_per_row", PerUnit(m[2] - m[1], rows, 1e9));
  report->Metric("exec.sort_rank_ns_per_group",
                 PerUnit(m[3] - m[2], groups, 1e9));
  report->Info("ledger.storage_scan_ms", storage_ms.Median(), "ms");
  report->Info("ledger.count_ms", m[0], "ms");
  report->Info("ledger.filter_ms", m[1], "ms");
  report->Info("ledger.group_ms", m[2], "ms");
  report->Info("ledger.q1_ms", m[3], "ms");
  report->Info("ledger.q1_untraced_ms", untraced_q1_ms.Median(), "ms");
  report->Info("ledger.rows", rows, "count");
  report->Info("ledger.groups", groups, "count");
  report->AddSeries("ledger.q1_ms", "ms", stage_ms[3]);
  report->AddSeries("ledger.q1_untraced_ms", "ms", untraced_q1_ms);
  const double ratio = ratios.empty() ? 0 : ratios.Median();
  report->Metric("ledger.stage_sum_over_q1", ratio);
  if (in.check_ledger) {
    checker->Verify("ledger_stage_sum", [&](bool corrupt) {
      // The wrong expected value is twice the untraced Query 1.
      const double r = corrupt ? ratio / 2 : ratio;
      return std::abs(r - 1) <= kLedgerBound;
    });
  }

  // DOP 4 against DOP 1, with the exchange's counters over the DOP 4 reps.
  Series dop1;
  Series dop4;
  CounterWindow window;
  uint64_t stolen = 0, batch_rows = 0, batches = 0, spill = 0;
  int64_t query_peak = 0;
  const std::string q1 = Query1("Read");
  for (int rep = 0; rep < in.reps; ++rep) {
    db->set_max_dop(1);
    RunSql(in.engine, "ledger.q1_dop1", q1, checker, &dop1);
    db->set_max_dop(4);
    window.Reset();
    RunSql(in.engine, "ledger.q1_dop4", q1, checker, &dop4);
    stolen += window.Counter("exec.morsels.stolen");
    batch_rows += window.Counter("exec.batch.rows");
    batches += window.Counter("exec.batch.batches");
    spill += window.Counter("exec.spill.bytes");
    query_peak = std::max(query_peak, window.Gauge("mem.query.peak"));
  }
  db->set_max_dop(saved_dop);
  report->Metric("exec.dop4_speedup",
                 dop4.Median() > 0 ? dop1.Median() / dop4.Median() : 0);
  report->Metric("exec.morsels_stolen_per_query",
                 static_cast<double>(stolen) / in.reps);
  report->Metric("exec.rows_per_batch",
                 batches ? static_cast<double>(batch_rows) / batches : 0);
  report->Metric("exec.spill_bytes_per_query",
                 static_cast<double>(spill) / in.reps);
  report->Metric("mem.query_peak_mb", query_peak / 1048576.0);
}

void JoinStage(const ProbeInputs& in, Checker* checker, Report* report) {
  if (in.join_sql.empty()) return;
  Series join, left, right;
  for (int rep = 0; rep < in.reps; ++rep) {
    RunSql(in.engine, "ledger.join", in.join_sql, checker, &join);
    RunSql(in.engine, "ledger.join_left", in.join_left_sql, checker, &left);
    RunSql(in.engine, "ledger.join_right", in.join_right_sql, checker,
           &right);
  }
  report->Metric("exec.join_ns_per_row",
                 PerUnit(join.Median() - left.Median() - right.Median(),
                         static_cast<double>(in.join_input_rows), 1e9));
}

void BufferPoolProbe(const ProbeInputs& in, Checker* checker,
                     Report* report) {
  CounterWindow window;
  for (int rep = 0; rep < in.reps; ++rep) {
    RunSql(in.engine, "ledger.probe_query", in.probe_sql, checker);
  }
  const double n = in.reps;
  const double hit = static_cast<double>(window.Counter("bufferpool.hit"));
  const double miss = static_cast<double>(window.Counter("bufferpool.miss"));
  report->Metric("bufferpool.hit_ratio",
                 hit + miss > 0 ? hit / (hit + miss) : 1.0);
  report->Metric("bufferpool.miss_per_query", miss / n);
  report->Metric("bufferpool.evict_per_query",
                 window.Counter("bufferpool.evict") / n);
  report->Metric("vfs.read_bytes_per_query",
                 window.Counter("vfs.read.bytes") / n);
  report->Metric("page.read_ops_per_query",
                 window.Counter("page.read.ops") / n);
  report->Metric("btree.leaf_reads_per_query",
                 window.Counter("btree.leaf.reads") / n);
}

// FILESTREAM import and the ListShortReads per-row FillRow seam.
void FileStreamProbe(const ProbeInputs& in, Checker* checker,
                     Report* report) {
  const std::string fastq = in.work_dir + "/probe.fastq";
  WriteFastq(fastq, *in.reads);
  const double mb = std::filesystem::file_size(fastq) / 1048576.0;
  const int lane = 90;
  const double import_ms = MedianMs(in.reps, "workflow.ImportFastqAsFileStream",
                                    [&, next = lane]() mutable {
    CheckOk(htg::workflow::ImportFastqAsFileStream(
                in.engine, "ShortReadFiles", fastq, 900, next++),
            "import probe lane");
  });
  report->Metric("filestream.import_mb_per_s", mb / (import_ms * 1e-3));
  const std::string tvf =
      "ListShortReads(900, " + std::to_string(lane) + ", 'FastQ')";
  Series scan_ms;
  double rows = 0;
  for (int rep = 0; rep < in.reps; ++rep) {
    std::optional<htg::sql::QueryResult> r = RunSql(
        in.engine, "ledger.tvf_count", "SELECT COUNT(*) FROM " + tvf, checker,
        &scan_ms);
    if (r && !r->rows.empty()) rows = r->rows[0][0].AsInt64();
  }
  checker->Verify("tvf_count", [&](bool corrupt) {
    return rows == static_cast<double>(in.reads->size()) + (corrupt ? 1 : 0);
  });
  report->Metric("genomics.tvf_fillrow_ns_per_row",
                 PerUnit(scan_ms.Median(), rows, 1e9));

  // Query 1 over the TVF: its rows cross the batch-to-row seam, and its
  // answer must match Query 1 over the heap table holding the same reads.
  Bins heap;
  if (auto r = RunSql(in.engine, "ledger.q1_heap", Query1("Read"), checker)) {
    heap = ResultBins(*r);
  }
  CounterWindow window;
  for (int rep = 0; rep < in.reps; ++rep) {
    if (auto r = RunSql(in.engine, "ledger.q1_tvf", Query1(tvf), checker)) {
      const Bins bins = ResultBins(*r);
      checker->Verify("q1_tvf_vs_heap", [&](bool corrupt) {
        return SameBins(bins, heap, corrupt);
      });
    }
  }
  report->Metric("exec.fillrow_rows_per_query",
                 window.Counter("exec.batch.fillrow_rows") /
                     static_cast<double>(in.reps));
}

// The aligner called directly, then a bulk load and a clustered load.
void LoadProbes(const ProbeInputs& in, Checker* checker, Report* report) {
  const size_t n = std::min<size_t>(in.reads->size(), 20000);
  const std::vector<htg::genomics::ShortRead> reads(in.reads->begin(),
                                                    in.reads->begin() + n);
  std::vector<htg::genomics::Alignment> alignments;
  {
    htg::genomics::Aligner aligner(in.reference, {});
    const double ms = MedianMs(in.reps, "genomics.AlignBatch", [&] {
      alignments = aligner.AlignBatch(reads);
    });
    report->Metric("genomics.align_us_per_read", PerUnit(ms, n, 1e6));
  }
  CheckOk(htg::workflow::CreateGenomicsSchema(in.engine, {.suffix = "_probe"}),
          "probe schema");
  const double load_ms = MedianMs(in.reps, "workflow.LoadReads", [&] {
    RunSql(in.engine, "ledger.truncate", "TRUNCATE TABLE Read_probe", checker);
    CheckOk(htg::workflow::LoadReads(in.db, "Read_probe", reads, {}),
            "probe load");
  });
  report->Metric("workflow.load_ns_per_row", PerUnit(load_ms, n, 1e9));

  RunSql(in.engine, "ledger.create",
         "CREATE TABLE AlignmentPos_probe (a_g_id INT NOT NULL, a_pos BIGINT "
         "NOT NULL, seq VARCHAR(300) NOT NULL, qual VARCHAR(300)) "
         "CLUSTER BY (a_g_id, a_pos)",
         checker);
  htg::catalog::TableDef* table =
      CheckOk(in.db->GetTable("AlignmentPos_probe"), "AlignmentPos_probe");
  const double insert_ms = MedianMs(in.reps, "storage.ClusteredInsert", [&] {
    RunSql(in.engine, "ledger.truncate", "TRUNCATE TABLE AlignmentPos_probe",
           checker);
    for (const htg::genomics::Alignment& a : alignments) {
      const htg::genomics::ShortRead& r = reads[a.read_id];
      CheckOk(in.db->InsertRow(
                  table, htg::Row{htg::Value::Int32(a.chromosome),
                                  htg::Value::Int64(a.position),
                                  htg::Value::String(r.sequence),
                                  htg::Value::String(r.quality)}),
              "clustered insert");
    }
  });
  report->Metric("storage.clustered_insert_ns_per_row",
                 PerUnit(insert_ms, static_cast<double>(alignments.size()),
                         1e9));
}

void ParsePlanProbe(const ProbeInputs& in, Report* report) {
  constexpr int kReps = 200;
  Series parse_us, plan_us;
  for (const std::string& sql : in.selects) {
    Series parse, plan;
    for (int i = 0; i < kReps; ++i) {
      int64_t start = NowNs();
      {
        Tracer::Span span(&Tracer::Global(), "sql.ParseSql");
        CheckOk(htg::sql::ParseSql(sql).status(), "parse probe");
      }
      parse.Add((NowNs() - start) * 1e-3);
      start = NowNs();
      {
        Tracer::Span span(&Tracer::Global(), "sql.Plan");
        CheckOk(in.engine->Plan(sql).status(), "plan probe");
      }
      plan.Add((NowNs() - start) * 1e-3);
    }
    parse_us.Add(parse.Median());
    // Plan() parses too; its own share is the difference.
    plan_us.Add(std::max(0.0, plan.Median() - parse.Median()));
  }
  double parse_sum = 0, plan_sum = 0;
  for (double v : parse_us.values()) parse_sum += v;
  for (double v : plan_us.values()) plan_sum += v;
  const double n = std::max<size_t>(1, in.selects.size());
  report->Metric("sql.parse_us", parse_sum / n);
  report->Metric("sql.plan_us", plan_sum / n);
}

}  // namespace

void RunLayerProbes(const ProbeInputs& in, Checker* checker, Report* report) {
  StagedLedger(in, checker, report);
  JoinStage(in, checker, report);
  BufferPoolProbe(in, checker, report);
  FileStreamProbe(in, checker, report);
  LoadProbes(in, checker, report);
  ParsePlanProbe(in, report);
  report->Metric("storage.bytes_per_user_byte",
                 static_cast<double>(TableBytes(in.db, "Read")) /
                     ReadUserBytes(*in.reads));
}

}  // namespace htgbench
