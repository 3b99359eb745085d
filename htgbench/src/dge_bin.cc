// dge-bin: the paper's Fig. 7-9 path. A Zipf DGE lane is bulk-loaded into
// the heap `Read` table; one caller then repeats Query 1 at DOP 1 and DOP 4
// and Query 2 (gene expression, Alignment JOIN Tag grouped by locus). The
// table fits the buffer pool and the lane has few distinct tags, so scan
// decode, filter, a small-group hash aggregate and the morsel exchange
// dominate. No server, no TVF and no B+-tree in the measured loop.

#include <algorithm>
#include <map>

#include "genomics/aligner.h"
#include "genomics/gene_expression.h"
#include "util.h"
#include "workflow/loaders.h"

namespace htgbench {
namespace {

constexpr int kTagLength = 21;
constexpr int kSetupReps = 7;

const char* const kQuery2 =
    "SELECT a_g_id * 100000 + a_pos / 1000 AS locus, SUM(t_frequency) AS "
    "total, COUNT(a_r_id) AS tags FROM Alignment JOIN Tag ON (a_r_id = t_id "
    "- 1 AND a_e_id = t_e_id AND a_sg_id = t_sg_id AND a_s_id = t_s_id) "
    "GROUP BY a_g_id * 100000 + a_pos / 1000";

using Expression = std::map<int64_t, std::pair<int64_t, int64_t>>;

Expression OracleExpression(
    const std::vector<htg::genomics::Alignment>& alignments,
    const std::vector<htg::genomics::TagCount>& tags) {
  Tracer::Span span(&Tracer::Global(), "genomics.AggregateExpression");
  std::vector<htg::genomics::AlignedTag> aligned;
  for (const htg::genomics::Alignment& a : alignments) {
    aligned.push_back({a.chromosome * 100000 + a.position / 1000, a.read_id,
                       tags[a.read_id].frequency});
  }
  Expression out;
  for (const htg::genomics::GeneExpression& g :
       htg::genomics::AggregateExpression(aligned)) {
    out[g.gene_id] = {g.total_frequency, g.tag_count};
  }
  return out;
}

bool SameExpression(const htg::sql::QueryResult& result, Expression expected,
                    bool corrupt) {
  if (expected.empty()) return false;
  if (corrupt) expected.begin()->second.first += 1;
  Expression actual;
  for (const htg::Row& row : result.rows) {
    if (row.size() != 3) return false;
    actual[row[0].AsInt64()] = {row[1].AsInt64(), row[2].AsInt64()};
  }
  return actual == expected && result.rows.size() == expected.size();
}

}  // namespace

void RunDgeBin(const Options& o, Checker* checker, Report* report) {
  const uint64_t num_reads =
      std::max<uint64_t>(400, static_cast<uint64_t>(60000 * o.scale));
  const int genes = std::max(40, static_cast<int>(12000 * o.scale));
  const uint64_t bases =
      std::max<uint64_t>(20000, static_cast<uint64_t>(250000 * o.scale));
  Rng rng(o.seed);
  const htg::genomics::ReferenceGenome ref = MakeReference(&rng, 4, bases);
  const std::vector<htg::genomics::ShortRead> reads =
      MakeDgeReads(&rng, ref, num_reads, genes, kTagLength);
  WorkDir work(o);

  // Oracles and the tag list, computed outside SQL.
  const Bins q1_oracle = OracleBins(reads);
  std::vector<htg::genomics::TagCount> tags;
  {
    Tracer::Span span(&Tracer::Global(), "genomics.BinUniqueReads");
    tags = htg::genomics::BinUniqueReads(reads);
  }
  std::vector<htg::genomics::ShortRead> tag_reads;
  for (const htg::genomics::TagCount& t : tags) {
    tag_reads.push_back({"tag" + std::to_string(t.rank), t.sequence, ""});
  }
  std::unique_ptr<htg::genomics::Aligner> aligner;
  {
    Tracer::Span span(&Tracer::Global(), "genomics.Aligner");
    aligner = std::make_unique<htg::genomics::Aligner>(
        &ref, htg::genomics::AlignerOptions{});
  }

  // Set-up: open, load the lane, bin, align the tags, load them. Repeated;
  // the last database is the one measured.
  Calibration calib;
  Measured setup_s, load_rate, align_rate;
  Db db;
  std::vector<htg::genomics::Alignment> alignments;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    db = Db();
    const double f = calib.Measure();
    Tracer::Global().BeginRequest();
    Tracer::Span span(&Tracer::Global(), "harness.setup");
    const int64_t start = NowNs();
    db = OpenDb(work.Fresh("db"));
    int64_t t = NowNs();
    {
      Tracer::Span load(&Tracer::Global(), "workflow.LoadReads");
      CheckOk(htg::workflow::LoadReads(db.db.get(), "Read", reads, {}),
              "load reads");
    }
    load_rate.AddRate(reads.size() / ((NowNs() - t) * 1e-9), f);
    {
      Tracer::Span load(&Tracer::Global(), "workflow.LoadTags");
      CheckOk(htg::workflow::LoadTags(db.db.get(), "Tag", tags, {}),
              "load tags");
    }
    t = NowNs();
    {
      Tracer::Span align(&Tracer::Global(), "genomics.AlignBatch");
      alignments = aligner->AlignBatch(tag_reads);
    }
    align_rate.AddRate(tag_reads.size() / ((NowNs() - t) * 1e-9), f);
    {
      Tracer::Span load(&Tracer::Global(), "workflow.LoadAlignments");
      CheckOk(htg::workflow::LoadAlignments(db.db.get(), "Alignment",
                                            alignments, {}),
              "load alignments");
    }
    setup_s.AddTime((NowNs() - start) * 1e-9, f);
  }
  const Expression q2_oracle = OracleExpression(alignments, tags);
  htg::sql::SqlEngine* engine = db.engine.get();

  const std::string q1 = Query1("Read");
  Measured q1_dop1, q1_dop4, q2;
  Series traced_rot, untraced_rot, rotation_rate;
  double rotation_ref_s = 0;
  auto check_q1 = [&](const char* name, const htg::sql::QueryResult& r) {
    const Bins bins = ResultBins(r);
    checker->Verify(name, [&](bool corrupt) {
      return SameBins(bins, q1_oracle, corrupt);
    });
  };
  // Runs one statement at `dop`; a measured one lands in `into`, and at
  // DOP 1 also in the rotation's statement rate. The DOP 4 statement is
  // kept out of the rate: four workers on a host of four shared cores
  // follow the other tenants' load (its median moved from 45 to 75 ms
  // across one ten-seed set while the DOP 1 statements moved by 10-20%).
  auto run = [&](const char* name, const std::string& sql, int dop,
                 Measured* into, double f) {
    db.db->set_max_dop(dop);
    Series ms;
    auto r = RunSql(engine, name, sql, checker, &ms);
    if (into != nullptr && !ms.empty()) {
      into->AddTime(ms.values()[0], f);
      if (dop == 1) rotation_ref_s += ms.values()[0] * 1e-3 * f;
    }
    return r;
  };
  auto rotation = [&](bool timed, double f) {
    if (auto r = run("harness.q1_dop1", q1, 1, timed ? &q1_dop1 : nullptr, f)) {
      check_q1("q1_dop1", *r);
    }
    if (auto r = run("harness.q1_dop4", q1, 4, timed ? &q1_dop4 : nullptr, f)) {
      check_q1("q1_dop4", *r);
    }
    if (auto r = run("harness.q2_expr", kQuery2, 1, timed ? &q2 : nullptr, f)) {
      checker->Verify("q2_expr", [&](bool corrupt) {
        return SameExpression(*r, q2_oracle, corrupt);
      });
    }
  };

  // One unmeasured warm-up rotation, then the measured loop with a
  // calibration before each rotation. A traced run alternates traced and
  // untraced rotations so both see the same drift.
  rotation(false, 1.0);
  const bool trace = o.trace;
  const int64_t loop_start = NowNs();
  for (int i = 0; (NowNs() - loop_start) * 1e-9 < o.seconds; ++i) {
    const bool traced = trace && i % 2 == 0;
    const double f = calib.Measure();
    Tracer::Global().set_enabled(traced);
    const int64_t t = NowNs();
    rotation_ref_s = 0;
    rotation(true, f);
    if (rotation_ref_s > 0) rotation_rate.Add(2 / rotation_ref_s);
    (traced ? traced_rot : untraced_rot).Add((NowNs() - t) * 1e-6);
    Tracer::Global().set_enabled(trace);
  }
  const double loop_s = (NowNs() - loop_start) * 1e-9;

  const double input_bytes = static_cast<double>(FastqBytes(reads));
  const double stored = static_cast<double>(
      TableBytes(db.db.get(), "Read") + TableBytes(db.db.get(), "Tag") +
      TableBytes(db.db.get(), "Alignment"));
  report->Note("lane", std::to_string(reads.size()) + " reads, " +
                           std::to_string(tags.size()) + " distinct tags, " +
                           std::to_string(alignments.size()) +
                           " aligned tags");
  report->Note("core_p50_ms", "Query 2 (gene expression) at DOP 1");
  report->Note("sizes", "Read table " +
                            std::to_string(TableBytes(db.db.get(), "Read")) +
                            " B; buffer pool default (64 MiB)");
  report->AddSeries("calibration_ms", "ms", calib.kernel_ms());
  report->AddSeries("setup_s", "s", setup_s);
  report->AddSeries("load_rows_per_s", "1/s", load_rate);
  report->AddSeries("align_reads_per_s", "1/s", align_rate);
  report->AddSeries("q1_dop1_ms", "ms", q1_dop1);
  report->AddSeries("q1_dop4_ms", "ms", q1_dop4);
  report->AddSeries("q2_expr_ms", "ms", q2);
  report->AddSeries("stmts_per_s", "1/s", rotation_rate);
  report->Info("load_rows_per_s", load_rate.ref.Median(), "1/s");
  report->Info("align_reads_per_s", align_rate.ref.Median(), "1/s");
  report->Info("q1_dop4_p50_ms", q1_dop4.ref.Median(), "ms");
  report->Info("q2_expr_p50_ms", q2.ref.Median(), "ms");
  report->Info("loop_s", loop_s, "s");
  if (!trace) {
    report->Metric("setup_s", setup_s.ref.Median());
    report->Metric("q1_dop1_p50_ms", q1_dop1.ref.Median());
    report->Metric("core_p50_ms", q2.ref.Median());
    report->Metric("stmts_per_s", rotation_rate.Median());
    report->Metric("peak_rss_mb", PeakRssMb());
    report->Metric("stored_bytes_per_input_byte", stored / input_bytes);
    return;
  }
  report->Metric("trace.overhead_frac",
                 traced_rot.Median() / untraced_rot.Median() - 1.0);
  ProbeInputs in;
  in.db = db.db.get();
  in.engine = engine;
  in.reads = &reads;
  in.reference = &ref;
  in.work_dir = work.path();
  in.selects = {q1, kQuery2};
  in.join_sql =
      "SELECT COUNT(*) FROM Alignment JOIN Tag ON (a_r_id = t_id - 1 AND "
      "a_e_id = t_e_id AND a_sg_id = t_sg_id AND a_s_id = t_s_id)";
  in.join_left_sql = "SELECT COUNT(*) FROM Alignment";
  in.join_right_sql = "SELECT COUNT(*) FROM Tag";
  in.join_input_rows = alignments.size() + tags.size();
  in.probe_sql = q1;
  in.check_ledger = true;
  RunLayerProbes(in, checker, report);
}

}  // namespace htgbench
