// reseq-workflow: the `htgdb_cli all` path in the 1000 Genomes regime,
// where nearly every read is unique. Set-up imports the lanes' FASTQ into
// the FILESTREAM table, loads the heap `Read` table, aligns lane 1 with the
// AlignReads TVF into `Alignment` and loads the clustered `AlignmentPos`.
// The measured loop repeats Query 1 over the ListShortReads TVF (the §5.2
// per-row FillRow seam), Query 3 (AssembleConsensus over the clustered
// scan), AlignReads -> INSERT on lane 2 and a clustered load. The buffer
// pool holds about a quarter of the table bytes, so Query 3 misses.

#include <algorithm>
#include <filesystem>
#include <map>

#include "genomics/aligner.h"
#include "genomics/consensus.h"
#include "genomics/nucleotide.h"
#include "util.h"
#include "workflow/loaders.h"

namespace htgbench {
namespace {

constexpr int kReadLength = 36;
constexpr int kSetupReps = 5;

const char* const kQuery3 =
    "SELECT a_g_id, AssembleConsensus(a_pos, seq, qual) AS consensus "
    "FROM AlignmentPos GROUP BY a_g_id";

const char* const kAlignmentPosDdl =
    "CREATE TABLE %s (a_g_id INT NOT NULL, a_pos BIGINT NOT NULL, "
    "seq VARCHAR(300) NOT NULL, qual VARCHAR(300)) CLUSTER BY (a_g_id, a_pos)";

std::string Ddl(const char* table) {
  char buf[512];
  snprintf(buf, sizeof(buf), kAlignmentPosDdl, table);
  return buf;
}

// An alignment's read as the reference strand shows it.
struct Oriented {
  int chromosome;
  int64_t position;
  std::string seq;
  std::string qual;
};

std::vector<Oriented> Orient(
    const std::vector<htg::genomics::Alignment>& alignments,
    const std::vector<htg::genomics::ShortRead>& reads) {
  std::vector<Oriented> out;
  out.reserve(alignments.size());
  for (const htg::genomics::Alignment& a : alignments) {
    const htg::genomics::ShortRead& r = reads[a.read_id];
    Oriented o{a.chromosome, a.position, r.sequence, r.quality};
    if (a.reverse_strand) {
      o.seq = htg::genomics::ReverseComplement(o.seq);
      std::reverse(o.qual.begin(), o.qual.end());
    }
    out.push_back(std::move(o));
  }
  return out;
}

void LoadClustered(htg::Database* db, const char* table,
                   const std::vector<Oriented>& rows) {
  htg::catalog::TableDef* def = CheckOk(db->GetTable(table), table);
  Tracer::Span span(&Tracer::Global(), "storage.ClusteredInsert");
  for (const Oriented& o : rows) {
    CheckOk(db->InsertRow(def, htg::Row{htg::Value::Int32(o.chromosome),
                                        htg::Value::Int64(o.position),
                                        htg::Value::String(o.seq),
                                        htg::Value::String(o.qual)}),
            std::string("insert ") + table);
  }
}

// Query 3's oracle: SlidingWindowConsensus over the alignments in
// (chromosome, position) order, outside SQL.
std::map<int64_t, std::string> OracleConsensus(std::vector<Oriented> rows) {
  Tracer::Span span(&Tracer::Global(), "genomics.SlidingWindowConsensus");
  std::stable_sort(rows.begin(), rows.end(),
                   [](const Oriented& a, const Oriented& b) {
                     return a.chromosome != b.chromosome
                                ? a.chromosome < b.chromosome
                                : a.position < b.position;
                   });
  std::map<int64_t, htg::genomics::SlidingWindowConsensus> windows;
  for (const Oriented& o : rows) {
    windows[o.chromosome].Add(o.position, o.seq, o.qual);
  }
  std::map<int64_t, std::string> out;
  for (auto& [chrom, window] : windows) out[chrom] = window.Finish();
  return out;
}

bool SameConsensus(const htg::sql::QueryResult& r,
                   std::map<int64_t, std::string> expected, bool corrupt) {
  if (expected.empty()) return false;
  if (corrupt) {
    std::string& s = expected.begin()->second;
    s[s.size() / 2] = s[s.size() / 2] == 'A' ? 'C' : 'A';
  }
  std::map<int64_t, std::string> actual;
  for (const htg::Row& row : r.rows) {
    if (row.size() != 2 || row[1].is_null()) return false;
    actual[row[0].AsInt64()] = row[1].AsString();
  }
  return actual == expected && r.rows.size() == expected.size();
}

std::string AlignInsert(const char* table, int lane, const std::string& ref) {
  return std::string("INSERT INTO ") + table +
         " (a_e_id, a_sg_id, a_s_id, a_r_id, a_g_id, a_pos, a_strand, "
         "a_mismatches, a_mapq) SELECT 1, 1, 1, 0, "
         "CAST(SUBSTRING(chromosome, 4, 9) AS INT) - 1, position, "
         "reverse_strand, mismatches, mapq FROM AlignReads(855, " +
         std::to_string(lane) + ", '" + ref + "', 2)";
}

}  // namespace

void RunReseqWorkflow(const Options& o, Checker* checker, Report* report) {
  const uint64_t lane1_reads =
      std::max<uint64_t>(400, static_cast<uint64_t>(40000 * o.scale));
  const uint64_t lane2_reads =
      std::max<uint64_t>(100, static_cast<uint64_t>(20000 * o.scale));
  const uint64_t bases =
      std::max<uint64_t>(5000, static_cast<uint64_t>(100000 * o.scale));
  Rng rng(o.seed);
  const htg::genomics::ReferenceGenome ref = MakeReference(&rng, 2, bases);
  const std::vector<htg::genomics::ShortRead> lane1 =
      MakeReseqReads(&rng, ref, lane1_reads, kReadLength, 1);
  const std::vector<htg::genomics::ShortRead> lane2 =
      MakeReseqReads(&rng, ref, lane2_reads, kReadLength, 2);
  WorkDir work(o);
  const std::string ref_path = work.path() + "/reference.fa";
  const std::string lane1_path = work.path() + "/lane1.fastq";
  const std::string lane2_path = work.path() + "/lane2.fastq";
  WriteFasta(ref_path, ref);
  WriteFastq(lane1_path, lane1);
  WriteFastq(lane2_path, lane2);

  // Oracles and the clustered rows, from the aligner called directly.
  const Bins q1_oracle = OracleBins(lane1);
  std::vector<Oriented> pos1, pos2;
  {
    Tracer::Span span(&Tracer::Global(), "genomics.Aligner");
    htg::genomics::Aligner aligner(&ref, {});
    Tracer::Span align(&Tracer::Global(), "genomics.AlignBatch");
    pos1 = Orient(aligner.AlignBatch(lane1), lane1);
    pos2 = Orient(aligner.AlignBatch(lane2), lane2);
  }
  const std::map<int64_t, std::string> q3_oracle = OracleConsensus(pos1);

  // Set-up. A first sizing pass with the default pool measures the table
  // bytes (and builds the AlignReads reference index, which the TVF caches
  // for the process); the measured passes then run with a pool of about a
  // quarter of them.
  Calibration calib;
  Measured setup_s, import_mb_s;
  Db db;
  size_t pool_bytes = 0;
  uint64_t table_bytes = 0;
  const double fastq_mb =
      (std::filesystem::file_size(lane1_path) +
       std::filesystem::file_size(lane2_path)) / 1048576.0;
  for (int rep = -1; rep < kSetupReps; ++rep) {
    db = Db();
    const double f = calib.Measure();
    Tracer::Global().BeginRequest();
    Tracer::Span span(&Tracer::Global(), "harness.setup");
    const int64_t start = NowNs();
    db = OpenDb(work.Fresh("db"), pool_bytes, 1);
    htg::sql::SqlEngine* engine = db.engine.get();
    int64_t t = NowNs();
    {
      Tracer::Span imp(&Tracer::Global(), "workflow.ImportFastqAsFileStream");
      CheckOk(htg::workflow::ImportFastqAsFileStream(engine, "ShortReadFiles",
                                                     lane1_path, 855, 1),
              "import lane 1");
      CheckOk(htg::workflow::ImportFastqAsFileStream(engine, "ShortReadFiles",
                                                     lane2_path, 855, 2),
              "import lane 2");
    }
    if (rep >= 0) import_mb_s.AddRate(fastq_mb / ((NowNs() - t) * 1e-9), f);
    {
      Tracer::Span load(&Tracer::Global(), "workflow.LoadReads");
      CheckOk(htg::workflow::LoadReads(db.db.get(), "Read", lane1, {}),
              "load reads");
    }
    CheckOk(htg::workflow::LoadReferenceCatalog(db.db.get(),
                                                "ReferenceSequence", ref),
            "load reference catalog");
    RunSql(engine, "harness.align_lane1",
           AlignInsert("Alignment", 1, ref_path), checker);
    RunSql(engine, "harness.create", Ddl("AlignmentPos"), checker);
    RunSql(engine, "harness.create", Ddl("AlignmentPos2"), checker);
    RunSql(engine, "harness.create",
           "CREATE TABLE Alignment2 (a_e_id INT, a_sg_id INT, a_s_id INT, "
           "a_r_id BIGINT NOT NULL, a_g_id INT NOT NULL, a_pos BIGINT NOT "
           "NULL, a_strand BIT, a_mismatches INT, a_mapq INT)",
           checker);
    LoadClustered(db.db.get(), "AlignmentPos", pos1);
    if (rep < 0) {
      table_bytes = TableBytes(db.db.get(), "Read") +
                    TableBytes(db.db.get(), "Alignment") +
                    TableBytes(db.db.get(), "AlignmentPos");
      pool_bytes = std::max<size_t>(table_bytes / 4, 256 * 1024);
      continue;
    }
    setup_s.AddTime((NowNs() - start) * 1e-9, f);
  }
  htg::Database* d = db.db.get();
  htg::sql::SqlEngine* engine = db.engine.get();

  // Query 1 on the heap table against BinUniqueReads; the TVF's Query 1
  // is then checked against this heap answer.
  Bins heap_bins;
  if (auto r = RunSql(engine, "harness.q1_heap", Query1("Read"), checker)) {
    heap_bins = ResultBins(*r);
  }
  checker->Verify("q1_heap", [&](bool corrupt) {
    return SameBins(heap_bins, q1_oracle, corrupt);
  });
  uint64_t aligned1 = 0;
  if (auto r = RunSql(engine, "harness.count",
                      "SELECT COUNT(*) FROM Alignment", checker)) {
    aligned1 = r->rows[0][0].AsInt64();
  }
  checker->Verify("align_lane1", [&](bool corrupt) {
    return aligned1 == pos1.size() + (corrupt ? 1 : 0);
  });

  const std::string q1_tvf = Query1("ListShortReads(855, 1, 'FastQ')");
  const std::string align2 = AlignInsert("Alignment2", 2, ref_path);
  Measured q1, q3, align_rate, load_rate;
  Series traced_rot, untraced_rot, rotation_rate;
  double rotation_ref_s = 0;
  int rotation_statements = 0;
  double f = 1.0;
  // A measured statement lands in `into` and in the statement rate.
  auto sql = [&](const char* name, const std::string& text, Measured* into,
                 bool timed) {
    Series ms;
    auto r = RunSql(engine, name, text, checker, &ms);
    if (timed && !ms.empty()) {
      if (into != nullptr) into->AddTime(ms.values()[0], f);
      rotation_ref_s += ms.values()[0] * 1e-3 * f;
      ++rotation_statements;
    }
    return r;
  };
  auto rotation = [&](bool timed) {
    if (auto r = sql("harness.q1_tvf", q1_tvf, &q1, timed)) {
      const Bins bins = ResultBins(*r);
      checker->Verify("q1_tvf", [&](bool corrupt) {
        return SameBins(bins, heap_bins, corrupt);
      });
    }
    if (auto r = sql("harness.q3_consensus", kQuery3, &q3, timed)) {
      checker->Verify("q3_consensus", [&](bool corrupt) {
        return SameConsensus(*r, q3_oracle, corrupt);
      });
    }
    sql("harness.truncate", "TRUNCATE TABLE Alignment2", nullptr, timed);
    const int64_t t = NowNs();
    if (auto r = sql("harness.align_lane2", align2, nullptr, timed)) {
      if (timed) align_rate.AddRate(lane2.size() / ((NowNs() - t) * 1e-9), f);
      checker->Verify("align_lane2", [&](bool corrupt) {
        return r->rows_affected == pos2.size() + (corrupt ? 1 : 0);
      });
    }
    sql("harness.truncate", "TRUNCATE TABLE AlignmentPos2", nullptr, timed);
    checker->Attempt();
    const int64_t l = NowNs();
    LoadClustered(d, "AlignmentPos2", pos2);
    if (timed) load_rate.AddRate(pos2.size() / ((NowNs() - l) * 1e-9), f);
  };

  rotation(false);
  const bool trace = o.trace;
  const int64_t loop_start = NowNs();
  for (int i = 0; (NowNs() - loop_start) * 1e-9 < o.seconds; ++i) {
    const bool traced = trace && i % 2 == 0;
    f = calib.Measure();
    Tracer::Global().set_enabled(traced);
    const int64_t t = NowNs();
    rotation_ref_s = 0;
    rotation_statements = 0;
    rotation(true);
    if (rotation_ref_s > 0) {
      rotation_rate.Add(rotation_statements / rotation_ref_s);
    }
    (traced ? traced_rot : untraced_rot).Add((NowNs() - t) * 1e-6);
    Tracer::Global().set_enabled(trace);
  }

  const uint64_t stored = d->filestream()->TotalBytes() +
                          TableBytes(d, "Read") + TableBytes(d, "Alignment") +
                          TableBytes(d, "AlignmentPos") +
                          TableBytes(d, "Alignment2") +
                          TableBytes(d, "AlignmentPos2");
  const double input = static_cast<double>(FastqBytes(lane1) +
                                           FastqBytes(lane2));
  report->Note("lanes", std::to_string(lane1.size()) + " + " +
                            std::to_string(lane2.size()) + " reads of " +
                            std::to_string(kReadLength) + " bp over " +
                            std::to_string(ref.total_bases()) +
                            " reference bases");
  report->Note("sizes", "tables " + std::to_string(table_bytes) +
                            " B (Read + Alignment + AlignmentPos); buffer "
                            "pool " + std::to_string(pool_bytes) + " B");
  report->Note("core_p50_ms", "Query 3 (AssembleConsensus) over AlignmentPos");
  report->AddSeries("calibration_ms", "ms", calib.kernel_ms());
  report->AddSeries("setup_s", "s", setup_s);
  report->AddSeries("import_mb_per_s", "MB/s", import_mb_s);
  report->AddSeries("q1_tvf_ms", "ms", q1);
  report->AddSeries("q3_consensus_ms", "ms", q3);
  report->AddSeries("align_reads_per_s", "1/s", align_rate);
  report->AddSeries("load_rows_per_s", "1/s", load_rate);
  report->AddSeries("stmts_per_s", "1/s", rotation_rate);
  report->Info("q3_consensus_p50_ms", q3.ref.Median(), "ms");
  report->Info("load_rows_per_s", load_rate.ref.Median(), "1/s");
  report->Info("align_reads_per_s", align_rate.ref.Median(), "1/s");
  report->Info("table_bytes", static_cast<double>(table_bytes), "B");
  report->Info("buffer_pool_bytes", static_cast<double>(pool_bytes), "B");
  if (!trace) {
    report->Metric("setup_s", setup_s.ref.Median());
    report->Metric("q1_dop1_p50_ms", q1.ref.Median());
    report->Metric("core_p50_ms", q3.ref.Median());
    report->Metric("stmts_per_s", rotation_rate.Median());
    report->Metric("peak_rss_mb", PeakRssMb());
    report->Metric("stored_bytes_per_input_byte", stored / input);
    return;
  }
  report->Metric("trace.overhead_frac",
                 traced_rot.Median() / untraced_rot.Median() - 1.0);
  ProbeInputs in;
  in.db = d;
  in.engine = engine;
  in.reads = &lane1;
  in.reference = &ref;
  in.work_dir = work.path();
  in.selects = {q1_tvf, kQuery3};
  in.join_sql =
      "SELECT COUNT(*) FROM AlignmentPos JOIN ReferenceSequence ON a_g_id = "
      "g_id";
  in.join_left_sql = "SELECT COUNT(*) FROM AlignmentPos";
  in.join_right_sql = "SELECT COUNT(*) FROM ReferenceSequence";
  in.join_input_rows = pos1.size() + ref.num_chromosomes();
  in.probe_sql = kQuery3;
  RunLayerProbes(in, checker, report);
}

}  // namespace htgbench
