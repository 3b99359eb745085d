// Reproduces Table 1 of the paper: storage efficiency of the physical
// designs for a digital-gene-expression lane — original files, FileStream
// BLOBs, a straightforward 1:1 relational import, the normalized schema,
// and the normalized schema under ROW and PAGE compression.
//
// Expected shape (paper §5.1.1): FileStream == Files; 1:1 import blows up
// (roughly 2x on the read data); normalized ≈ files; ROW < normalized;
// PAGE < ROW (dictionary compression thrives on repetitive DGE tags).

#include "bench/bench_util.h"
#include "workflow/loaders.h"
#include "workflow/schema.h"

namespace htg::bench {
namespace {

struct Variant {
  std::string label;
  std::string suffix;
  storage::Compression compression;
};

uint64_t TableBytes(Database* db, const std::string& name) {
  return CheckOk(db->GetTable(name), "get table")->table->Stats().data_bytes;
}

uint64_t PoolCounter(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

int64_t CountRows(sql::SqlEngine* engine, const std::string& table) {
  sql::QueryResult result = CheckOk(
      engine->Execute("SELECT COUNT(*) FROM " + table), "count rows");
  if (result.rows.size() != 1) {
    fprintf(stderr, "FATAL COUNT(*) returned %zu rows\n", result.rows.size());
    exit(1);
  }
  return result.rows[0][0].AsInt64();
}

// Cold-vs-warm scan sweep over the normalized read table, plus a
// deliberately undersized pool that must evict and still answer
// correctly. Emitted as a separate BENCH_bufferpool.json so the storage
// byte counts above stay decoupled from cache-behaviour baselines.
void RunBufferPoolSweep(Database* db, sql::SqlEngine* engine,
                        const Lane& lane, const LaneConfig& config) {
  storage::BufferPool* pool = db->buffer_pool();
  printf("\n== Buffer pool: cold vs warm scans of Read_n ==\n");
  BenchReport report("bufferpool");
  report.SetConfig("scale", Scale());
  report.SetConfig("reads", static_cast<double>(config.num_reads));
  report.SetConfig("pool_mb",
                   static_cast<double>(pool->capacity_bytes() >> 20));

  const int64_t expected = static_cast<int64_t>(lane.reads.size());
  const auto check_scan = [&] {
    const int64_t rows = CountRows(engine, "Read_n");
    if (rows != expected) {
      fprintf(stderr, "FATAL scan returned %lld rows, want %lld\n",
              static_cast<long long>(rows),
              static_cast<long long>(expected));
      exit(1);
    }
  };

  // Cold: every rep starts from an empty cache (dirty pages written back,
  // frames dropped), so the scan re-reads the spill file.
  const double cold = report.MeasureSeconds("scan_cold", 10, [&] {
    CheckOk(pool->EvictAll(), "evict all");
    check_scan();
  });
  // Warm: the previous rep's scan left every page resident.
  check_scan();
  const uint64_t hits_before = PoolCounter("bufferpool.hit");
  const uint64_t misses_before = PoolCounter("bufferpool.miss");
  const double warm = report.MeasureSeconds("scan_warm", 10, check_scan);
  const uint64_t hits = PoolCounter("bufferpool.hit") - hits_before;
  const uint64_t misses = PoolCounter("bufferpool.miss") - misses_before;
  const double hit_pct =
      hits + misses > 0
          ? 100.0 * static_cast<double>(hits) /
                static_cast<double>(hits + misses)
          : 0.0;
  report.AddValue("warm_hit_pct", hit_pct, "percent");
  report.AddValue("warm_misses", static_cast<double>(misses), "count");
  printf("cold %.3f ms, warm %.3f ms (%.1fx), warm hit rate %.1f%%\n",
         cold * 1e3, warm * 1e3, warm > 0 ? cold / warm : 0.0, hit_pct);

  // Undersized pool: the read table's working set far exceeds 64 KiB, so
  // loading + scanning must cycle pages through eviction — and the scan
  // must still see every row.
  DatabaseOptions small_options;
  small_options.filestream_root = config.work_dir + "_smallpool_fs";
  small_options.buffer_pool_bytes = 64 * 1024;
  auto small_db = CheckOk(Database::Open("table1_smallpool", small_options),
                          "open small-pool db");
  CheckOk(small_db->filestream()->Clear(), "clear small-pool store");
  sql::SqlEngine small_engine(small_db.get());
  workflow::SchemaOptions schema_options;
  schema_options.suffix = "_sp";
  CheckOk(workflow::CreateGenomicsSchema(&small_engine, schema_options),
          "small-pool schema");
  const uint64_t evictions_before = PoolCounter("bufferpool.evict");
  CheckOk(workflow::LoadReads(small_db.get(), "Read_sp", lane.reads,
                              {1, 1, 1}),
          "small-pool load");
  const int64_t small_rows = CountRows(&small_engine, "Read_sp");
  const uint64_t evictions = PoolCounter("bufferpool.evict") -
                             evictions_before;
  if (small_rows != expected || evictions == 0) {
    fprintf(stderr,
            "FATAL small-pool scan: %lld rows (want %lld), %llu evictions "
            "(want > 0)\n",
            static_cast<long long>(small_rows),
            static_cast<long long>(expected),
            static_cast<unsigned long long>(evictions));
    exit(1);
  }
  report.AddValue("small_pool_evictions", static_cast<double>(evictions),
                  "count");
  printf("64 KiB pool: %llu evictions, scan still %lld rows\n",
         static_cast<unsigned long long>(evictions),
         static_cast<long long>(small_rows));
  report.Write();
}

void Run() {
  LaneConfig config;
  config.dge = true;
  config.num_reads = Scaled(60'000);
  config.dge_genes = static_cast<int>(Scaled(4'000));
  config.work_dir = "/tmp/htgdb_bench_table1";
  printf("== Table 1: storage efficiency, digital gene expression ==\n");
  printf("lane: %llu reads, %llu-base reference, HTG_SCALE=%.2f\n\n",
         static_cast<unsigned long long>(config.num_reads),
         static_cast<unsigned long long>(config.reference_bases), Scale());
  BenchReport report("table1_storage_dge");
  report.SetConfig("scale", Scale());
  report.SetConfig("reads", static_cast<double>(config.num_reads));
  Lane lane = MakeLane(config);
  printf("unique tags: %zu, alignments: %zu\n\n", lane.tags.size(),
         lane.alignments.size());

  BenchDb bench = OpenBenchDb("table1");
  Database* db = bench.db.get();
  sql::SqlEngine* engine = bench.engine.get();

  // FileStream: bulk-import the level-1 file into the hybrid design.
  CheckOk(workflow::CreateGenomicsSchema(engine, {}), "create fs schema");
  CheckOk(workflow::ImportFastqAsFileStream(engine, "ShortReadFiles",
                                            lane.fastq_path, 855, 1),
          "filestream import");
  const uint64_t filestream_reads = db->filestream()->TotalBytes();

  // 1:1 import.
  CheckOk(workflow::CreateOneToOneSchema(engine, "_1to1"), "1:1 schema");
  CheckOk(workflow::LoadReadsOneToOne(db, "Read_1to1", lane.reads),
          "load 1:1 reads");
  {
    auto* table = CheckOk(db->GetTable("Tag_1to1"), "tag 1:1");
    for (const genomics::TagCount& t : lane.tags) {
      CheckOk(db->InsertRow(table, Row{Value::Int64(t.rank),
                                       Value::Int64(t.frequency),
                                       Value::String(t.sequence)}),
              "insert 1:1 tag");
    }
  }
  // DGE alignments reference unique tags; the 1:1 import repeats each
  // tag's textual identifier per alignment row, as the MAQ output file
  // does.
  {
    std::vector<genomics::ShortRead> tag_ids;
    tag_ids.reserve(lane.tags.size());
    for (const genomics::TagCount& t : lane.tags) {
      tag_ids.push_back(
          {"tag_855_1_" + std::to_string(t.rank), t.sequence, ""});
    }
    CheckOk(workflow::LoadAlignmentsOneToOne(db, "Alignment_1to1",
                                             lane.alignments, tag_ids,
                                             lane.reference),
            "load 1:1 alignments");
  }

  const std::vector<Variant> variants = {
      {"Normalized", "_n", storage::Compression::kNone},
      {"Norm+ROW", "_row", storage::Compression::kRow},
      {"Norm+PAGE", "_page", storage::Compression::kPage},
  };
  for (const Variant& v : variants) {
    workflow::SchemaOptions options;
    options.suffix = v.suffix;
    options.compression = v.compression;
    CheckOk(workflow::CreateGenomicsSchema(engine, options), "schema");
    CheckOk(workflow::LoadReads(db, "Read" + v.suffix, lane.reads, {1, 1, 1}),
            "load reads");
    CheckOk(workflow::LoadTags(db, "Tag" + v.suffix, lane.tags, {1, 1, 1}),
            "load tags");
    CheckOk(workflow::LoadAlignments(db, "Alignment" + v.suffix,
                                     lane.alignments, {1, 1, 1}),
            "load alignments");
    // Gene expression rows (Query 2 output shape).
    auto* ge = CheckOk(db->GetTable("GeneExpression" + v.suffix), "ge");
    std::vector<genomics::AlignedTag> aligned;
    for (const genomics::Alignment& a : lane.alignments) {
      aligned.push_back({a.chromosome * 1'000'000 + a.position / 1000,
                         a.read_id, lane.tags[a.read_id].frequency});
    }
    for (const genomics::GeneExpression& g :
         genomics::AggregateExpression(aligned)) {
      CheckOk(db->InsertRow(
                  ge, Row{Value::Int32(static_cast<int32_t>(g.gene_id)),
                          Value::Int32(1), Value::Int32(1), Value::Int32(1),
                          Value::Int64(g.total_frequency),
                          Value::Int64(g.tag_count)}),
              "insert expression");
    }
  }
  // Gene expression 1:1 (textual gene + sample names).
  {
    auto* table = CheckOk(db->GetTable("GeneExpression_1to1"), "ge 1:1");
    std::vector<genomics::AlignedTag> aligned;
    for (const genomics::Alignment& a : lane.alignments) {
      aligned.push_back({a.chromosome * 1'000'000 + a.position / 1000,
                         a.read_id, lane.tags[a.read_id].frequency});
    }
    for (const genomics::GeneExpression& g :
         genomics::AggregateExpression(aligned)) {
      CheckOk(db->InsertRow(
                  table,
                  Row{Value::String("gene_" + std::to_string(g.gene_id)),
                      Value::String("sample_855_lane_1"),
                      Value::Int64(g.total_frequency),
                      Value::Int64(g.tag_count)}),
              "insert 1:1 expression");
    }
  }

  struct DataSet {
    std::string label;
    uint64_t files;
    uint64_t filestream;
    std::string table;
  };
  const std::vector<DataSet> datasets = {
      {"Short Reads (level-1)", FileBytes(lane.fastq_path), filestream_reads,
       "Read"},
      {"Unique Tags", FileBytes(lane.tags_path), 0, "Tag"},
      {"Alignments (level-2)", FileBytes(lane.alignments_path), 0,
       "Alignment"},
      {"Gene Expression (level-3)", FileBytes(lane.expression_path), 0,
       "GeneExpression"},
  };

  TablePrinter table({"Data set", "Files", "FileStream", "1:1 import",
                      "Normalized", "Norm+ROW", "Norm+PAGE"});
  for (const DataSet& d : datasets) {
    const uint64_t base = d.files;
    table.AddRow({
        d.label,
        HumanBytes(d.files),
        d.filestream > 0 ? BytesCell(d.filestream, base) : "-",
        BytesCell(TableBytes(db, d.table + "_1to1"), base),
        BytesCell(TableBytes(db, d.table + "_n"), base),
        BytesCell(TableBytes(db, d.table + "_row"), base),
        BytesCell(TableBytes(db, d.table + "_page"), base),
    });
    report.AddValue(d.table + "_files", static_cast<double>(d.files),
                    "bytes");
    for (const char* suffix : {"_1to1", "_n", "_row", "_page"}) {
      report.AddValue(d.table + suffix,
                      static_cast<double>(TableBytes(db, d.table + suffix)),
                      "bytes");
    }
  }
  report.AddValue("Read_filestream", static_cast<double>(filestream_reads),
                  "bytes");
  printf("\n");
  table.Print();
  printf(
      "\nPaper shape check: FileStream == Files; 1:1 > Files; "
      "PAGE < ROW < Normalized on repetitive DGE data.\n");
  report.Write();

  RunBufferPoolSweep(db, engine, lane, config);
}

}  // namespace
}  // namespace htg::bench

int main() {
  htg::bench::Run();
  return 0;
}
