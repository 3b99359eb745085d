// Ablation (google-benchmark): row-codec and page-compression throughput
// and effectiveness across NONE/ROW/PAGE, on the two data regimes of the
// paper's storage study (repetitive DGE tags vs unique re-sequencing
// reads). Complements Tables 1/2 with the CPU-side cost of each level.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "common/random.h"
#include "storage/heap_table.h"
#include "storage/page.h"
#include "storage/row_codec.h"

namespace htg::storage {
namespace {

Schema ReadSchema() {
  Schema schema;
  schema.AddColumn({.name = "r_id", .type = DataType::kInt64});
  schema.AddColumn({.name = "tile", .type = DataType::kInt32});
  schema.AddColumn({.name = "seq", .type = DataType::kString});
  schema.AddColumn({.name = "qual", .type = DataType::kString});
  return schema;
}

std::vector<Row> MakeRows(int n, bool repetitive) {
  Random rng(131);
  std::vector<std::string> tag_pool;
  for (int i = 0; i < 50; ++i) {
    std::string tag;
    for (int b = 0; b < 36; ++b) tag.push_back("ACGT"[rng.Uniform(4)]);
    tag_pool.push_back(std::move(tag));
  }
  std::vector<Row> rows;
  rows.reserve(n);
  for (int i = 0; i < n; ++i) {
    std::string seq;
    if (repetitive) {
      seq = tag_pool[rng.Zipf(tag_pool.size(), 1.2)];
    } else {
      for (int b = 0; b < 36; ++b) seq.push_back("ACGT"[rng.Uniform(4)]);
    }
    std::string qual;
    for (int b = 0; b < 36; ++b) {
      qual.push_back(static_cast<char>('!' + 20 + rng.Uniform(20)));
    }
    rows.push_back(Row{Value::Int64(i), Value::Int32(i % 300),
                       Value::String(std::move(seq)),
                       Value::String(std::move(qual))});
  }
  return rows;
}

void BM_EncodeRow(benchmark::State& state) {
  const Schema schema = ReadSchema();
  const Compression mode = static_cast<Compression>(state.range(0));
  const std::vector<Row> rows = MakeRows(1000, false);
  size_t i = 0;
  size_t bytes = 0;
  for (auto _ : state) {
    std::string out;
    bench::CheckOk(EncodeRow(schema, rows[i % rows.size()], mode, &out),
                   "EncodeRow");
    bytes += out.size();
    benchmark::DoNotOptimize(out);
    ++i;
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
  state.SetLabel(std::string(CompressionName(mode)));
}
BENCHMARK(BM_EncodeRow)->Arg(0)->Arg(1);

void BM_DecodeRow(benchmark::State& state) {
  const Schema schema = ReadSchema();
  const Compression mode = static_cast<Compression>(state.range(0));
  const std::vector<Row> rows = MakeRows(1000, false);
  std::vector<std::string> encoded;
  for (const Row& r : rows) {
    std::string out;
    bench::CheckOk(EncodeRow(schema, r, mode, &out), "EncodeRow");
    encoded.push_back(std::move(out));
  }
  size_t i = 0;
  for (auto _ : state) {
    Row row;
    bench::CheckOk(
        DecodeRow(schema, mode, Slice(encoded[i % encoded.size()]), &row),
        "DecodeRow");
    benchmark::DoNotOptimize(row);
    ++i;
  }
  state.SetLabel(std::string(CompressionName(mode)));
}
BENCHMARK(BM_DecodeRow)->Arg(0)->Arg(1);

// Full page build+scan cycle per mode and regime; reports achieved
// compression ratio as a counter.
void BM_PageCycle(benchmark::State& state) {
  const Schema schema = ReadSchema();
  const Compression mode = static_cast<Compression>(state.range(0));
  const bool repetitive = state.range(1) == 1;
  const std::vector<Row> rows = MakeRows(80, repetitive);
  double ratio = 0;
  for (auto _ : state) {
    PageBuilder builder(&schema, mode);
    size_t raw = 0;
    for (const Row& r : rows) {
      bench::CheckOk(builder.Add(r), "PageBuilder::Add");
    }
    raw = builder.raw_bytes();
    const std::string page = builder.Finish();
    ratio = static_cast<double>(page.size()) / raw;
    PageReader reader(&schema, Slice(page));
    bench::CheckOk(reader.Init(), "PageReader::Init");
    Row row;
    int count = 0;
    while (reader.Next(&row)) ++count;
    benchmark::DoNotOptimize(count);
  }
  state.counters["compressed_ratio"] = ratio;
  state.SetLabel(std::string(CompressionName(mode)) +
                 (repetitive ? "/dge" : "/unique"));
}
BENCHMARK(BM_PageCycle)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({2, 1});

// Insert+scan throughput of a heap table per compression mode.
void BM_HeapInsertScan(benchmark::State& state) {
  const Compression mode = static_cast<Compression>(state.range(0));
  const std::vector<Row> rows = MakeRows(2000, true);
  for (auto _ : state) {
    HeapTable table(ReadSchema(), mode);
    for (const Row& r : rows) bench::CheckOk(table.Insert(r), "Insert");
    auto iter = table.NewScan();
    RowBatch batch;
    int count = 0;
    while (iter->NextBatch(&batch)) count += static_cast<int>(batch.num_rows());
    if (count != static_cast<int>(rows.size())) state.SkipWithError("lost rows");
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows.size()));
  state.SetLabel(std::string(CompressionName(mode)));
}
BENCHMARK(BM_HeapInsertScan)->Arg(0)->Arg(1)->Arg(2);

}  // namespace
}  // namespace htg::storage

BENCHMARK_MAIN();
