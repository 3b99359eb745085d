#include <gtest/gtest.h>

#include <filesystem>
#include <map>

#include "common/random.h"
#include "exec/operator.h"
#include "storage/bplus_tree.h"
#include "storage/clustered_table.h"
#include "storage/filestream.h"
#include "storage/heap_table.h"
#include "storage/page.h"
#include "storage/row_codec.h"
#include "storage/transaction.h"

namespace htg::storage {
namespace {

Schema TestSchema() {
  Schema schema;
  schema.AddColumn({.name = "id", .type = DataType::kInt64});
  schema.AddColumn({.name = "lane", .type = DataType::kInt32});
  schema.AddColumn({.name = "seq", .type = DataType::kString});
  Column fixed;
  fixed.name = "code";
  fixed.type = DataType::kString;
  fixed.fixed_length = 8;
  schema.AddColumn(fixed);
  schema.AddColumn({.name = "score", .type = DataType::kDouble});
  return schema;
}

Row TestRow(int64_t id) {
  return Row{Value::Int64(id), Value::Int32(static_cast<int32_t>(id % 8)),
             Value::String("ACGT" + std::to_string(id)),
             Value::String("AB"), Value::Double(id * 0.5)};
}

class RowCodecTest : public ::testing::TestWithParam<Compression> {};

TEST_P(RowCodecTest, RoundTrip) {
  const Schema schema = TestSchema();
  const Row row = TestRow(12345);
  std::string encoded;
  ASSERT_TRUE(EncodeRow(schema, row, GetParam(), &encoded).ok());
  Row decoded;
  ASSERT_TRUE(DecodeRow(schema, GetParam(), Slice(encoded), &decoded).ok());
  ASSERT_EQ(decoded.size(), row.size());
  EXPECT_EQ(decoded[0].AsInt64(), 12345);
  EXPECT_EQ(decoded[1].AsInt64(), 12345 % 8);
  EXPECT_EQ(decoded[2].AsString(), "ACGT12345");
  EXPECT_EQ(decoded[4].AsDouble(), 12345 * 0.5);
}

TEST_P(RowCodecTest, NullsRoundTrip) {
  const Schema schema = TestSchema();
  Row row(5, Value::Null());
  std::string encoded;
  ASSERT_TRUE(EncodeRow(schema, row, GetParam(), &encoded).ok());
  Row decoded;
  ASSERT_TRUE(DecodeRow(schema, GetParam(), Slice(encoded), &decoded).ok());
  for (const Value& v : decoded) EXPECT_TRUE(v.is_null());
}

INSTANTIATE_TEST_SUITE_P(AllModes, RowCodecTest,
                         ::testing::Values(Compression::kNone,
                                           Compression::kRow,
                                           Compression::kPage));

TEST(RowCodecTest, FixedCharPaddedUncompressed) {
  Schema schema;
  Column fixed;
  fixed.name = "code";
  fixed.type = DataType::kString;
  fixed.fixed_length = 8;
  schema.AddColumn(fixed);
  Row row{Value::String("AB")};
  std::string none_encoded;
  ASSERT_TRUE(EncodeRow(schema, row, Compression::kNone, &none_encoded).ok());
  std::string row_encoded;
  ASSERT_TRUE(EncodeRow(schema, row, Compression::kRow, &row_encoded).ok());
  // NONE pads to 8; ROW trims trailing blanks.
  EXPECT_GT(none_encoded.size(), row_encoded.size());
  Row decoded;
  ASSERT_TRUE(
      DecodeRow(schema, Compression::kNone, Slice(none_encoded), &decoded).ok());
  EXPECT_EQ(decoded[0].AsString(), "AB      ");
  ASSERT_TRUE(
      DecodeRow(schema, Compression::kRow, Slice(row_encoded), &decoded).ok());
  EXPECT_EQ(decoded[0].AsString(), "AB");
}

TEST(RowCodecTest, RowCompressionShrinksSmallIntegers) {
  Schema schema;
  schema.AddColumn({.name = "a", .type = DataType::kInt64});
  schema.AddColumn({.name = "b", .type = DataType::kInt32});
  Row row{Value::Int64(3), Value::Int32(7)};
  std::string none_encoded, row_encoded;
  ASSERT_TRUE(EncodeRow(schema, row, Compression::kNone, &none_encoded).ok());
  ASSERT_TRUE(EncodeRow(schema, row, Compression::kRow, &row_encoded).ok());
  EXPECT_EQ(none_encoded.size(), 1u + 8 + 4);  // bitmap + fixed widths
  EXPECT_EQ(row_encoded.size(), 1u + 1 + 1);   // bitmap + varints
}

TEST(RowCodecTest, GuidPacksTo16Bytes) {
  const std::string guid = "0b9e612c-8e6a-4f7a-9d26-00124a39b19c";
  EXPECT_EQ(GuidToBytes(guid).size(), 16u);
  EXPECT_EQ(BytesToGuid(GuidToBytes(guid)), guid);
  Schema schema;
  schema.AddColumn({.name = "g", .type = DataType::kGuid});
  Row row{Value::Guid(guid)};
  std::string encoded;
  ASSERT_TRUE(EncodeRow(schema, row, Compression::kNone, &encoded).ok());
  EXPECT_EQ(encoded.size(), 1u + 1 + 16);
  Row decoded;
  ASSERT_TRUE(
      DecodeRow(schema, Compression::kNone, Slice(encoded), &decoded).ok());
  EXPECT_EQ(decoded[0].AsString(), guid);
}

TEST(RowCodecTest, CorruptRowDetected) {
  const Schema schema = TestSchema();
  std::string encoded;
  ASSERT_TRUE(EncodeRow(schema, TestRow(1), Compression::kRow, &encoded).ok());
  Row decoded;
  EXPECT_FALSE(DecodeRow(schema, Compression::kRow,
                         Slice(encoded.data(), encoded.size() / 2), &decoded)
                   .ok());
}

class PageTest : public ::testing::TestWithParam<Compression> {};

TEST_P(PageTest, BuildAndReadBack) {
  const Schema schema = TestSchema();
  PageBuilder builder(&schema, GetParam());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(builder.Add(TestRow(i)).ok());
  }
  const std::string page = builder.Finish();
  PageReader reader(&schema, Slice(page));
  ASSERT_TRUE(reader.Init().ok());
  EXPECT_EQ(reader.row_count(), 50);
  Row row;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(reader.Next(&row)) << i;
    EXPECT_EQ(row[0].AsInt64(), i);
    EXPECT_EQ(row[2].AsString(), "ACGT" + std::to_string(i));
  }
  EXPECT_FALSE(reader.Next(&row));
  EXPECT_TRUE(reader.status().ok());
}

TEST_P(PageTest, NullsInPage) {
  const Schema schema = TestSchema();
  PageBuilder builder(&schema, GetParam());
  Row with_nulls = TestRow(1);
  with_nulls[2] = Value::Null();
  with_nulls[4] = Value::Null();
  ASSERT_TRUE(builder.Add(with_nulls).ok());
  ASSERT_TRUE(builder.Add(TestRow(2)).ok());
  const std::string page = builder.Finish();
  PageReader reader(&schema, Slice(page));
  ASSERT_TRUE(reader.Init().ok());
  Row row;
  ASSERT_TRUE(reader.Next(&row));
  EXPECT_TRUE(row[2].is_null());
  EXPECT_TRUE(row[4].is_null());
  EXPECT_EQ(row[0].AsInt64(), 1);
  ASSERT_TRUE(reader.Next(&row));
  EXPECT_EQ(row[2].AsString(), "ACGT2");
}

INSTANTIATE_TEST_SUITE_P(AllModes, PageTest,
                         ::testing::Values(Compression::kNone,
                                           Compression::kRow,
                                           Compression::kPage));

TEST(PageCompressionTest, DictionaryShrinksRepetitiveColumns) {
  Schema schema;
  schema.AddColumn({.name = "tag", .type = DataType::kString});
  // Highly repetitive values (the DGE regime): dictionary should collapse
  // the page to a fraction of the row-compressed size.
  PageBuilder page_builder(&schema, Compression::kPage);
  PageBuilder row_builder(&schema, Compression::kRow);
  for (int i = 0; i < 200; ++i) {
    Row row{Value::String("ACGTACGTACGTACGTACGT" + std::to_string(i % 4))};
    ASSERT_TRUE(page_builder.Add(row).ok());
    ASSERT_TRUE(row_builder.Add(row).ok());
  }
  const std::string page_compressed = page_builder.Finish();
  const std::string row_compressed = row_builder.Finish();
  EXPECT_LT(page_compressed.size(), row_compressed.size() / 3);
}

TEST(PageCompressionTest, UniqueValuesGainLittle) {
  Schema schema;
  schema.AddColumn({.name = "read", .type = DataType::kString});
  Random rng(3);
  PageBuilder page_builder(&schema, Compression::kPage);
  PageBuilder row_builder(&schema, Compression::kRow);
  for (int i = 0; i < 150; ++i) {
    std::string seq;
    for (int b = 0; b < 36; ++b) seq.push_back("ACGT"[rng.Uniform(4)]);
    Row row{Value::String(seq)};
    ASSERT_TRUE(page_builder.Add(row).ok());
    ASSERT_TRUE(row_builder.Add(row).ok());
  }
  const std::string page_compressed = page_builder.Finish();
  const std::string row_compressed = row_builder.Finish();
  // The 1000-Genomes regime of §5.1.2: compression is much less effective;
  // allow at most ~15% difference either way.
  EXPECT_GT(page_compressed.size(), row_compressed.size() * 85 / 100);
}

TEST(HeapTableTest, InsertScanRoundTrip) {
  HeapTable table(TestSchema(), Compression::kRow, 1024);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(table.Insert(TestRow(i)).ok());
  }
  EXPECT_EQ(table.num_rows(), 500u);
  auto iter = table.NewScan();
  std::vector<Row> rows;
  ASSERT_TRUE(exec::DrainIterator(iter.get(), &rows).ok());
  int count = 0;
  for (const Row& row : rows) {
    EXPECT_EQ(row[0].AsInt64(), count);
    ++count;
  }
  EXPECT_EQ(count, 500);
  EXPECT_GT(table.Stats().pages, 1u);
}

TEST(HeapTableTest, RangeScansPartitionCompletely) {
  HeapTable table(TestSchema(), Compression::kNone, 512);
  for (int i = 0; i < 300; ++i) ASSERT_TRUE(table.Insert(TestRow(i)).ok());
  ASSERT_TRUE(table.SealCurrentPage().ok());
  const size_t pages = table.num_pages_sealed();
  ASSERT_GT(pages, 3u);
  int total = 0;
  const int parts = 3;
  for (int p = 0; p < parts; ++p) {
    auto iter = table.NewScanRange(pages * p / parts, pages * (p + 1) / parts);
    std::vector<Row> rows;
    EXPECT_TRUE(exec::DrainIterator(iter.get(), &rows).ok());
    total += static_cast<int>(rows.size());
  }
  EXPECT_EQ(total, 300);
}

TEST(HeapTableTest, TruncateToRowsUndoesAppends) {
  HeapTable table(TestSchema(), Compression::kRow, 512);
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(table.Insert(TestRow(i)).ok());
  for (int i = 100; i < 177; ++i) ASSERT_TRUE(table.Insert(TestRow(i)).ok());
  ASSERT_TRUE(table.TruncateToRows(100).ok());
  EXPECT_EQ(table.num_rows(), 100u);
  auto iter = table.NewScan();
  std::vector<Row> rows;
  ASSERT_TRUE(exec::DrainIterator(iter.get(), &rows).ok());
  int count = 0;
  for (const Row& row : rows) {
    EXPECT_EQ(row[0].AsInt64(), count);
    ++count;
  }
  EXPECT_EQ(count, 100);
}

TEST(HeapTableTest, TruncateClearsAll) {
  HeapTable table(TestSchema(), Compression::kNone);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(table.Insert(TestRow(i)).ok());
  table.Truncate();
  EXPECT_EQ(table.num_rows(), 0u);
  auto iter = table.NewScan();
  RowBatch batch;
  EXPECT_FALSE(iter->NextBatch(&batch));
}

TEST(BPlusTreeTest, OrderedScanMatchesMultimap) {
  BPlusTree tree(16);
  std::multimap<int64_t, std::string> expected;
  Random rng(5);
  for (int i = 0; i < 2000; ++i) {
    const int64_t key = static_cast<int64_t>(rng.Uniform(500));
    const std::string payload = "p" + std::to_string(i);
    tree.Insert(Row{Value::Int64(key)}, payload);
    expected.emplace(key, payload);
  }
  EXPECT_EQ(tree.size(), 2000u);
  auto cursor = tree.First();
  auto it = expected.begin();
  int64_t prev = INT64_MIN;
  size_t n = 0;
  while (cursor.Valid()) {
    ASSERT_NE(it, expected.end());
    const int64_t key = cursor.key()[0].AsInt64();
    EXPECT_GE(key, prev);
    EXPECT_EQ(key, it->first);
    prev = key;
    cursor.Advance();
    ++it;
    ++n;
  }
  EXPECT_EQ(n, expected.size());
}

TEST(BPlusTreeTest, SeekFindsLowerBound) {
  BPlusTree tree(8);
  for (int i = 0; i < 100; ++i) {
    tree.Insert(Row{Value::Int64(i * 10)}, std::to_string(i));
  }
  auto cursor = tree.Seek(Row{Value::Int64(255)});
  ASSERT_TRUE(cursor.Valid());
  EXPECT_EQ(cursor.key()[0].AsInt64(), 260);
  cursor = tree.Seek(Row{Value::Int64(0)});
  ASSERT_TRUE(cursor.Valid());
  EXPECT_EQ(cursor.key()[0].AsInt64(), 0);
  cursor = tree.Seek(Row{Value::Int64(99999)});
  EXPECT_FALSE(cursor.Valid());
}

TEST(BPlusTreeTest, CompositeKeyPrefixSeek) {
  BPlusTree tree(8);
  for (int chr = 0; chr < 5; ++chr) {
    for (int pos = 0; pos < 50; ++pos) {
      tree.Insert(Row{Value::Int32(chr), Value::Int64(pos * 3)}, "x");
    }
  }
  auto cursor = tree.Seek(Row{Value::Int32(2)});
  ASSERT_TRUE(cursor.Valid());
  EXPECT_EQ(cursor.key()[0].AsInt64(), 2);
  EXPECT_EQ(cursor.key()[1].AsInt64(), 0);
  cursor = tree.Seek(Row{Value::Int32(2), Value::Int64(10)});
  ASSERT_TRUE(cursor.Valid());
  EXPECT_EQ(cursor.key()[1].AsInt64(), 12);
}

TEST(BPlusTreeTest, DuplicateKeysAllKept) {
  BPlusTree tree(8);
  for (int i = 0; i < 200; ++i) {
    tree.Insert(Row{Value::Int64(7)}, "dup" + std::to_string(i));
  }
  auto cursor = tree.Seek(Row{Value::Int64(7)});
  int count = 0;
  while (cursor.Valid()) {
    EXPECT_EQ(cursor.key()[0].AsInt64(), 7);
    cursor.Advance();
    ++count;
  }
  EXPECT_EQ(count, 200);
}

TEST(ClusteredTableTest, ScanInKeyOrder) {
  Schema schema;
  schema.AddColumn({.name = "chr", .type = DataType::kInt32});
  schema.AddColumn({.name = "pos", .type = DataType::kInt64});
  schema.AddColumn({.name = "payload", .type = DataType::kString});
  ClusteredTable table(schema, {0, 1}, Compression::kRow);
  Random rng(9);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(table
                    .Insert(Row{Value::Int32(static_cast<int32_t>(
                                    rng.Uniform(4))),
                                Value::Int64(static_cast<int64_t>(
                                    rng.Uniform(1000))),
                                Value::String("v" + std::to_string(i))})
                    .ok());
  }
  auto iter = table.NewScan();
  std::vector<Row> rows;
  ASSERT_TRUE(exec::DrainIterator(iter.get(), &rows).ok());
  Row prev;
  int count = 0;
  for (const Row& row : rows) {
    if (!prev.empty()) {
      EXPECT_LE(CompareRowsOn(prev, row, {0, 1}), 0);
    }
    prev = row;
    ++count;
  }
  EXPECT_EQ(count, 500);
}

TEST(ClusteredTableTest, ScanFromSeeksPrefix) {
  Schema schema;
  schema.AddColumn({.name = "k", .type = DataType::kInt64});
  schema.AddColumn({.name = "v", .type = DataType::kString});
  ClusteredTable table(schema, {0}, Compression::kNone);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(table.Insert(Row{Value::Int64(i), Value::String("x")}).ok());
  }
  auto iter = table.NewScanFrom(Row{Value::Int64(90)});
  ASSERT_TRUE(iter.ok());
  std::vector<Row> rows;
  ASSERT_TRUE(exec::DrainIterator(iter->get(), &rows).ok());
  int count = 0;
  for (const Row& row : rows) {
    EXPECT_GE(row[0].AsInt64(), 90);
    ++count;
  }
  EXPECT_EQ(count, 10);
}

TEST(FileStreamTest, CreateReadDelete) {
  auto store = FileStreamStore::Open("/tmp/htg_fs_test_1");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Clear().ok());
  Result<std::string> path = (*store)->CreateBlob("lane1.fastq", "hello blob");
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(*(*store)->BlobSize(*path), 10u);
  EXPECT_EQ(*(*store)->ReadAll(*path), "hello blob");
  EXPECT_EQ((*store)->TotalBytes(), 10u);
  ASSERT_TRUE((*store)->Delete(*path).ok());
  EXPECT_FALSE((*store)->BlobSize(*path).ok());
}

TEST(FileStreamTest, StreamingReaderChunks) {
  auto store = FileStreamStore::Open("/tmp/htg_fs_test_2");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Clear().ok());
  std::string content;
  for (int i = 0; i < 1000; ++i) content += "0123456789";
  Result<std::string> path = (*store)->CreateBlob("big.bin", content);
  ASSERT_TRUE(path.ok());
  auto reader = (*store)->OpenStream(*path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->size(), content.size());
  std::string assembled;
  char buf[313];
  uint64_t offset = 0;
  for (;;) {
    Result<size_t> n = (*reader)->GetBytes(offset, buf, sizeof(buf));
    ASSERT_TRUE(n.ok());
    if (*n == 0) break;
    assembled.append(buf, *n);
    offset += *n;
  }
  EXPECT_EQ(assembled, content);
  // Random access after sequential reads.
  Result<size_t> n = (*reader)->GetBytes(5, buf, 5);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf, *n), "56789");
}

TEST(FileStreamTest, ImportFileCopiesBytes) {
  auto store = FileStreamStore::Open("/tmp/htg_fs_test_3");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Clear().ok());
  const std::string src = "/tmp/htg_fs_import_src.txt";
  FILE* f = fopen(src.c_str(), "wb");
  fputs("imported content", f);
  fclose(f);
  Result<std::string> path = (*store)->ImportFile(src, "import.txt");
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(*(*store)->ReadAll(*path), "imported content");
  EXPECT_FALSE((*store)->ImportFile("/nonexistent", "x").ok());
}

TEST(TransactionTest, RollbackRunsUndoInReverse) {
  std::vector<int> order;
  {
    Transaction txn;
    txn.OnRollback([&order] { order.push_back(1); });
    txn.OnRollback([&order] { order.push_back(2); });
    txn.Rollback();
  }
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2);
  EXPECT_EQ(order[1], 1);
}

TEST(TransactionTest, CommitSkipsUndo) {
  bool undone = false;
  {
    Transaction txn;
    txn.OnRollback([&undone] { undone = true; });
    txn.Commit();
  }
  EXPECT_FALSE(undone);
}

TEST(TransactionTest, DestructorRollsBackIfActive) {
  bool undone = false;
  {
    Transaction txn;
    txn.OnRollback([&undone] { undone = true; });
  }
  EXPECT_TRUE(undone);
}

}  // namespace
}  // namespace htg::storage
