// Randomized property tests over the storage and parsing invariants the
// rest of the system leans on: codecs must round-trip arbitrary rows at
// every compression level, pages must return exactly the rows that went
// in, the B+-tree must agree with std::multimap, chunk parsers must be
// insensitive to buffer split points, and LIKE must agree with a
// reference matcher.

#include <gtest/gtest.h>

#include <map>

#include "common/random.h"
#include "exec/expression.h"
#include "exec/operator.h"
#include "genomics/dna_sequence.h"
#include "genomics/formats.h"
#include "genomics/nucleotide.h"
#include "storage/bplus_tree.h"
#include "storage/heap_table.h"
#include "storage/page.h"
#include "storage/row_codec.h"

namespace htg {
namespace {

using storage::Compression;

// Random schema of 1..8 columns over all types, with occasional CHAR(n)
// and UTF-16 columns.
Schema RandomSchema(Random* rng) {
  Schema schema;
  const int ncols = 1 + static_cast<int>(rng->Uniform(8));
  for (int i = 0; i < ncols; ++i) {
    Column col;
    col.name = "c" + std::to_string(i);
    switch (rng->Uniform(6)) {
      case 0:
        col.type = DataType::kBool;
        break;
      case 1:
        col.type = DataType::kInt32;
        break;
      case 2:
        col.type = DataType::kInt64;
        break;
      case 3:
        col.type = DataType::kDouble;
        break;
      case 4:
        col.type = DataType::kString;
        if (rng->Bernoulli(0.3)) {
          col.fixed_length = 1 + static_cast<int>(rng->Uniform(20));
        }
        if (rng->Bernoulli(0.3)) col.utf16 = true;
        break;
      default:
        col.type = DataType::kBlob;
        break;
    }
    schema.AddColumn(std::move(col));
  }
  return schema;
}

std::string RandomAscii(Random* rng, size_t max_len) {
  std::string s;
  const size_t len = rng->Uniform(max_len + 1);
  for (size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>(' ' + rng->Uniform(95)));
  }
  return s;
}

Value RandomValue(Random* rng, const Column& col) {
  if (rng->Bernoulli(0.15)) return Value::Null();
  switch (col.type) {
    case DataType::kBool:
      return Value::Bool(rng->Bernoulli(0.5));
    case DataType::kInt32:
      return Value::Int32(static_cast<int32_t>(rng->Next()));
    case DataType::kInt64:
      return Value::Int64(static_cast<int64_t>(rng->Next()));
    case DataType::kDouble:
      return Value::Double(rng->NextDouble() * 1e6 - 5e5);
    case DataType::kString: {
      if (col.fixed_length > 0) {
        // Stay within the declared width; avoid trailing blanks which
        // CHAR(n) round-trips as padding by design.
        std::string s = RandomAscii(rng, col.fixed_length);
        while (!s.empty() && s.back() == ' ') s.pop_back();
        return Value::String(std::move(s));
      }
      return Value::String(RandomAscii(rng, 60));
    }
    case DataType::kBlob: {
      std::string s;
      const size_t len = rng->Uniform(40);
      for (size_t i = 0; i < len; ++i) {
        s.push_back(static_cast<char>(rng->Uniform(256)));
      }
      return Value::Blob(std::move(s));
    }
    case DataType::kGuid:
      return Value::Guid("0b9e612c-8e6a-4f7a-9d26-00124a39b19c");
  }
  return Value::Null();
}

// CHAR(n) decodes blank-padded under NONE; normalize for comparison.
std::string ExpectedString(const Column& col, const Value& v,
                           Compression mode) {
  std::string s = v.AsString();
  if (col.type == DataType::kString && col.fixed_length > 0) {
    if (mode == Compression::kNone) {
      s = s.substr(0, col.fixed_length);
      s.resize(col.fixed_length, ' ');
    } else {
      if (s.size() > static_cast<size_t>(col.fixed_length)) {
        s = s.substr(0, col.fixed_length);
      }
      while (!s.empty() && s.back() == ' ') s.pop_back();
    }
  }
  return s;
}

void ExpectRowsEqual(const Schema& schema, const Row& expected,
                     const Row& actual, Compression mode, uint64_t seed) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    const Column& col = schema.column(static_cast<int>(i));
    if (expected[i].is_null()) {
      EXPECT_TRUE(actual[i].is_null()) << "seed=" << seed << " col=" << i;
      continue;
    }
    ASSERT_FALSE(actual[i].is_null()) << "seed=" << seed << " col=" << i;
    if (col.type == DataType::kString || col.type == DataType::kBlob) {
      EXPECT_EQ(actual[i].AsString(), ExpectedString(col, expected[i], mode))
          << "seed=" << seed << " col=" << i;
    } else if (col.type == DataType::kDouble) {
      EXPECT_EQ(actual[i].AsDouble(), expected[i].AsDouble())
          << "seed=" << seed;
    } else {
      EXPECT_EQ(actual[i].AsInt64(), expected[i].AsInt64())
          << "seed=" << seed;
    }
  }
}

class CodecProperty : public ::testing::TestWithParam<Compression> {};

TEST_P(CodecProperty, RandomRowsRoundTrip) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Random rng(seed);
    const Schema schema = RandomSchema(&rng);
    Row row;
    for (const Column& col : schema.columns()) {
      row.push_back(RandomValue(&rng, col));
    }
    std::string encoded;
    ASSERT_TRUE(storage::EncodeRow(schema, row, GetParam(), &encoded).ok());
    Row decoded;
    ASSERT_TRUE(
        storage::DecodeRow(schema, GetParam(), Slice(encoded), &decoded).ok())
        << "seed=" << seed;
    ExpectRowsEqual(schema, row, decoded, GetParam(), seed);
  }
}

TEST_P(CodecProperty, RandomPagesRoundTrip) {
  for (uint64_t seed = 100; seed <= 115; ++seed) {
    Random rng(seed);
    const Schema schema = RandomSchema(&rng);
    const int nrows = 1 + static_cast<int>(rng.Uniform(120));
    std::vector<Row> rows;
    storage::PageBuilder builder(&schema, GetParam());
    for (int i = 0; i < nrows; ++i) {
      Row row;
      for (const Column& col : schema.columns()) {
        row.push_back(RandomValue(&rng, col));
      }
      ASSERT_TRUE(builder.Add(row).ok());
      rows.push_back(std::move(row));
    }
    const std::string page = builder.Finish();
    storage::PageReader reader(&schema, Slice(page));
    ASSERT_TRUE(reader.Init().ok()) << "seed=" << seed;
    ASSERT_EQ(reader.row_count(), nrows);
    Row decoded;
    for (int i = 0; i < nrows; ++i) {
      ASSERT_TRUE(reader.Next(&decoded)) << "seed=" << seed << " row=" << i;
      ExpectRowsEqual(schema, rows[i], decoded, GetParam(), seed);
    }
    EXPECT_FALSE(reader.Next(&decoded));
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, CodecProperty,
                         ::testing::Values(Compression::kNone,
                                           Compression::kRow,
                                           Compression::kPage));

TEST(BPlusTreeProperty, AgreesWithMultimapUnderRandomWorkload) {
  for (uint64_t seed = 200; seed <= 205; ++seed) {
    Random rng(seed);
    storage::BPlusTree tree(4 + static_cast<int>(rng.Uniform(60)));
    std::multimap<std::pair<int64_t, int64_t>, std::string> expected;
    const int n = 500 + static_cast<int>(rng.Uniform(2000));
    for (int i = 0; i < n; ++i) {
      const int64_t k1 = static_cast<int64_t>(rng.Uniform(50));
      const int64_t k2 = static_cast<int64_t>(rng.Uniform(200));
      const std::string payload = std::to_string(i);
      tree.Insert(Row{Value::Int64(k1), Value::Int64(k2)}, payload);
      expected.emplace(std::make_pair(k1, k2), payload);
    }
    ASSERT_EQ(tree.size(), expected.size());
    // Full ordered scan agrees on keys.
    auto cursor = tree.First();
    auto it = expected.begin();
    while (cursor.Valid()) {
      ASSERT_NE(it, expected.end()) << "seed=" << seed;
      EXPECT_EQ(cursor.key()[0].AsInt64(), it->first.first);
      EXPECT_EQ(cursor.key()[1].AsInt64(), it->first.second);
      cursor.Advance();
      ++it;
    }
    EXPECT_EQ(it, expected.end());
    // Random prefix seeks agree with lower_bound.
    for (int probe = 0; probe < 50; ++probe) {
      const int64_t k1 = static_cast<int64_t>(rng.Uniform(55));
      auto c = tree.Seek(Row{Value::Int64(k1)});
      auto lb = expected.lower_bound({k1, INT64_MIN});
      if (lb == expected.end()) {
        EXPECT_FALSE(c.Valid()) << "seed=" << seed << " k1=" << k1;
      } else {
        ASSERT_TRUE(c.Valid()) << "seed=" << seed << " k1=" << k1;
        EXPECT_EQ(c.key()[0].AsInt64(), lb->first.first);
        EXPECT_EQ(c.key()[1].AsInt64(), lb->first.second);
      }
    }
  }
}

TEST(FastqChunkProperty, SplitPointInsensitive) {
  // Parse a multi-record buffer through every possible split point with a
  // two-phase "partial then full" feed: results must always match.
  std::vector<genomics::ShortRead> reads;
  Random rng(300);
  for (int i = 0; i < 6; ++i) {
    std::string seq;
    std::string qual;
    const int len = 5 + static_cast<int>(rng.Uniform(30));
    for (int b = 0; b < len; ++b) {
      seq.push_back("ACGTN"[rng.Uniform(5)]);
      qual.push_back(static_cast<char>('!' + rng.Uniform(60)));
    }
    reads.push_back({"r" + std::to_string(i), seq, qual});
  }
  std::string data;
  for (const auto& r : reads) {
    data += "@" + r.name + "\n" + r.sequence + "\n+\n" + r.quality + "\n";
  }
  for (size_t split = 1; split < data.size(); ++split) {
    genomics::FastqChunkParser parser;
    std::vector<genomics::ShortRead> parsed;
    genomics::ShortRead record;
    // Phase 1: only the first `split` bytes are available.
    size_t pos = 0;
    while (parser.ParseRecord(data.data(), split, &pos, &record)) {
      parsed.push_back(record);
    }
    ASSERT_TRUE(parser.status().ok()) << "split=" << split;
    // Phase 2: the full buffer arrives (the pager keeps `pos`).
    while (parser.ParseRecord(data.data(), data.size(), &pos, &record)) {
      parsed.push_back(record);
    }
    ASSERT_TRUE(parser.status().ok()) << "split=" << split;
    ASSERT_EQ(parsed.size(), reads.size()) << "split=" << split;
    for (size_t i = 0; i < reads.size(); ++i) {
      EXPECT_EQ(parsed[i].name, reads[i].name) << "split=" << split;
      EXPECT_EQ(parsed[i].sequence, reads[i].sequence) << "split=" << split;
      EXPECT_EQ(parsed[i].quality, reads[i].quality) << "split=" << split;
    }
  }
}

TEST(DnaSequenceProperty, RandomSequencesRoundTrip) {
  Random rng(400);
  for (int trial = 0; trial < 200; ++trial) {
    std::string text;
    const size_t len = rng.Uniform(300);
    for (size_t i = 0; i < len; ++i) {
      text.push_back("ACGTN"[rng.Uniform(rng.Bernoulli(0.1) ? 5 : 4)]);
    }
    genomics::DnaSequence seq = genomics::DnaSequence::FromText(text);
    EXPECT_EQ(seq.ToText(), text) << "trial=" << trial;
    Result<genomics::DnaSequence> decoded =
        genomics::DnaSequence::FromBlob(seq.ToBlob());
    ASSERT_TRUE(decoded.ok()) << "trial=" << trial;
    EXPECT_TRUE(*decoded == seq) << "trial=" << trial;
  }
}

// Reference implementation of SQL LIKE via recursive matching.
bool ReferenceLike(std::string_view text, std::string_view pattern) {
  if (pattern.empty()) return text.empty();
  if (pattern[0] == '%') {
    for (size_t skip = 0; skip <= text.size(); ++skip) {
      if (ReferenceLike(text.substr(skip), pattern.substr(1))) return true;
    }
    return false;
  }
  if (text.empty()) return false;
  if (pattern[0] != '_' && pattern[0] != text[0]) return false;
  return ReferenceLike(text.substr(1), pattern.substr(1));
}

TEST(LikeProperty, AgreesWithReferenceMatcher) {
  Random rng(500);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string text;
    std::string pattern;
    const size_t tlen = rng.Uniform(8);
    for (size_t i = 0; i < tlen; ++i) text.push_back("AB"[rng.Uniform(2)]);
    const size_t plen = rng.Uniform(8);
    for (size_t i = 0; i < plen; ++i) {
      pattern.push_back("AB%_"[rng.Uniform(4)]);
    }
    EXPECT_EQ(exec::LikeExpr::Match(text, pattern),
              ReferenceLike(text, pattern))
        << "text=" << text << " pattern=" << pattern;
  }
}

TEST(HeapTableProperty, ScanReturnsInsertionOrderAtAnyPageSize) {
  for (size_t page_size : {256u, 1024u, 8192u}) {
    Random rng(600);
    Schema schema;
    schema.AddColumn({.name = "i", .type = DataType::kInt64});
    schema.AddColumn({.name = "s", .type = DataType::kString});
    storage::HeapTable table(schema, Compression::kRow, page_size);
    const int n = 777;
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(
          table.Insert(Row{Value::Int64(i),
                           Value::String(RandomAscii(&rng, 30))})
              .ok());
    }
    auto iter = table.NewScan();
    std::vector<Row> rows;
    ASSERT_TRUE(exec::DrainIterator(iter.get(), &rows).ok());
    int i = 0;
    for (const Row& row : rows) {
      EXPECT_EQ(row[0].AsInt64(), i) << "page_size=" << page_size;
      ++i;
    }
    EXPECT_EQ(i, n);
  }
}

}  // namespace
}  // namespace htg
