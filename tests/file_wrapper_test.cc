#include <gtest/gtest.h>

#include "catalog/database.h"
#include "exec/operator.h"
#include "genomics/file_wrapper.h"
#include "genomics/register.h"
#include "genomics/simulator.h"
#include "sql/engine.h"

namespace htg::genomics {
namespace {

class FileWrapperTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static int counter = 0;
    DatabaseOptions options;
    options.filestream_root =
        "/tmp/htg_fwrap_test_" + std::to_string(counter++);
    auto db = Database::Open("fwrap", options);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    ASSERT_TRUE(db_->filestream()->Clear().ok());
    ASSERT_TRUE(RegisterGenomicsExtensions(db_.get()).ok());

    ReferenceGenome ref = ReferenceGenome::Random(20000, 2, 81);
    SimulatorOptions sim_options;
    sim_options.seed = 82;
    ReadSimulator sim(&ref, sim_options);
    reads_ = sim.SimulateResequencing(500);
  }

  std::string WriteBlob(const std::string& content) {
    auto path = db_->filestream()->CreateBlob("test.dat", content);
    EXPECT_TRUE(path.ok());
    return *path;
  }

  std::unique_ptr<Database> db_;
  std::vector<ShortRead> reads_;
};

// The central Fig. 5 property: the chunk pager must produce identical
// records regardless of the chunk size — including chunk sizes that split
// every record across buffer refills.
class ChunkSizeSweep : public FileWrapperTest,
                       public ::testing::WithParamInterface<size_t> {};

TEST_P(ChunkSizeSweep, FastqRecordsIdenticalAcrossChunkSizes) {
  const std::string fastq = "/tmp/htg_fwrap_sweep.fastq";
  ASSERT_TRUE(WriteFastqFile(fastq, reads_).ok());
  const std::string blob =
      *db_->filestream()->ImportFile(fastq, "sweep.fastq");
  auto stream = db_->filestream()->OpenStream(blob);
  ASSERT_TRUE(stream.ok());
  ShortReadStreamIterator iter(std::move(*stream), ShortReadFormat::kFastq,
                               GetParam());
  std::vector<Row> rows;
  EXPECT_TRUE(exec::DrainIterator(&iter, &rows).ok());
  size_t i = 0;
  for (const Row& row : rows) {
    ASSERT_LT(i, reads_.size());
    EXPECT_EQ(row[0].AsString(), reads_[i].name) << "chunk=" << GetParam();
    EXPECT_EQ(row[1].AsString(), reads_[i].sequence);
    EXPECT_EQ(row[2].AsString(), reads_[i].quality);
    ++i;
  }
  EXPECT_TRUE(iter.status().ok()) << iter.status().ToString();
  EXPECT_EQ(i, reads_.size());
}

INSTANTIATE_TEST_SUITE_P(Paging, ChunkSizeSweep,
                         ::testing::Values(4096, 4097, 8192, 65536, 1 << 20));

TEST_F(FileWrapperTest, FastaStreamingMatchesWholeFileParse) {
  const std::string fasta = "/tmp/htg_fwrap_stream.fasta";
  ASSERT_TRUE(WriteFastaFile(fasta, reads_, 30).ok());
  const std::string blob = *db_->filestream()->ImportFile(fasta, "s.fasta");
  auto stream = db_->filestream()->OpenStream(blob);
  ASSERT_TRUE(stream.ok());
  ShortReadStreamIterator iter(std::move(*stream), ShortReadFormat::kFasta,
                               4096);
  std::vector<Row> rows;
  EXPECT_TRUE(exec::DrainIterator(&iter, &rows).ok());
  size_t i = 0;
  for (const Row& row : rows) {
    EXPECT_EQ(row[1].AsString(), reads_[i].sequence);
    ++i;
  }
  EXPECT_EQ(i, reads_.size());
}

TEST_F(FileWrapperTest, SchemaDependsOnFormat) {
  EXPECT_EQ(ShortReadSchema(ShortReadFormat::kFastq).num_columns(), 3);
  EXPECT_EQ(ShortReadSchema(ShortReadFormat::kFasta).num_columns(), 2);
  ListShortReadsTvf tvf;
  Schema fq = *tvf.BindSchema(
      {Value::Int32(1), Value::Int32(1), Value::String("FastQ")});
  EXPECT_EQ(fq.num_columns(), 3);
  Schema fa = *tvf.BindSchema(
      {Value::Int32(1), Value::Int32(1), Value::String("Fasta")});
  EXPECT_EQ(fa.num_columns(), 2);
  EXPECT_FALSE(
      tvf.BindSchema({Value::Int32(1), Value::Int32(1), Value::String("HDF5")})
          .ok());
}

TEST_F(FileWrapperTest, ListShortReadsErrorsWithoutTable) {
  ListShortReadsTvf tvf;
  auto iter = tvf.Open({Value::Int32(855), Value::Int32(1)}, db_.get());
  EXPECT_FALSE(iter.ok());  // no ShortReadFiles table yet
}

TEST_F(FileWrapperTest, ListShortReadsFindsLane) {
  sql::SqlEngine engine(db_.get());
  ASSERT_TRUE(engine
                  .Execute("CREATE TABLE ShortReadFiles ("
                           "guid UNIQUEIDENTIFIER ROWGUIDCOL PRIMARY KEY,"
                           "sample INT, lane INT,"
                           "reads VARBINARY(MAX) FILESTREAM)")
                  .ok());
  const std::string fastq = "/tmp/htg_fwrap_lane.fastq";
  ASSERT_TRUE(WriteFastqFile(fastq, reads_).ok());
  ASSERT_TRUE(engine
                  .Execute("INSERT INTO ShortReadFiles "
                           "SELECT NEWID(), 855, 2, * FROM OPENROWSET(BULK '" +
                           fastq + "', SINGLE_BLOB)")
                  .ok());
  // Wrong lane → NotFound; right lane streams.
  EXPECT_FALSE(FindShortReadBlob(db_.get(), 855, 1).ok());
  EXPECT_TRUE(FindShortReadBlob(db_.get(), 855, 2).ok());
  auto count = engine.Execute(
      "SELECT COUNT(*) FROM ListShortReads(855, 2, 'FastQ')");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0].AsInt64(),
            static_cast<int64_t>(reads_.size()));
}

TEST_F(FileWrapperTest, ChunkSizeArgumentRespected) {
  const std::string fastq = "/tmp/htg_fwrap_chunkarg.fastq";
  ASSERT_TRUE(WriteFastqFile(fastq, reads_).ok());
  const std::string blob = *db_->filestream()->ImportFile(fastq, "c.fastq");
  sql::SqlEngine engine(db_.get());
  // 4 KiB chunks through the SQL surface.
  auto result = engine.Execute("SELECT COUNT(*) FROM ReadFastqFile('" + blob +
                               "', 4)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows[0][0].AsInt64(), static_cast<int64_t>(reads_.size()));
}

TEST_F(FileWrapperTest, CorruptBlobSurfacesError) {
  const std::string blob = WriteBlob("this is not fastq\nat all\n");
  auto stream = db_->filestream()->OpenStream(blob);
  ASSERT_TRUE(stream.ok());
  ShortReadStreamIterator iter(std::move(*stream), ShortReadFormat::kFastq);
  std::vector<Row> rows;
  EXPECT_FALSE(exec::DrainIterator(&iter, &rows).ok());
  EXPECT_TRUE(rows.empty());
  EXPECT_FALSE(iter.status().ok());
}

TEST_F(FileWrapperTest, EmptyBlobYieldsNoRows) {
  const std::string blob = WriteBlob("");
  auto stream = db_->filestream()->OpenStream(blob);
  ASSERT_TRUE(stream.ok());
  ShortReadStreamIterator iter(std::move(*stream), ShortReadFormat::kFastq);
  std::vector<Row> rows;
  EXPECT_TRUE(exec::DrainIterator(&iter, &rows).ok());
  EXPECT_TRUE(rows.empty());
}

TEST_F(FileWrapperTest, BytesReadTracksFileSize) {
  const std::string fastq = "/tmp/htg_fwrap_bytes.fastq";
  ASSERT_TRUE(WriteFastqFile(fastq, reads_).ok());
  const std::string blob = *db_->filestream()->ImportFile(fastq, "b.fastq");
  auto stream = db_->filestream()->OpenStream(blob);
  ASSERT_TRUE(stream.ok());
  const uint64_t file_size = (*stream)->size();
  ShortReadStreamIterator iter(std::move(*stream), ShortReadFormat::kFastq);
  std::vector<Row> rows;
  EXPECT_TRUE(exec::DrainIterator(&iter, &rows).ok());
  EXPECT_EQ(iter.bytes_read(), file_size);
}

}  // namespace
}  // namespace htg::genomics
