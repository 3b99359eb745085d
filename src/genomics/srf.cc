#include "genomics/srf.h"

#include <cmath>
#include <cstring>

#include "catalog/database.h"
#include "common/random.h"
#include "common/varint.h"
#include "genomics/nucleotide.h"
#include "storage/vfs.h"

namespace htg::genomics {

namespace {

void PutFloat(std::string* dst, float v) {
  char buf[4];
  memcpy(buf, &v, 4);
  dst->append(buf, 4);
}

const char* GetFloat(const char* p, const char* limit, float* v) {
  if (limit - p < 4) return nullptr;
  memcpy(v, p, 4);
  return p + 4;
}

void EncodeRecord(const SrfRecord& record, std::string* out) {
  PutLengthPrefixed(out, record.read.name);
  PutLengthPrefixed(out, record.read.sequence);
  PutLengthPrefixed(out, record.read.quality);
  PutFloat(out, record.signal_to_noise);
  PutVarint64(out, record.intensities.size());
  for (float f : record.intensities) PutFloat(out, f);
}

const char* DecodeRecord(const char* p, const char* limit, SrfRecord* out) {
  std::string_view name, seq, qual;
  p = GetLengthPrefixed(p, limit, &name);
  if (p == nullptr) return nullptr;
  p = GetLengthPrefixed(p, limit, &seq);
  if (p == nullptr) return nullptr;
  p = GetLengthPrefixed(p, limit, &qual);
  if (p == nullptr) return nullptr;
  p = GetFloat(p, limit, &out->signal_to_noise);
  if (p == nullptr) return nullptr;
  uint64_t n = 0;
  p = GetVarint64(p, limit, &n);
  if (p == nullptr) return nullptr;
  out->intensities.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    p = GetFloat(p, limit, &out->intensities[i]);
    if (p == nullptr) return nullptr;
  }
  out->read.name = std::string(name);
  out->read.sequence = std::string(seq);
  out->read.quality = std::string(qual);
  return p;
}

}  // namespace

Status WriteSrfFile(const std::string& path,
                    const std::vector<SrfRecord>& records) {
  std::string out(kSrfMagic, sizeof(kSrfMagic));
  PutVarint64(&out, records.size());
  for (const SrfRecord& r : records) EncodeRecord(r, &out);
  return storage::WriteFileAtomic(storage::Vfs::Default(), path, out);
}

Result<std::vector<SrfRecord>> ReadSrfFile(const std::string& path) {
  HTG_ASSIGN_OR_RETURN(std::string data,
                       storage::Vfs::Default()->ReadFileToString(path));
  if (data.size() < sizeof(kSrfMagic) ||
      memcmp(data.data(), kSrfMagic, sizeof(kSrfMagic)) != 0) {
    return Status::Corruption("not an SRF container: " + path);
  }
  const char* p = data.data() + sizeof(kSrfMagic);
  const char* limit = data.data() + data.size();
  uint64_t count = 0;
  p = GetVarint64(p, limit, &count);
  if (p == nullptr) return Status::Corruption("bad SRF header");
  std::vector<SrfRecord> records;
  records.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    SrfRecord record;
    p = DecodeRecord(p, limit, &record);
    if (p == nullptr) return Status::Corruption("truncated SRF record");
    records.push_back(std::move(record));
  }
  return records;
}

std::vector<SrfRecord> AttachSrfSignals(const std::vector<ShortRead>& reads,
                                        uint64_t seed) {
  Random rng(seed);
  std::vector<SrfRecord> records;
  records.reserve(reads.size());
  for (const ShortRead& read : reads) {
    SrfRecord record;
    record.read = read;
    record.intensities.reserve(read.sequence.size());
    double snr_accum = 0;
    for (size_t i = 0; i < read.sequence.size(); ++i) {
      const int phred =
          i < read.quality.size() ? CharToPhred(read.quality[i]) : 20;
      // Intensity roughly exponential in quality, with multiplicative
      // noise — the flavour of raw Illumina channel intensities.
      const float intensity = static_cast<float>(
          std::pow(10.0, phred / 20.0) * (0.8 + 0.4 * rng.NextDouble()));
      record.intensities.push_back(intensity);
      snr_accum += phred;
    }
    record.signal_to_noise = static_cast<float>(
        read.sequence.empty() ? 0.0 : snr_accum / read.sequence.size() / 4.0);
    records.push_back(std::move(record));
  }
  return records;
}

namespace {

// Streams an SRF FileStream BLOB record by record with the Fig. 5 chunk
// pager (records are length-delimited, so paging needs only "retry when
// DecodeRecord hits the buffer end").
class SrfStreamIterator : public storage::RowSource {
 public:
  SrfStreamIterator(std::unique_ptr<storage::FileStreamReader> stream,
                    size_t chunk_bytes)
      : stream_(std::move(stream)) {
    buffer_.resize(std::max<size_t>(chunk_bytes, 4096));
  }

  Status status() const override { return status_; }

 protected:
  bool NextRow(Row* row) override {
    if (!status_.ok()) return false;
    if (!header_done_ && !ReadHeader()) return false;
    if (emitted_ >= record_count_) return false;
    SrfRecord record;
    for (;;) {
      const char* p = buffer_.data() + buffer_pos_;
      const char* end = DecodeRecord(p, buffer_.data() + buffer_filled_,
                                     &record);
      if (end != nullptr) {
        buffer_pos_ = end - buffer_.data();
        break;
      }
      if (!ReadChunk()) {
        if (status_.ok()) {
          status_ = Status::Corruption("truncated SRF stream");
        }
        return false;
      }
    }
    ++emitted_;
    double avg_intensity = 0;
    for (float f : record.intensities) avg_intensity += f;
    if (!record.intensities.empty()) {
      avg_intensity /= record.intensities.size();
    }
    row->clear();
    row->push_back(Value::String(std::move(record.read.name)));
    row->push_back(Value::String(std::move(record.read.sequence)));
    row->push_back(Value::String(std::move(record.read.quality)));
    row->push_back(Value::Double(avg_intensity));
    row->push_back(Value::Double(record.signal_to_noise));
    return true;
  }

 private:
  bool ReadHeader() {
    while (buffer_filled_ < sizeof(kSrfMagic) + 10) {
      if (!ReadChunk()) break;
    }
    if (buffer_filled_ < sizeof(kSrfMagic) ||
        memcmp(buffer_.data(), kSrfMagic, sizeof(kSrfMagic)) != 0) {
      status_ = Status::Corruption("not an SRF container");
      return false;
    }
    const char* p = GetVarint64(buffer_.data() + sizeof(kSrfMagic),
                                buffer_.data() + buffer_filled_,
                                &record_count_);
    if (p == nullptr) {
      status_ = Status::Corruption("bad SRF header");
      return false;
    }
    buffer_pos_ = p - buffer_.data();
    header_done_ = true;
    return true;
  }

  bool ReadChunk() {
    const size_t tail = buffer_filled_ - buffer_pos_;
    if (tail > 0 && buffer_pos_ > 0) {
      memmove(buffer_.data(), buffer_.data() + buffer_pos_, tail);
    }
    buffer_pos_ = 0;
    buffer_filled_ = tail;
    if (buffer_filled_ == buffer_.size()) buffer_.resize(buffer_.size() * 2);
    Result<size_t> n = stream_->GetBytes(
        file_pos_, buffer_.data() + buffer_filled_,
        buffer_.size() - buffer_filled_);
    if (!n.ok()) {
      status_ = n.status();
      return false;
    }
    if (*n == 0) return false;
    file_pos_ += *n;
    buffer_filled_ += *n;
    return true;
  }

  std::unique_ptr<storage::FileStreamReader> stream_;
  std::string buffer_;
  size_t buffer_pos_ = 0;
  size_t buffer_filled_ = 0;
  uint64_t file_pos_ = 0;
  bool header_done_ = false;
  uint64_t record_count_ = 0;
  uint64_t emitted_ = 0;
  Status status_;
};

}  // namespace

Result<Schema> ReadSrfFileTvf::BindSchema(const std::vector<Value>&) const {
  Schema schema;
  schema.AddColumn({.name = "read_name", .type = DataType::kString});
  schema.AddColumn({.name = "short_read_seq", .type = DataType::kString});
  schema.AddColumn({.name = "quality", .type = DataType::kString});
  schema.AddColumn({.name = "avg_intensity", .type = DataType::kDouble});
  schema.AddColumn({.name = "snr", .type = DataType::kDouble});
  return schema;
}

Result<std::unique_ptr<storage::RowIterator>> ReadSrfFileTvf::Open(
    const std::vector<Value>& args, Database* db) const {
  if (args.empty() || args[0].is_null()) {
    return Status::InvalidArgument("ReadSrfFile(path [, chunk_kb])");
  }
  if (db == nullptr) return Status::ExecError("no database");
  size_t chunk = 64 * 1024;
  if (args.size() > 1 && !args[1].is_null()) {
    chunk = static_cast<size_t>(args[1].AsInt64()) * 1024;
  }
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<storage::FileStreamReader> stream,
                       db->filestream()->OpenStream(args[0].AsString()));
  return {std::make_unique<SrfStreamIterator>(std::move(stream), chunk)};
}

}  // namespace htg::genomics
