#include "storage/spill.h"

#include <cstring>

#include "common/crc32c.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/varint.h"
#include "storage/page.h"

namespace htg::storage {

namespace {

// Record kind tags (first byte of every value record).
constexpr char kTagNull = 0;
constexpr char kTagInt = 1;     // bool / int32 / int64, zig-zag varint
constexpr char kTagDouble = 2;  // 8 raw little-endian bytes
constexpr char kTagString = 3;  // string / blob / guid, length-prefixed

void PutFixed32(std::string* dst, uint32_t v) {
  dst->push_back(static_cast<char>(v & 0xff));
  dst->push_back(static_cast<char>((v >> 8) & 0xff));
  dst->push_back(static_cast<char>((v >> 16) & 0xff));
  dst->push_back(static_cast<char>((v >> 24) & 0xff));
}

Status Truncated() {
  return Status::Corruption("spill record truncated");
}

}  // namespace

void SpillEncodeRow(const Row& row, std::string* out) {
  PutVarint64(out, row.size());
  for (const Value& v : row) {
    if (v.is_null()) {
      out->push_back(kTagNull);
      continue;
    }
    if (v.IsIntegerKind()) {
      out->push_back(kTagInt);
      out->push_back(static_cast<char>(v.type()));
      PutVarintSigned64(out, v.AsInt64());
    } else if (v.IsDoubleKind()) {
      out->push_back(kTagDouble);
      out->push_back(static_cast<char>(v.type()));
      const double d = v.AsDouble();
      char bytes[sizeof(double)];
      std::memcpy(bytes, &d, sizeof(double));
      out->append(bytes, sizeof(double));
    } else {
      out->push_back(kTagString);
      out->push_back(static_cast<char>(v.type()));
      PutLengthPrefixed(out, v.AsString());
    }
  }
}

Status SpillDecodeRow(const char** p, const char* limit, Row* row) {
  row->clear();
  uint64_t ncols = 0;
  const char* cur = GetVarint64(*p, limit, &ncols);
  if (cur == nullptr) return Truncated();
  row->reserve(ncols);
  for (uint64_t i = 0; i < ncols; ++i) {
    if (cur >= limit) return Truncated();
    const char tag = *cur++;
    if (tag == kTagNull) {
      row->push_back(Value::Null());
      continue;
    }
    if (cur >= limit) return Truncated();
    const auto type = static_cast<DataType>(*cur++);
    switch (tag) {
      case kTagInt: {
        int64_t v = 0;
        cur = GetVarintSigned64(cur, limit, &v);
        if (cur == nullptr) return Truncated();
        if (type == DataType::kBool) {
          row->push_back(Value::Bool(v != 0));
        } else if (type == DataType::kInt32) {
          row->push_back(Value::Int32(static_cast<int32_t>(v)));
        } else {
          row->push_back(Value::Int64(v));
        }
        break;
      }
      case kTagDouble: {
        if (limit - cur < static_cast<ptrdiff_t>(sizeof(double))) {
          return Truncated();
        }
        double d = 0;
        std::memcpy(&d, cur, sizeof(double));
        cur += sizeof(double);
        row->push_back(Value::Double(d));
        break;
      }
      case kTagString: {
        std::string_view s;
        cur = GetLengthPrefixed(cur, limit, &s);
        if (cur == nullptr) return Truncated();
        if (type == DataType::kBlob) {
          row->push_back(Value::Blob(std::string(s)));
        } else if (type == DataType::kGuid) {
          row->push_back(Value::Guid(std::string(s)));
        } else {
          row->push_back(Value::String(std::string(s)));
        }
        break;
      }
      default:
        return Status::Corruption(
            StringPrintf("spill record has unknown tag %d", tag));
    }
  }
  *p = cur;
  return Status::OK();
}

Result<std::unique_ptr<SpillFile>> SpillFile::Create(
    TableSpace* space, const std::string& label) {
  if (space == nullptr) {
    return Status::Internal("spill requested without a tablespace");
  }
  HTG_ASSIGN_OR_RETURN(std::unique_ptr<TableFile> file,
                       space->CreateTableFile("spill_" + label));
  return {std::unique_ptr<SpillFile>(new SpillFile(std::move(file)))};
}

Status SpillRunWriter::Add(const Row& row) {
  SpillEncodeRow(row, &buf_);
  ++buf_rows_;
  if (buf_.size() >= page_bytes_) return SealPage();
  return Status::OK();
}

Status SpillRunWriter::SealPage() {
  if (buf_rows_ == 0) return Status::OK();
  std::string page;
  page.reserve(buf_.size() + 16);
  PutVarint64(&page, buf_rows_);
  page.append(buf_);
  PutFixed32(&page, Crc32c(page));
  HTG_ASSIGN_OR_RETURN(const uint64_t page_no,
                       file_->file()->AppendPage(std::move(page)));
  run_.pages.push_back(page_no);
  run_.rows += buf_rows_;
  run_.bytes += buf_.size();
  buf_.clear();
  buf_rows_ = 0;
  return Status::OK();
}

Result<SpillRun> SpillRunWriter::Finish() {
  HTG_RETURN_IF_ERROR(SealPage());
  HTG_METRIC_COUNTER("exec.spill.runs")->Add(1);
  HTG_METRIC_COUNTER("exec.spill.bytes")->Add(run_.bytes);
  return std::move(run_);
}

bool SpillRunReader::LoadNextPage() {
  while (page_rows_left_ == 0) {
    guard_.Release();
    if (next_page_index_ >= run_.pages.size()) return false;
    auto page = file_->file()->ReadPage(run_.pages[next_page_index_++]);
    if (!page.ok()) {
      status_ = std::move(page).status();
      return false;
    }
    guard_ = std::move(page).value();
    const Slice data = guard_.data();
    if (data.size() < kPageChecksumBytes) {
      status_ = Status::Corruption("spill page shorter than its trailer");
      return false;
    }
    pos_ = data.data();
    limit_ = data.data() + data.size() - kPageChecksumBytes;
    pos_ = GetVarint64(pos_, limit_, &page_rows_left_);
    if (pos_ == nullptr) {
      status_ = Status::Corruption("spill page header truncated");
      return false;
    }
  }
  return true;
}

bool SpillRunReader::NextRow(Row* row) {
  if (!status_.ok()) return false;
  if (!LoadNextPage()) return false;
  const Status s = SpillDecodeRow(&pos_, limit_, row);
  if (!s.ok()) {
    status_ = s;
    return false;
  }
  --page_rows_left_;
  return true;
}

}  // namespace htg::storage
