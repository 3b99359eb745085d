#include "genomics/consensus.h"

#include <algorithm>

#include "genomics/nucleotide.h"

namespace htg::genomics {

namespace {

int BaseIndex(char base) {
  const int code = BaseCode(base);
  return code < 0 ? 4 : code;
}

char IndexBase(int i) { return i < 4 ? kBases[i] : 'N'; }

class PivotIterator : public storage::RowSource {
 public:
  PivotIterator(int64_t position, std::string seq, std::string quals)
      : position_(position), seq_(std::move(seq)), quals_(std::move(quals)) {}

 protected:
  bool NextRow(Row* row) override {
    if (index_ >= seq_.size()) return false;
    row->clear();
    row->push_back(Value::Int64(position_ + static_cast<int64_t>(index_)));
    row->push_back(Value::String(std::string(1, seq_[index_])));
    row->push_back(Value::Int32(
        index_ < quals_.size() ? CharToPhred(quals_[index_]) : 0));
    ++index_;
    return true;
  }

 private:
  int64_t position_;
  std::string seq_;
  std::string quals_;
  size_t index_ = 0;
};

class CallBaseInstance : public udf::AggregateInstance {
 public:
  Status Accumulate(const std::vector<Value>& args) override {
    if (args[0].is_null()) return Status::OK();
    const std::string& base = args[0].AsString();
    if (base.empty()) return Status::OK();
    const double qual = args[1].is_null() ? 1.0 : args[1].AsDouble();
    weights_[BaseIndex(base[0])] += qual > 0 ? qual : 1.0;
    return Status::OK();
  }

  Status Merge(const udf::AggregateInstance& other) override {
    const auto& o = static_cast<const CallBaseInstance&>(other);
    for (int i = 0; i < 5; ++i) weights_[i] += o.weights_[i];
    return Status::OK();
  }

  Result<Value> Terminate() override {
    int best = 4;
    double best_weight = 0;
    for (int i = 0; i < 4; ++i) {
      if (weights_[i] > best_weight) {
        best = i;
        best_weight = weights_[i];
      }
    }
    return Value::String(std::string(1, IndexBase(best)));
  }

 private:
  double weights_[5] = {0, 0, 0, 0, 0};
};

class AssembleSequenceInstance : public udf::AggregateInstance {
 public:
  Status Accumulate(const std::vector<Value>& args) override {
    if (args[0].is_null() || args[1].is_null()) return Status::OK();
    const std::string& base = args[1].AsString();
    entries_.emplace_back(args[0].AsInt64(),
                          base.empty() ? 'N' : base[0]);
    return Status::OK();
  }

  Status Merge(const udf::AggregateInstance& other) override {
    const auto& o = static_cast<const AssembleSequenceInstance&>(other);
    entries_.insert(entries_.end(), o.entries_.begin(), o.entries_.end());
    return Status::OK();
  }

  Result<Value> Terminate() override {
    std::sort(entries_.begin(), entries_.end());
    std::string out;
    out.reserve(entries_.size());
    int64_t expected = entries_.empty() ? 0 : entries_.front().first;
    for (const auto& [pos, base] : entries_) {
      // Uncovered gaps become 'N'.
      while (expected < pos) {
        out.push_back('N');
        ++expected;
      }
      out.push_back(base);
      expected = pos + 1;
    }
    return Value::String(std::move(out));
  }

 private:
  std::vector<std::pair<int64_t, char>> entries_;
};

class AssembleConsensusInstance : public udf::AggregateInstance {
 public:
  Status Accumulate(const std::vector<Value>& args) override {
    if (args[0].is_null() || args[1].is_null()) return Status::OK();
    const int64_t pos = args[0].AsInt64();
    if (pos < last_pos_) {
      return Status::ExecError(
          "AssembleConsensus requires input ordered by position");
    }
    last_pos_ = pos;
    window_.Add(pos, args[1].AsString(),
                args[2].is_null() ? std::string_view() : args[2].AsString());
    return Status::OK();
  }

  Status Merge(const udf::AggregateInstance&) override {
    return Status::NotImplemented(
        "AssembleConsensus cannot merge partial windows (overlapping "
        "partition borders)");
  }

  Result<Value> Terminate() override {
    return Value::String(window_.Finish());
  }

 private:
  SlidingWindowConsensus window_;
  int64_t last_pos_ = -1;
};

}  // namespace

Result<Schema> PivotAlignmentTvf::BindSchema(const std::vector<Value>&) const {
  Schema schema;
  schema.AddColumn({.name = "pos", .type = DataType::kInt64});
  schema.AddColumn({.name = "base", .type = DataType::kString});
  schema.AddColumn({.name = "qual", .type = DataType::kInt32});
  return schema;
}

// Thread-safe for concurrent Open() (parallel CROSS APPLY): no shared
// mutable state — each iterator owns copies of its arguments.
Result<std::unique_ptr<storage::RowIterator>> PivotAlignmentTvf::Open(
    const std::vector<Value>& args, Database*) const {
  if (args.size() != 3) {
    return Status::InvalidArgument("PivotAlignment(pos, seq, quals)");
  }
  if (args[0].is_null() || args[1].is_null()) {
    return {std::make_unique<PivotIterator>(0, "", "")};
  }
  return {std::make_unique<PivotIterator>(
      args[0].AsInt64(), args[1].AsString(),
      args[2].is_null() ? std::string() : args[2].AsString())};
}

std::unique_ptr<udf::AggregateInstance> CallBaseAggregate::NewInstance()
    const {
  return std::make_unique<CallBaseInstance>();
}

std::unique_ptr<udf::AggregateInstance>
AssembleSequenceAggregate::NewInstance() const {
  return std::make_unique<AssembleSequenceInstance>();
}

std::unique_ptr<udf::AggregateInstance>
AssembleConsensusAggregate::NewInstance() const {
  return std::make_unique<AssembleConsensusInstance>();
}

void SlidingWindowConsensus::Add(int64_t position, std::string_view seq,
                                 std::string_view quals) {
  if (window_start_ < 0) {
    window_start_ = position;
    start_ = position;
  }
  // Everything strictly left of this alignment's start is final.
  FlushBefore(position);
  // Grow the window to cover this read.
  const size_t needed = static_cast<size_t>(position - window_start_) +
                        seq.size();
  while (window_.size() < needed) window_.emplace_back();
  for (size_t i = 0; i < seq.size(); ++i) {
    const size_t col = static_cast<size_t>(position - window_start_) + i;
    const double w =
        i < quals.size() ? std::max(1, CharToPhred(quals[i])) : 1.0;
    window_[col].w[BaseIndex(seq[i])] += w;
  }
}

void SlidingWindowConsensus::FlushBefore(int64_t position) {
  while (window_start_ < position && !window_.empty()) {
    const Weights& col = window_.front();
    int best = 4;
    double best_weight = 0;
    for (int i = 0; i < 4; ++i) {
      if (col.w[i] > best_weight) {
        best = i;
        best_weight = col.w[i];
      }
    }
    out_.push_back(IndexBase(best));
    window_.pop_front();
    ++window_start_;
  }
  if (window_.empty() && window_start_ < position) {
    // Uncovered gap between reads.
    out_.append(static_cast<size_t>(position - window_start_), 'N');
    window_start_ = position;
  }
}

std::string SlidingWindowConsensus::Finish() {
  if (window_start_ >= 0) {
    FlushBefore(window_start_ + static_cast<int64_t>(window_.size()));
  }
  return std::move(out_);
}

std::vector<Snp> FindSnps(std::string_view reference,
                          std::string_view consensus, int64_t offset) {
  std::vector<Snp> snps;
  for (size_t i = 0; i < consensus.size(); ++i) {
    const size_t ref_pos = static_cast<size_t>(offset) + i;
    if (ref_pos >= reference.size()) break;
    const char called = consensus[i];
    const char ref = reference[ref_pos];
    if (called == 'N' || ref == 'N') continue;
    if (called != ref) {
      snps.push_back({static_cast<int64_t>(ref_pos), ref, called});
    }
  }
  return snps;
}

}  // namespace htg::genomics
