#include <memory>

#include "common/metrics.h"
#include "udf/registry.h"

namespace htg::udf {

void InstanceColumn::Resize(size_t groups) {
  if (groups <= instances_.size()) return;
  HTG_METRIC_COUNTER("udf.uda.instances")->Add(groups - instances_.size());
  while (instances_.size() < groups) instances_.push_back(factory_());
}

Status InstanceColumn::Update(const uint32_t* gids, size_t n,
                              const std::vector<ValueView>& args) {
  args_.resize(args.size());
  for (size_t i = 0; i < n; ++i) {
    if (gids[i] == kNoGroup) continue;
    for (size_t a = 0; a < args.size(); ++a) args_[a] = args[a][i];
    HTG_RETURN_IF_ERROR(instances_[gids[i]]->Accumulate(args_));
  }
  return Status::OK();
}

Status InstanceColumn::Merge(const uint32_t* dst, const AggregateColumn& other,
                             const uint32_t* src, size_t n) {
  const auto& o = static_cast<const InstanceColumn&>(other);
  for (size_t i = 0; i < n; ++i) {
    HTG_RETURN_IF_ERROR(instances_[dst[i]]->Merge(*o.instances_[src[i]]));
  }
  return Status::OK();
}

Result<Value> InstanceColumn::Finalize(uint32_t group) {
  return instances_[group]->Terminate();
}

namespace {

// The built-ins implement their state once, as a column; this one-group
// view serves the row-at-a-time instance contract from it.
class ColumnInstance : public AggregateInstance {
 public:
  explicit ColumnInstance(std::unique_ptr<AggregateColumn> column)
      : column_(std::move(column)) {
    column_->Resize(1);
  }

  Status Accumulate(const std::vector<Value>& args) override {
    views_.resize(args.size());
    for (size_t a = 0; a < args.size(); ++a) views_[a].values = &args[a];
    const uint32_t group = 0;
    return column_->Update(&group, 1, views_);
  }
  Status Merge(const AggregateInstance& other) override {
    const uint32_t group = 0;
    return column_->Merge(
        &group, *static_cast<const ColumnInstance&>(other).column_, &group, 1);
  }
  Result<Value> Terminate() override { return column_->Finalize(0); }

 private:
  std::unique_ptr<AggregateColumn> column_;
  std::vector<ValueView> views_;
};

// Base of the built-ins: they implement NewColumn() only.
class ColumnAggregate : public AggregateFunction {
 public:
  std::unique_ptr<AggregateInstance> NewInstance() const final {
    return std::make_unique<ColumnInstance>(NewColumn());
  }
};

Status NonNumericError(std::string_view fn) {
  return Status::ExecError(std::string(fn) + " over a non-numeric value");
}

// COUNT(*) / COUNT(expr): rows, or non-null values.
class CountColumn : public AggregateColumn {
 public:
  void Resize(size_t groups) override { count_.resize(groups, 0); }
  Status Update(const uint32_t* gids, size_t n,
                const std::vector<ValueView>& args) override {
    if (args.empty()) {
      for (size_t i = 0; i < n; ++i) {
        if (gids[i] != kNoGroup) ++count_[gids[i]];
      }
      return Status::OK();
    }
    for (size_t i = 0; i < n; ++i) {
      if (gids[i] != kNoGroup && !args[0][i].is_null()) ++count_[gids[i]];
    }
    return Status::OK();
  }
  Status Merge(const uint32_t* dst, const AggregateColumn& other,
               const uint32_t* src, size_t n) override {
    const auto& o = static_cast<const CountColumn&>(other);
    for (size_t i = 0; i < n; ++i) count_[dst[i]] += o.count_[src[i]];
    return Status::OK();
  }
  Result<Value> Finalize(uint32_t group) override {
    return Value::Int64(count_[group]);
  }

 private:
  std::vector<int64_t> count_;
};

class CountFunction : public ColumnAggregate {
 public:
  std::string_view name() const override { return "COUNT"; }
  int min_args() const override { return 0; }
  int max_args() const override { return 1; }
  DataType result_type(const std::vector<DataType>&) const override {
    return DataType::kInt64;
  }
  std::unique_ptr<AggregateColumn> NewColumn() const override {
    return std::make_unique<CountColumn>();
  }
};

// SUM: integer inputs sum in int64 (overflow is a typed error, never a
// wrap), doubles in double. NULLs ignored.
class SumColumn : public AggregateColumn {
 public:
  void Resize(size_t groups) override {
    isum_.resize(groups, 0);
    dsum_.resize(groups, 0.0);
    flags_.resize(groups, 0);
  }
  Status Update(const uint32_t* gids, size_t n,
                const std::vector<ValueView>& args) override {
    for (size_t i = 0; i < n; ++i) {
      const uint32_t g = gids[i];
      if (g == kNoGroup) continue;
      const Value& v = args[0][i];
      if (v.is_null()) continue;
      if (v.IsIntegerKind()) {
        flags_[g] |= kSeen;
        if (__builtin_add_overflow(isum_[g], v.AsInt64(), &isum_[g])) {
          return Status::ExecError("arithmetic overflow");
        }
      } else if (v.IsDoubleKind()) {
        flags_[g] |= kSeen | kDouble;
        dsum_[g] += v.AsDouble();
      } else {
        return NonNumericError("SUM");
      }
    }
    return Status::OK();
  }
  Status Merge(const uint32_t* dst, const AggregateColumn& other,
               const uint32_t* src, size_t n) override {
    const auto& o = static_cast<const SumColumn&>(other);
    for (size_t i = 0; i < n; ++i) {
      flags_[dst[i]] |= o.flags_[src[i]];
      dsum_[dst[i]] += o.dsum_[src[i]];
      if (__builtin_add_overflow(isum_[dst[i]], o.isum_[src[i]],
                                 &isum_[dst[i]])) {
        return Status::ExecError("arithmetic overflow");
      }
    }
    return Status::OK();
  }
  Result<Value> Finalize(uint32_t group) override {
    if ((flags_[group] & kSeen) == 0) return Value::Null();
    if ((flags_[group] & kDouble) != 0) {
      return Value::Double(dsum_[group] + static_cast<double>(isum_[group]));
    }
    return Value::Int64(isum_[group]);
  }

 private:
  static constexpr uint8_t kSeen = 1;
  static constexpr uint8_t kDouble = 2;
  std::vector<int64_t> isum_;
  std::vector<double> dsum_;
  std::vector<uint8_t> flags_;
};

class SumFunction : public ColumnAggregate {
 public:
  std::string_view name() const override { return "SUM"; }
  int min_args() const override { return 1; }
  int max_args() const override { return 1; }
  DataType result_type(const std::vector<DataType>& args) const override {
    return args[0] == DataType::kDouble ? DataType::kDouble : DataType::kInt64;
  }
  std::unique_ptr<AggregateColumn> NewColumn() const override {
    return std::make_unique<SumColumn>();
  }
};

// MIN / MAX over any comparable type; a NULL slot means no value yet.
class MinMaxColumn : public AggregateColumn {
 public:
  explicit MinMaxColumn(bool is_min) : is_min_(is_min) {}
  void Resize(size_t groups) override { best_.resize(groups); }
  Status Update(const uint32_t* gids, size_t n,
                const std::vector<ValueView>& args) override {
    for (size_t i = 0; i < n; ++i) {
      if (gids[i] != kNoGroup) Take(gids[i], args[0][i]);
    }
    return Status::OK();
  }
  Status Merge(const uint32_t* dst, const AggregateColumn& other,
               const uint32_t* src, size_t n) override {
    const auto& o = static_cast<const MinMaxColumn&>(other);
    for (size_t i = 0; i < n; ++i) Take(dst[i], o.best_[src[i]]);
    return Status::OK();
  }
  Result<Value> Finalize(uint32_t group) override { return best_[group]; }

 private:
  void Take(uint32_t g, const Value& v) {
    if (v.is_null()) return;
    Value& best = best_[g];
    if (best.is_null()) {
      best = v;
      return;
    }
    const int cmp = v.Compare(best);
    if ((is_min_ && cmp < 0) || (!is_min_ && cmp > 0)) best = v;
  }

  bool is_min_;
  std::vector<Value> best_;
};

class MinMaxFunction : public ColumnAggregate {
 public:
  explicit MinMaxFunction(bool is_min) : is_min_(is_min) {}
  std::string_view name() const override { return is_min_ ? "MIN" : "MAX"; }
  int min_args() const override { return 1; }
  int max_args() const override { return 1; }
  DataType result_type(const std::vector<DataType>& args) const override {
    return args[0];
  }
  std::unique_ptr<AggregateColumn> NewColumn() const override {
    return std::make_unique<MinMaxColumn>(is_min_);
  }

 private:
  bool is_min_;
};

// AVG: double mean over non-null inputs.
class AvgColumn : public AggregateColumn {
 public:
  void Resize(size_t groups) override {
    sum_.resize(groups, 0.0);
    count_.resize(groups, 0);
  }
  Status Update(const uint32_t* gids, size_t n,
                const std::vector<ValueView>& args) override {
    for (size_t i = 0; i < n; ++i) {
      const uint32_t g = gids[i];
      if (g == kNoGroup) continue;
      const Value& v = args[0][i];
      if (v.is_null()) continue;
      if (v.IsStringKind()) return NonNumericError("AVG");
      sum_[g] += v.AsDouble();
      ++count_[g];
    }
    return Status::OK();
  }
  Status Merge(const uint32_t* dst, const AggregateColumn& other,
               const uint32_t* src, size_t n) override {
    const auto& o = static_cast<const AvgColumn&>(other);
    for (size_t i = 0; i < n; ++i) {
      sum_[dst[i]] += o.sum_[src[i]];
      count_[dst[i]] += o.count_[src[i]];
    }
    return Status::OK();
  }
  Result<Value> Finalize(uint32_t group) override {
    if (count_[group] == 0) return Value::Null();
    return Value::Double(sum_[group] / static_cast<double>(count_[group]));
  }

 private:
  std::vector<double> sum_;
  std::vector<int64_t> count_;
};

class AvgFunction : public ColumnAggregate {
 public:
  std::string_view name() const override { return "AVG"; }
  int min_args() const override { return 1; }
  int max_args() const override { return 1; }
  DataType result_type(const std::vector<DataType>&) const override {
    return DataType::kDouble;
  }
  std::unique_ptr<AggregateColumn> NewColumn() const override {
    return std::make_unique<AvgColumn>();
  }
};

}  // namespace

Status RegisterBuiltinAggregates(FunctionRegistry* registry) {
  HTG_RETURN_IF_ERROR(
      registry->RegisterAggregate(std::make_unique<CountFunction>()));
  HTG_RETURN_IF_ERROR(
      registry->RegisterAggregate(std::make_unique<SumFunction>()));
  HTG_RETURN_IF_ERROR(
      registry->RegisterAggregate(std::make_unique<MinMaxFunction>(true)));
  HTG_RETURN_IF_ERROR(
      registry->RegisterAggregate(std::make_unique<MinMaxFunction>(false)));
  return registry->RegisterAggregate(std::make_unique<AvgFunction>());
}

}  // namespace htg::udf
