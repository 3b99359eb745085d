#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/table_def.h"
#include "exec/operator.h"
#include "storage/clustered_table.h"

namespace htg::exec {

// Scan of a base table. A heap scan opened under an exchange reads only
// the page range of the morsel in its ExecContext; clustered scans stream
// one key range in key order, the whole table unless a seek range is
// given.
class TableScanOp : public Operator {
 public:
  explicit TableScanOp(catalog::TableDef* table);

  // Clustered Index Seek: the rows whose clustered keys fall in `range`.
  TableScanOp(catalog::TableDef* table, storage::KeyRange range);

  const Schema& output_schema() const override { return table_->schema; }
  Result<std::unique_ptr<storage::RowIterator>> OpenImpl(ExecContext* ctx) override;
  std::string Describe() const override;
  int64_t EstimateRows() const override {
    return static_cast<int64_t>(table_->table->num_rows());
  }

  catalog::TableDef* table() const { return table_; }

 private:
  catalog::TableDef* table_;
  std::optional<storage::KeyRange> seek_;
};

// Literal rows (INSERT ... VALUES and tests).
class ValuesOp : public Operator {
 public:
  ValuesOp(Schema schema, std::vector<std::vector<ExprPtr>> rows)
      : schema_(std::move(schema)), rows_(std::move(rows)) {}

  const Schema& output_schema() const override { return schema_; }
  Result<std::unique_ptr<storage::RowIterator>> OpenImpl(ExecContext* ctx) override;
  std::string Describe() const override;
  int64_t EstimateRows() const override {
    return static_cast<int64_t>(rows_.size());
  }

 private:
  Schema schema_;
  std::vector<std::vector<ExprPtr>> rows_;
};

// OPENROWSET(BULK '<path>', SINGLE_BLOB): one row with one BLOB column
// named BulkColumn holding the file's bytes.
class OpenRowsetOp : public Operator {
 public:
  explicit OpenRowsetOp(std::string path);

  const Schema& output_schema() const override { return schema_; }
  Result<std::unique_ptr<storage::RowIterator>> OpenImpl(ExecContext* ctx) override;
  std::string Describe() const override;
  int64_t EstimateRows() const override { return 1; }

 private:
  std::string path_;
  Schema schema_;
};

class FilterOp : public Operator {
 public:
  FilterOp(OperatorPtr child, ExprPtr predicate)
      : child_(std::move(child)), predicate_(std::move(predicate)) {}

  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  Result<std::unique_ptr<storage::RowIterator>> OpenImpl(ExecContext* ctx) override;
  std::string Describe() const override;
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }
  // Textbook default selectivity of 1/3 — no predicate statistics yet.
  int64_t EstimateRows() const override {
    const int64_t child = child_->EstimateRows();
    return child < 0 ? -1 : child / 3;
  }

 private:
  OperatorPtr child_;
  ExprPtr predicate_;
};

// Computes scalar expressions per input row ("Compute Scalar").
class ProjectOp : public Operator {
 public:
  ProjectOp(OperatorPtr child, std::vector<ExprPtr> exprs,
            std::vector<std::string> names);

  const Schema& output_schema() const override { return schema_; }
  Result<std::unique_ptr<storage::RowIterator>> OpenImpl(ExecContext* ctx) override;
  std::string Describe() const override;
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }
  int64_t EstimateRows() const override { return child_->EstimateRows(); }

 private:
  OperatorPtr child_;
  std::vector<ExprPtr> exprs_;
  Schema schema_;
};

// SELECT TOP n.
class TopOp : public Operator {
 public:
  TopOp(OperatorPtr child, int64_t limit)
      : child_(std::move(child)), limit_(limit) {}

  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  Result<std::unique_ptr<storage::RowIterator>> OpenImpl(ExecContext* ctx) override;
  std::string Describe() const override;
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }
  int64_t EstimateRows() const override {
    const int64_t child = child_->EstimateRows();
    return child < 0 ? limit_ : std::min(limit_, child);
  }

 private:
  OperatorPtr child_;
  int64_t limit_;
};

}  // namespace htg::exec

