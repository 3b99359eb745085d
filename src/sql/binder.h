#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/database.h"
#include "common/result.h"
#include "exec/operator.h"
#include "sql/ast.h"

namespace htg::sql {

// Binds a parsed SELECT against the catalog and produces a physical
// operator tree. Planning is rule-based, modeled on the behaviours the
// paper observes in SQL Server:
//
//  * predicates apply below aggregation;
//  * key-range predicates on a lone clustered table seek its B+-tree;
//  * equi-joins over clustered tables whose clustered keys match the join
//    keys become merge joins (Fig. 10), other equi-joins hash joins,
//    anything else nested loops;
//  * GROUP BY plans over a large heap go parallel: partitioned scans feed
//    per-worker partial aggregates that merge in a gather step (Fig. 9),
//    provided every aggregate supports Merge.
class Binder {
 public:
  explicit Binder(Database* db) : db_(db) {}

  Result<exec::OperatorPtr> BindSelect(const SelectStmt& stmt);

  // Binds a standalone scalar expression (INSERT ... VALUES): literals and
  // functions only, no column references.
  Result<exec::ExprPtr> BindValueExpr(const AstExpr& ast);

 private:
  struct Scope;
  struct AggScope;
  struct BindContext;
  struct FromResult;
  struct MorselPlan;

  // The morsel-parallel plan for `stmt`, decided before FROM is bound from
  // the AST and the catalog alone: no JOIN, a heap FROM table of at least
  // parallel_threshold rows, max_dop > 1, and `worth_exchange`. Nullopt
  // when the plan stays serial.
  Result<std::optional<MorselPlan>> PlanParallel(const SelectStmt& stmt,
                                                 bool worth_exchange);
  // Binds FROM; with `parallel` set, the heap scan sits under a Distribute
  // Streams marker.
  Result<FromResult> BindFrom(const SelectStmt& stmt,
                              const MorselPlan* parallel);
  // A Clustered Index Seek to replace `from`, the scan the FROM clause
  // bound, or null when the FROM clause or the WHERE admit none.
  exec::OperatorPtr BindSeek(const SelectStmt& stmt, const exec::Operator& from,
                             const Scope& scope);
  Result<FromResult> BindTableRef(const TableRef& ref);
  Result<exec::ExprPtr> BindExpr(const AstExpr& ast, const BindContext& ctx);
  Result<std::vector<exec::ExprPtr>> BindExprs(
      const std::vector<AstExprPtr>& asts, const BindContext& ctx);

  Database* db_;
};

}  // namespace htg::sql

