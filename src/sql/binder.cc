#include "sql/binder.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/string_util.h"
#include "exec/aggregate_ops.h"
#include "exec/apply_ops.h"
#include "exec/basic_ops.h"
#include "exec/join_ops.h"
#include "exec/parallel.h"
#include "exec/sort_ops.h"
#include "storage/heap_table.h"

namespace htg::sql {

using exec::ExprPtr;
using exec::OperatorPtr;

// One visible column during name resolution.
struct ScopeColumn {
  std::string table_alias;
  std::string name;
  DataType type = DataType::kString;
};

struct Binder::Scope {
  std::vector<ScopeColumn> cols;

  Result<int> Resolve(const std::vector<std::string>& parts) const {
    if (parts.empty()) return Status::BindError("empty identifier");
    const std::string& name = parts.back();
    const std::string* qual = parts.size() > 1 ? &parts[parts.size() - 2]
                                               : nullptr;
    int found = -1;
    for (int i = 0; i < static_cast<int>(cols.size()); ++i) {
      if (!EqualsIgnoreCase(cols[i].name, name)) continue;
      if (qual != nullptr && !EqualsIgnoreCase(cols[i].table_alias, *qual)) {
        continue;
      }
      if (found >= 0) {
        return Status::BindError("ambiguous column: " + name);
      }
      found = i;
    }
    if (found < 0) {
      return Status::BindError("unknown column: " +
                               (qual ? *qual + "." + name : name));
    }
    return found;
  }

  void Append(const std::string& alias, const Schema& schema) {
    for (const Column& c : schema.columns()) {
      cols.push_back({alias, c.name, c.type});
    }
  }
};

// Post-aggregation resolution: expression text → aggregate-output column.
struct Binder::AggScope {
  std::vector<std::string> group_texts;  // canonical text of GROUP BY exprs
  std::vector<std::string> agg_texts;    // canonical text of aggregate calls
  Schema schema;                         // group columns then agg columns
};

struct Binder::BindContext {
  const Scope* scope = nullptr;      // pre-agg input columns
  const AggScope* agg = nullptr;     // post-agg text matching
  // window-call text → appended column index.
  const std::map<std::string, int>* window = nullptr;
  Database* db = nullptr;
};

struct Binder::FromResult {
  OperatorPtr op;
  Scope scope;
  // Set when the FROM clause is one heap base table, optionally extended
  // by CROSS APPLY table functions (recorded in `apply_stages`): the
  // morsel-parallel plan candidates. A regular join clears it.
  catalog::TableDef* pipeline_heap = nullptr;
  std::vector<exec::ParallelStage> apply_stages;
};

namespace {

bool IsAggregateCall(const udf::FunctionRegistry& registry,
                     const AstExpr& e) {
  return e.kind == AstExpr::Kind::kCall && !e.has_over &&
         registry.FindAggregate(e.call_name) != nullptr;
}

// Walks an AST collecting aggregate calls (and, independently, window
// calls) in order of first appearance.
void CollectCalls(const udf::FunctionRegistry& registry, const AstExpr& e,
                  std::vector<const AstExpr*>* aggs,
                  std::vector<const AstExpr*>* windows) {
  if (e.kind == AstExpr::Kind::kCall) {
    if (e.has_over) {
      if (windows != nullptr) {
        bool seen = false;
        for (const AstExpr* w : *windows) {
          if (w->ToText() == e.ToText()) seen = true;
        }
        if (!seen) windows->push_back(&e);
      }
      // Aggregates may appear inside OVER (ORDER BY ...).
      for (const AstExprPtr& k : e.over_order) {
        CollectCalls(registry, *k, aggs, windows);
      }
      for (const AstExprPtr& a : e.args) {
        CollectCalls(registry, *a, aggs, windows);
      }
      return;
    }
    if (registry.FindAggregate(e.call_name) != nullptr) {
      bool seen = false;
      for (const AstExpr* a : *aggs) {
        if (a->ToText() == e.ToText()) seen = true;
      }
      if (!seen) aggs->push_back(&e);
      return;  // no nested aggregates
    }
  }
  for (const AstExprPtr& a : e.args) CollectCalls(registry, *a, aggs, windows);
  if (e.left) CollectCalls(registry, *e.left, aggs, windows);
  if (e.right) CollectCalls(registry, *e.right, aggs, windows);
  if (e.operand) CollectCalls(registry, *e.operand, aggs, windows);
  for (const auto& [c, r] : e.case_branches) {
    CollectCalls(registry, *c, aggs, windows);
    CollectCalls(registry, *r, aggs, windows);
  }
  if (e.case_else) CollectCalls(registry, *e.case_else, aggs, windows);
  for (const AstExprPtr& i : e.in_list) CollectCalls(registry, *i, aggs, windows);
}

// Splits an AST condition into AND-ed conjuncts.
void SplitConjuncts(const AstExpr* e, std::vector<const AstExpr*>* out) {
  if (e->kind == AstExpr::Kind::kBinary && e->bin_op == exec::BinaryOp::kAnd) {
    SplitConjuncts(e->left.get(), out);
    SplitConjuncts(e->right.get(), out);
    return;
  }
  out->push_back(e);
}

ExprPtr AndTogether(std::vector<ExprPtr> preds) {
  ExprPtr result;
  for (ExprPtr& p : preds) {
    if (result == nullptr) {
      result = std::move(p);
    } else {
      result = std::make_unique<exec::BinaryExpr>(
          exec::BinaryOp::kAnd, std::move(result), std::move(p));
    }
  }
  return result;
}

}  // namespace

Result<ExprPtr> Binder::BindValueExpr(const AstExpr& ast) {
  BindContext ctx;
  ctx.db = db_;
  return BindExpr(ast, ctx);
}

Result<std::vector<ExprPtr>> Binder::BindExprs(
    const std::vector<AstExprPtr>& asts, const BindContext& ctx) {
  std::vector<ExprPtr> out;
  out.reserve(asts.size());
  for (const AstExprPtr& a : asts) {
    HTG_ASSIGN_OR_RETURN(ExprPtr e, BindExpr(*a, ctx));
    out.push_back(std::move(e));
  }
  return out;
}

Result<ExprPtr> Binder::BindExpr(const AstExpr& ast, const BindContext& ctx) {
  // Post-aggregation text matching takes priority: a subtree that spells a
  // GROUP BY expression or a collected aggregate becomes a column of the
  // aggregate's output.
  if (ctx.agg != nullptr) {
    const std::string text = ast.ToText();
    for (size_t i = 0; i < ctx.agg->group_texts.size(); ++i) {
      if (ctx.agg->group_texts[i] == text) {
        return ExprPtr(std::make_unique<exec::ColumnRefExpr>(
            static_cast<int>(i), ctx.agg->schema.column(i).name,
            ctx.agg->schema.column(i).type));
      }
    }
    for (size_t j = 0; j < ctx.agg->agg_texts.size(); ++j) {
      if (ctx.agg->agg_texts[j] == text) {
        const int idx = static_cast<int>(ctx.agg->group_texts.size() + j);
        return ExprPtr(std::make_unique<exec::ColumnRefExpr>(
            idx, ctx.agg->schema.column(idx).name,
            ctx.agg->schema.column(idx).type));
      }
    }
  }
  if (ctx.window != nullptr && ast.kind == AstExpr::Kind::kCall &&
      ast.has_over) {
    auto it = ctx.window->find(ast.ToText());
    if (it != ctx.window->end()) {
      return ExprPtr(std::make_unique<exec::ColumnRefExpr>(
          it->second, ast.ToText(), DataType::kInt64));
    }
    return Status::BindError("window function not planned: " + ast.ToText());
  }

  switch (ast.kind) {
    case AstExpr::Kind::kLiteral:
      return ExprPtr(std::make_unique<exec::LiteralExpr>(ast.literal));
    case AstExpr::Kind::kIdent: {
      if (ctx.scope == nullptr) {
        return Status::BindError(
            "column '" + ast.ident.back() +
            "' is invalid here (not in GROUP BY or an aggregate)");
      }
      HTG_ASSIGN_OR_RETURN(int idx, ctx.scope->Resolve(ast.ident));
      const ScopeColumn& col = ctx.scope->cols[idx];
      return ExprPtr(
          std::make_unique<exec::ColumnRefExpr>(idx, col.name, col.type));
    }
    case AstExpr::Kind::kStar:
      return Status::BindError("'*' is not valid in this context");
    case AstExpr::Kind::kUnary: {
      HTG_ASSIGN_OR_RETURN(ExprPtr operand, BindExpr(*ast.operand, ctx));
      return ExprPtr(std::make_unique<exec::UnaryExpr>(
          ast.unary_not ? exec::UnaryExpr::Op::kNot
                        : exec::UnaryExpr::Op::kNegate,
          std::move(operand)));
    }
    case AstExpr::Kind::kBinary: {
      HTG_ASSIGN_OR_RETURN(ExprPtr left, BindExpr(*ast.left, ctx));
      HTG_ASSIGN_OR_RETURN(ExprPtr right, BindExpr(*ast.right, ctx));
      return ExprPtr(std::make_unique<exec::BinaryExpr>(
          ast.bin_op, std::move(left), std::move(right)));
    }
    case AstExpr::Kind::kCall: {
      if (IsAggregateCall(*db_->functions(), ast)) {
        return Status::BindError("aggregate '" + ast.call_name +
                                 "' is not valid in this context");
      }
      const udf::ScalarFunction* fn =
          db_->functions()->FindScalar(ast.call_name);
      if (fn == nullptr) {
        return Status::BindError("unknown function: " + ast.call_name);
      }
      const int n = static_cast<int>(ast.args.size());
      if (n < fn->min_args || n > fn->max_args) {
        return Status::BindError(StringPrintf(
            "%s takes %d..%d arguments, got %d", fn->name.c_str(),
            fn->min_args, fn->max_args, n));
      }
      HTG_ASSIGN_OR_RETURN(std::vector<ExprPtr> args,
                           BindExprs(ast.args, ctx));
      return ExprPtr(
          std::make_unique<exec::FnCallExpr>(fn, std::move(args)));
    }
    case AstExpr::Kind::kCast: {
      HTG_ASSIGN_OR_RETURN(ExprPtr operand, BindExpr(*ast.operand, ctx));
      return ExprPtr(
          std::make_unique<exec::CastExpr>(std::move(operand), ast.cast_type));
    }
    case AstExpr::Kind::kIsNull: {
      HTG_ASSIGN_OR_RETURN(ExprPtr operand, BindExpr(*ast.operand, ctx));
      return ExprPtr(
          std::make_unique<exec::IsNullExpr>(std::move(operand), ast.is_not));
    }
    case AstExpr::Kind::kCase: {
      std::vector<std::pair<ExprPtr, ExprPtr>> branches;
      for (const auto& [c, r] : ast.case_branches) {
        HTG_ASSIGN_OR_RETURN(ExprPtr cond, BindExpr(*c, ctx));
        HTG_ASSIGN_OR_RETURN(ExprPtr result, BindExpr(*r, ctx));
        branches.emplace_back(std::move(cond), std::move(result));
      }
      ExprPtr else_expr;
      if (ast.case_else) {
        HTG_ASSIGN_OR_RETURN(else_expr, BindExpr(*ast.case_else, ctx));
      }
      return ExprPtr(std::make_unique<exec::CaseExpr>(std::move(branches),
                                                      std::move(else_expr)));
    }
    case AstExpr::Kind::kLike: {
      HTG_ASSIGN_OR_RETURN(ExprPtr operand, BindExpr(*ast.operand, ctx));
      return ExprPtr(std::make_unique<exec::LikeExpr>(
          std::move(operand), ast.like_pattern, ast.is_not));
    }
    case AstExpr::Kind::kBetween: {
      // a BETWEEN lo AND hi  ⇒  a >= lo AND a <= hi.
      HTG_ASSIGN_OR_RETURN(ExprPtr low_subject, BindExpr(*ast.operand, ctx));
      HTG_ASSIGN_OR_RETURN(ExprPtr high_subject, BindExpr(*ast.operand, ctx));
      HTG_ASSIGN_OR_RETURN(ExprPtr low, BindExpr(*ast.between_low, ctx));
      HTG_ASSIGN_OR_RETURN(ExprPtr high, BindExpr(*ast.between_high, ctx));
      ExprPtr range = std::make_unique<exec::BinaryExpr>(
          exec::BinaryOp::kAnd,
          std::make_unique<exec::BinaryExpr>(exec::BinaryOp::kGe,
                                             std::move(low_subject),
                                             std::move(low)),
          std::make_unique<exec::BinaryExpr>(exec::BinaryOp::kLe,
                                             std::move(high_subject),
                                             std::move(high)));
      if (ast.is_not) {
        range = std::make_unique<exec::UnaryExpr>(exec::UnaryExpr::Op::kNot,
                                                  std::move(range));
      }
      return range;
    }
    case AstExpr::Kind::kIn: {
      // x IN (a, b) desugars to x = a OR x = b.
      std::vector<ExprPtr> eqs;
      for (const AstExprPtr& item : ast.in_list) {
        HTG_ASSIGN_OR_RETURN(ExprPtr subject, BindExpr(*ast.operand, ctx));
        HTG_ASSIGN_OR_RETURN(ExprPtr value, BindExpr(*item, ctx));
        eqs.push_back(std::make_unique<exec::BinaryExpr>(
            exec::BinaryOp::kEq, std::move(subject), std::move(value)));
      }
      ExprPtr ors;
      for (ExprPtr& e : eqs) {
        ors = ors == nullptr
                  ? std::move(e)
                  : std::make_unique<exec::BinaryExpr>(
                        exec::BinaryOp::kOr, std::move(ors), std::move(e));
      }
      if (ast.is_not) {
        ors = std::make_unique<exec::UnaryExpr>(exec::UnaryExpr::Op::kNot,
                                                std::move(ors));
      }
      return ors;
    }
  }
  return Status::Internal("unhandled AST expression kind");
}

Result<Binder::FromResult> Binder::BindTableRef(const TableRef& ref) {
  FromResult out;
  switch (ref.kind) {
    case TableRef::Kind::kTable: {
      HTG_ASSIGN_OR_RETURN(catalog::TableDef * table, db_->GetTable(ref.name));
      out.op = std::make_unique<exec::TableScanOp>(table);
      const std::string alias = ref.alias.empty() ? ref.name : ref.alias;
      out.scope.Append(alias, table->schema);
      if (table->clustered_key.empty()) out.pipeline_heap = table;
      return out;
    }
    case TableRef::Kind::kTvf: {
      const udf::TableFunction* fn =
          db_->functions()->FindTableFunction(ref.name);
      if (fn == nullptr) {
        return Status::BindError("unknown table function: " + ref.name);
      }
      BindContext ctx;
      ctx.db = db_;
      HTG_ASSIGN_OR_RETURN(std::vector<ExprPtr> args, BindExprs(ref.args, ctx));
      // Constant-fold literal arguments for schema binding.
      std::vector<Value> const_args;
      udf::EvalContext eval = db_->MakeEvalContext();
      for (const ExprPtr& a : args) {
        Result<Value> v = a->Eval(&eval, Row{});
        const_args.push_back(v.ok() ? std::move(*v) : Value::Null());
      }
      HTG_ASSIGN_OR_RETURN(Schema schema, fn->BindSchema(const_args));
      const std::string alias = ref.alias.empty() ? ref.name : ref.alias;
      out.scope.Append(alias, schema);
      out.op = std::make_unique<exec::TvfScanOp>(fn, std::move(args),
                                                 std::move(schema));
      return out;
    }
    case TableRef::Kind::kSubquery: {
      HTG_ASSIGN_OR_RETURN(OperatorPtr sub, BindSelect(*ref.subquery));
      out.scope.Append(ref.alias, sub->output_schema());
      out.op = std::move(sub);
      return out;
    }
    case TableRef::Kind::kOpenRowset: {
      auto op = std::make_unique<exec::OpenRowsetOp>(ref.bulk_path);
      out.scope.Append(ref.alias, op->output_schema());
      out.op = std::move(op);
      return out;
    }
    case TableRef::Kind::kNone:
      break;
  }
  return Status::Internal("bad table reference");
}

Result<Binder::FromResult> Binder::BindFrom(const SelectStmt& stmt) {
  if (stmt.from.kind == TableRef::Kind::kNone) {
    // SELECT without FROM: a single empty row.
    FromResult out;
    std::vector<std::vector<ExprPtr>> rows;
    rows.emplace_back();
    out.op = std::make_unique<exec::ValuesOp>(Schema(), std::move(rows));
    return out;
  }
  HTG_ASSIGN_OR_RETURN(FromResult left, BindTableRef(stmt.from));

  for (const JoinClause& jc : stmt.joins) {
    if (jc.cross_apply) {
      if (jc.ref.kind != TableRef::Kind::kTvf) {
        return Status::BindError("CROSS APPLY expects a table function");
      }
      const udf::TableFunction* fn =
          db_->functions()->FindTableFunction(jc.ref.name);
      if (fn == nullptr) {
        return Status::BindError("unknown table function: " + jc.ref.name);
      }
      BindContext ctx;
      ctx.scope = &left.scope;
      ctx.db = db_;
      HTG_ASSIGN_OR_RETURN(std::vector<ExprPtr> args,
                           BindExprs(jc.ref.args, ctx));
      std::vector<Value> const_args(args.size(), Value::Null());
      HTG_ASSIGN_OR_RETURN(Schema fn_schema, fn->BindSchema(const_args));
      const std::string alias =
          jc.ref.alias.empty() ? jc.ref.name : jc.ref.alias;
      left.scope.Append(alias, fn_schema);
      if (left.pipeline_heap != nullptr) {
        // The pipeline stays morsel-parallelizable: record the apply as a
        // replayable stage alongside the serial plan.
        std::vector<ExprPtr> arg_clones;
        arg_clones.reserve(args.size());
        for (const ExprPtr& a : args) arg_clones.push_back(a->Clone());
        left.apply_stages.push_back(exec::ParallelStage::Apply(
            fn, std::move(arg_clones), fn_schema));
      }
      left.op = std::make_unique<exec::CrossApplyOp>(
          std::move(left.op), fn, std::move(args), std::move(fn_schema));
      continue;
    }

    // Regular inner join: the two-sided input is no longer a single
    // heap-rooted pipeline.
    left.pipeline_heap = nullptr;
    left.apply_stages.clear();
    HTG_ASSIGN_OR_RETURN(FromResult right, BindTableRef(jc.ref));
    const int left_width = static_cast<int>(left.scope.cols.size());

    Scope concat = left.scope;
    for (const ScopeColumn& c : right.scope.cols) concat.cols.push_back(c);

    std::vector<const AstExpr*> conjuncts;
    if (jc.condition != nullptr) {
      SplitConjuncts(jc.condition.get(), &conjuncts);
    }
    std::vector<ExprPtr> left_keys;
    std::vector<ExprPtr> right_keys;
    std::vector<ExprPtr> residual;
    BindContext lctx;
    lctx.scope = &left.scope;
    lctx.db = db_;
    BindContext rctx;
    rctx.scope = &right.scope;
    rctx.db = db_;
    BindContext cctx;
    cctx.scope = &concat;
    cctx.db = db_;
    for (const AstExpr* c : conjuncts) {
      bool handled = false;
      if (c->kind == AstExpr::Kind::kBinary &&
          c->bin_op == exec::BinaryOp::kEq) {
        // Try (left-side expr, right-side expr) in both orders.
        Result<ExprPtr> ll = BindExpr(*c->left, lctx);
        Result<ExprPtr> rr = BindExpr(*c->right, rctx);
        if (ll.ok() && rr.ok()) {
          left_keys.push_back(std::move(*ll));
          right_keys.push_back(std::move(*rr));
          handled = true;
        } else {
          Result<ExprPtr> lr = BindExpr(*c->left, rctx);
          Result<ExprPtr> rl = BindExpr(*c->right, lctx);
          if (lr.ok() && rl.ok()) {
            left_keys.push_back(std::move(*rl));
            right_keys.push_back(std::move(*lr));
            handled = true;
          }
        }
      }
      if (!handled) {
        HTG_ASSIGN_OR_RETURN(ExprPtr pred, BindExpr(*c, cctx));
        residual.push_back(std::move(pred));
      }
    }

    if (jc.left_outer) {
      // LEFT OUTER JOIN: hash-based only, pure equi conditions (residual
      // predicates would need ON-clause semantics we do not implement).
      if (left_keys.empty() || !residual.empty()) {
        return Status::BindError(
            "LEFT JOIN supports only equi-join ON conditions");
      }
      left.op = std::make_unique<exec::HashJoinOp>(
          std::move(left.op), std::move(right.op), std::move(left_keys),
          std::move(right_keys), /*left_outer=*/true);
      left.scope = std::move(concat);
      (void)left_width;
      continue;
    }
    if (left_keys.empty()) {
      ExprPtr pred = AndTogether(std::move(residual));
      left.op = std::make_unique<exec::NestedLoopJoinOp>(
          std::move(left.op), std::move(right.op), std::move(pred));
    } else {
      // Merge join when both sides stream in join-key order off their
      // clustered indexes.
      bool merge_ok = false;
      auto* lscan = dynamic_cast<exec::TableScanOp*>(left.op.get());
      auto* rscan = dynamic_cast<exec::TableScanOp*>(right.op.get());
      if (lscan != nullptr && rscan != nullptr) {
        const std::vector<int>& lkey = lscan->table()->clustered_key;
        const std::vector<int>& rkey = rscan->table()->clustered_key;
        if (lkey.size() >= left_keys.size() &&
            rkey.size() >= right_keys.size() &&
            left_keys.size() == right_keys.size()) {
          merge_ok = true;
          for (size_t i = 0; i < left_keys.size() && merge_ok; ++i) {
            auto* lc = dynamic_cast<exec::ColumnRefExpr*>(left_keys[i].get());
            auto* rc = dynamic_cast<exec::ColumnRefExpr*>(right_keys[i].get());
            merge_ok = lc != nullptr && rc != nullptr &&
                       lc->index() == lkey[i] && rc->index() == rkey[i];
          }
        }
      }
      // Right-side key column indexes are relative to the right input; the
      // join operators evaluate right keys against right rows, so no
      // offsetting is needed. Residual predicates see the concatenated row.
      if (merge_ok) {
        left.op = std::make_unique<exec::MergeJoinOp>(
            std::move(left.op), std::move(right.op), std::move(left_keys),
            std::move(right_keys));
      } else {
        left.op = std::make_unique<exec::HashJoinOp>(
            std::move(left.op), std::move(right.op), std::move(left_keys),
            std::move(right_keys));
      }
      if (!residual.empty()) {
        // Residual column refs bound over `concat` are already correct for
        // the joined row layout.
        left.op = std::make_unique<exec::FilterOp>(
            std::move(left.op), AndTogether(std::move(residual)));
      }
    }
    left.scope = std::move(concat);
    (void)left_width;
  }
  return left;
}

namespace {

// DOP and morsel size for a morsel-parallel plan over `heap`. The heap's
// current page must already be sealed.
struct MorselPlan {
  int dop = 1;
  size_t morsel_pages = 1;
};

MorselPlan PlanMorsels(const storage::HeapTable* heap,
                       const DatabaseOptions& options) {
  const size_t npages = heap->num_pages_sealed();
  MorselPlan plan;
  plan.morsel_pages =
      exec::ChooseMorselPages(npages, options.max_dop, options.morsel_pages);
  const size_t nmorsels =
      (npages + plan.morsel_pages - 1) / plan.morsel_pages;
  plan.dop = static_cast<int>(std::min<size_t>(
      static_cast<size_t>(options.max_dop), std::max<size_t>(1, nmorsels)));
  return plan;
}

}  // namespace

Result<OperatorPtr> Binder::BindSelect(const SelectStmt& stmt) {
  HTG_ASSIGN_OR_RETURN(FromResult from, BindFrom(stmt));
  Scope scope = std::move(from.scope);
  OperatorPtr plan = std::move(from.op);

  BindContext pre_ctx;
  pre_ctx.scope = &scope;
  pre_ctx.db = db_;

  // WHERE.
  ExprPtr where;
  if (stmt.where != nullptr) {
    HTG_ASSIGN_OR_RETURN(where, BindExpr(*stmt.where, pre_ctx));
  }

  // Collect aggregates and window calls from the output clauses.
  std::vector<const AstExpr*> agg_calls;
  std::vector<const AstExpr*> window_calls;
  for (const SelectItem& item : stmt.items) {
    if (item.expr) {
      CollectCalls(*db_->functions(), *item.expr, &agg_calls, &window_calls);
    }
  }
  if (stmt.having) {
    CollectCalls(*db_->functions(), *stmt.having, &agg_calls, &window_calls);
  }
  for (const OrderItem& o : stmt.order_by) {
    CollectCalls(*db_->functions(), *o.expr, &agg_calls, &window_calls);
  }

  const bool has_agg = !agg_calls.empty() || !stmt.group_by.empty();
  AggScope agg_scope;

  if (has_agg) {
    // Bind GROUP BY expressions and aggregate arguments over the input.
    std::vector<ExprPtr> group_exprs;
    std::vector<std::string> group_names;
    for (const AstExprPtr& g : stmt.group_by) {
      HTG_ASSIGN_OR_RETURN(ExprPtr e, BindExpr(*g, pre_ctx));
      group_exprs.push_back(std::move(e));
      agg_scope.group_texts.push_back(g->ToText());
      group_names.push_back(g->ToText());
    }
    std::vector<exec::AggSpec> specs;
    for (const AstExpr* call : agg_calls) {
      const udf::AggregateFunction* fn =
          db_->functions()->FindAggregate(call->call_name);
      exec::AggSpec spec;
      spec.fn = fn;
      spec.display = call->ToText();
      spec.distinct = call->distinct_arg;
      if (!call->star_arg) {
        const int n = static_cast<int>(call->args.size());
        if (n < fn->min_args() || n > fn->max_args()) {
          return Status::BindError("wrong argument count for aggregate " +
                                   call->call_name);
        }
        HTG_ASSIGN_OR_RETURN(spec.args, BindExprs(call->args, pre_ctx));
      }
      agg_scope.agg_texts.push_back(spec.display);
      specs.push_back(std::move(spec));
    }
    agg_scope.schema =
        exec::MakeAggregateSchema(group_exprs, group_names, specs);

    // Parallel plan: heap-rooted scan/filter/apply pipeline, big enough,
    // mergeable aggs.
    bool parallel = from.pipeline_heap != nullptr &&
                    db_->options().max_dop > 1 &&
                    from.pipeline_heap->table->num_rows() >=
                        db_->options().parallel_threshold;
    for (const exec::AggSpec& s : specs) {
      parallel = parallel && s.fn->SupportsMerge();
    }
    auto* heap = from.pipeline_heap == nullptr
                     ? nullptr
                     : dynamic_cast<storage::HeapTable*>(
                           from.pipeline_heap->table.get());
    parallel = parallel && heap != nullptr;

    if (parallel) {
      HTG_RETURN_IF_ERROR(heap->SealCurrentPage());
      const MorselPlan mp = PlanMorsels(heap, db_->options());
      // Stage order matches the serial plan: CROSS APPLY stages from the
      // FROM clause, then the WHERE filter over the widened rows.
      std::vector<exec::ParallelStage> stages =
          exec::CloneStages(from.apply_stages);
      if (where != nullptr) {
        stages.push_back(exec::ParallelStage::Filter(where->Clone()));
      }
      std::vector<exec::AggSpec> spec_copies;
      for (const exec::AggSpec& s : specs) spec_copies.push_back(s.Clone());
      plan = std::make_unique<exec::ParallelAggregateOp>(
          from.pipeline_heap, std::move(stages), std::move(group_exprs),
          group_names, std::move(spec_copies), mp.dop, mp.morsel_pages);
    } else {
      if (where != nullptr) {
        plan = std::make_unique<exec::FilterOp>(std::move(plan),
                                                std::move(where));
      }
      plan = std::make_unique<exec::HashAggregateOp>(
          std::move(plan), std::move(group_exprs), group_names,
          std::move(specs));
    }
    where = nullptr;
  } else {
    // Non-aggregate pipelines parallelize when a CROSS APPLY stage makes
    // the per-row work heavy enough to be worth the exchange; the gather
    // preserves heap order so the result matches the serial plan exactly.
    auto* heap = from.pipeline_heap == nullptr
                     ? nullptr
                     : dynamic_cast<storage::HeapTable*>(
                           from.pipeline_heap->table.get());
    const bool parallel = heap != nullptr && !from.apply_stages.empty() &&
                          db_->options().max_dop > 1 &&
                          from.pipeline_heap->table->num_rows() >=
                              db_->options().parallel_threshold;
    if (parallel) {
      HTG_RETURN_IF_ERROR(heap->SealCurrentPage());
      const MorselPlan mp = PlanMorsels(heap, db_->options());
      std::vector<exec::ParallelStage> stages =
          exec::CloneStages(from.apply_stages);
      if (where != nullptr) {
        stages.push_back(exec::ParallelStage::Filter(std::move(where)));
      }
      plan = std::make_unique<exec::ParallelMapOp>(
          from.pipeline_heap, std::move(stages), mp.dop, mp.morsel_pages,
          /*preserve_order=*/true);
    } else if (where != nullptr) {
      plan =
          std::make_unique<exec::FilterOp>(std::move(plan), std::move(where));
    }
    where = nullptr;
  }

  BindContext post_ctx;
  post_ctx.db = db_;
  if (has_agg) {
    post_ctx.agg = &agg_scope;
  } else {
    post_ctx.scope = &scope;
  }

  // HAVING.
  if (stmt.having != nullptr) {
    HTG_ASSIGN_OR_RETURN(ExprPtr having, BindExpr(*stmt.having, post_ctx));
    plan = std::make_unique<exec::FilterOp>(std::move(plan), std::move(having));
  }

  // Window functions (ROW_NUMBER only).
  std::map<std::string, int> window_map;
  for (const AstExpr* call : window_calls) {
    if (!EqualsIgnoreCase(call->call_name, "ROW_NUMBER")) {
      return Status::BindError("unsupported window function: " +
                               call->call_name);
    }
    std::vector<exec::SortKey> keys;
    for (size_t i = 0; i < call->over_order.size(); ++i) {
      HTG_ASSIGN_OR_RETURN(ExprPtr e, BindExpr(*call->over_order[i], post_ctx));
      keys.push_back({std::move(e), call->over_desc[i]});
    }
    const int col_index = plan->output_schema().num_columns();
    plan = std::make_unique<exec::RowNumberOp>(std::move(plan),
                                               std::move(keys), call->ToText());
    window_map.emplace(call->ToText(), col_index);
  }
  if (!window_map.empty()) post_ctx.window = &window_map;

  // Projection (select list).
  std::vector<ExprPtr> proj_exprs;
  std::vector<std::string> proj_names;
  std::vector<std::string> item_texts;
  for (const SelectItem& item : stmt.items) {
    if (item.star) {
      if (has_agg) {
        return Status::BindError("'*' cannot be used with GROUP BY");
      }
      for (size_t i = 0; i < scope.cols.size(); ++i) {
        proj_exprs.push_back(std::make_unique<exec::ColumnRefExpr>(
            static_cast<int>(i), scope.cols[i].name, scope.cols[i].type));
        proj_names.push_back(scope.cols[i].name);
        item_texts.push_back(ToUpper(scope.cols[i].name));
      }
      continue;
    }
    HTG_ASSIGN_OR_RETURN(ExprPtr e, BindExpr(*item.expr, post_ctx));
    proj_exprs.push_back(std::move(e));
    std::string name = item.alias;
    if (name.empty()) {
      name = item.expr->kind == AstExpr::Kind::kIdent ? item.expr->ident.back()
                                                      : item.expr->ToText();
    }
    proj_names.push_back(name);
    item_texts.push_back(item.expr->ToText());
  }

  // ORDER BY: resolve to projection outputs; unresolved expressions become
  // hidden projection columns dropped after the sort.
  struct PendingSort {
    int column = -1;
    bool desc = false;
  };
  std::vector<PendingSort> sort_cols;
  const size_t visible = proj_exprs.size();
  for (const OrderItem& o : stmt.order_by) {
    PendingSort ps;
    ps.desc = o.descending;
    if (o.expr->kind == AstExpr::Kind::kLiteral &&
        o.expr->literal.IsIntegerKind()) {
      const int64_t pos = o.expr->literal.AsInt64();
      if (pos < 1 || pos > static_cast<int64_t>(visible)) {
        return Status::BindError("ORDER BY position out of range");
      }
      ps.column = static_cast<int>(pos - 1);
    } else {
      const std::string text = o.expr->ToText();
      for (size_t i = 0; i < visible && ps.column < 0; ++i) {
        if (item_texts[i] == text ||
            EqualsIgnoreCase(proj_names[i], text) ||
            (o.expr->kind == AstExpr::Kind::kIdent &&
             EqualsIgnoreCase(proj_names[i], o.expr->ident.back()))) {
          ps.column = static_cast<int>(i);
        }
      }
      if (ps.column < 0) {
        // Hidden sort column.
        HTG_ASSIGN_OR_RETURN(ExprPtr e, BindExpr(*o.expr, post_ctx));
        ps.column = static_cast<int>(proj_exprs.size());
        proj_exprs.push_back(std::move(e));
        proj_names.push_back("__sort" + std::to_string(ps.column));
      }
    }
    sort_cols.push_back(ps);
  }

  const bool has_hidden_sort = proj_exprs.size() > visible;
  if (stmt.distinct && has_hidden_sort) {
    return Status::BindError(
        "ORDER BY items must appear in the select list if SELECT DISTINCT");
  }
  plan = std::make_unique<exec::ProjectOp>(std::move(plan),
                                           std::move(proj_exprs), proj_names);
  if (stmt.distinct) {
    // DISTINCT is a hash aggregate grouping by every projected column,
    // with no aggregates: Value equality, the group table's spill.
    std::vector<ExprPtr> keys;
    for (size_t i = 0; i < proj_names.size(); ++i) {
      const Column& col = plan->output_schema().column(static_cast<int>(i));
      keys.push_back(std::make_unique<exec::ColumnRefExpr>(
          static_cast<int>(i), col.name, col.type));
    }
    plan = std::make_unique<exec::HashAggregateOp>(
        std::move(plan), std::move(keys), proj_names,
        std::vector<exec::AggSpec>{});
  }

  if (!sort_cols.empty()) {
    std::vector<exec::SortKey> keys;
    for (const PendingSort& ps : sort_cols) {
      const Column& col = plan->output_schema().column(ps.column);
      keys.push_back({std::make_unique<exec::ColumnRefExpr>(
                          ps.column, col.name, col.type),
                      ps.desc});
    }
    plan = std::make_unique<exec::SortOp>(std::move(plan), std::move(keys));
    if (plan->output_schema().num_columns() >
        static_cast<int>(visible)) {
      // Drop hidden sort columns.
      std::vector<ExprPtr> keep;
      std::vector<std::string> keep_names;
      for (size_t i = 0; i < visible; ++i) {
        const Column& col = plan->output_schema().column(static_cast<int>(i));
        keep.push_back(std::make_unique<exec::ColumnRefExpr>(
            static_cast<int>(i), col.name, col.type));
        keep_names.push_back(col.name);
      }
      plan = std::make_unique<exec::ProjectOp>(std::move(plan),
                                               std::move(keep), keep_names);
    }
  }

  if (stmt.top >= 0) {
    plan = std::make_unique<exec::TopOp>(std::move(plan), stmt.top);
  }
  return plan;
}

}  // namespace htg::sql
