#include "sql/planner.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "common/logging.h"
#include "obs/metrics.h"
#include "opt/cardinality.h"
#include "opt/cost_model.h"
#include "opt/join_order.h"
#include "opt/stats.h"

namespace oltap {
namespace sql {
namespace {

bool IsAggregateName(const std::string& fn) {
  return fn == "COUNT" || fn == "SUM" || fn == "MIN" || fn == "MAX" ||
         fn == "AVG";
}

// Name-resolution scope: the concatenated columns of the FROM tables.
struct BindScope {
  struct Col {
    std::string alias;  // table alias
    std::string name;
    ValueType type;
  };
  std::vector<Col> cols;

  Result<int> Find(const std::string& qualifier,
                   const std::string& name) const {
    int found = -1;
    for (size_t i = 0; i < cols.size(); ++i) {
      if (cols[i].name != name) continue;
      if (!qualifier.empty() && cols[i].alias != qualifier) continue;
      if (found >= 0) {
        return Status::InvalidArgument("ambiguous column: " + name);
      }
      found = static_cast<int>(i);
    }
    if (found < 0) {
      return Status::InvalidArgument(
          "unknown column: " +
          (qualifier.empty() ? name : qualifier + "." + name));
    }
    return found;
  }
};

// Binds a scalar (non-aggregate) parse expression against the scope.
Result<ExprPtr> Bind(const ParseExpr& e, const BindScope& scope) {
  switch (e.kind) {
    case ParseExpr::Kind::kIdent: {
      OLTAP_ASSIGN_OR_RETURN(int idx, scope.Find(e.qualifier, e.name));
      return Expr::Column(idx, scope.cols[idx].type);
    }
    case ParseExpr::Kind::kIntLit:
      return Expr::Constant(Value::Int64(e.int_val));
    case ParseExpr::Kind::kDoubleLit:
      return Expr::Constant(Value::Double(e.double_val));
    case ParseExpr::Kind::kStringLit:
      return Expr::Constant(Value::String(e.str_val));
    case ParseExpr::Kind::kNullLit:
      return Expr::Constant(Value::Null());
    case ParseExpr::Kind::kStar:
      return Status::InvalidArgument("* is only valid in COUNT(*)");
    case ParseExpr::Kind::kUnaryNot: {
      OLTAP_ASSIGN_OR_RETURN(ExprPtr inner, Bind(*e.args[0], scope));
      return Expr::Not(std::move(inner));
    }
    case ParseExpr::Kind::kUnaryMinus: {
      OLTAP_ASSIGN_OR_RETURN(ExprPtr inner, Bind(*e.args[0], scope));
      return Expr::Arith(Expr::Kind::kSub,
                         Expr::Constant(Value::Int64(0)), std::move(inner));
    }
    case ParseExpr::Kind::kIsNull: {
      OLTAP_ASSIGN_OR_RETURN(ExprPtr inner, Bind(*e.args[0], scope));
      return Expr::IsNull(std::move(inner));
    }
    case ParseExpr::Kind::kCall:
      if (IsAggregateName(e.name)) {
        return Status::InvalidArgument(
            "aggregate not allowed in this context: " + e.name);
      }
      return Status::InvalidArgument("unknown function: " + e.name);
    case ParseExpr::Kind::kBinary: {
      OLTAP_ASSIGN_OR_RETURN(ExprPtr l, Bind(*e.args[0], scope));
      OLTAP_ASSIGN_OR_RETURN(ExprPtr r, Bind(*e.args[1], scope));
      if (e.op == "AND") return Expr::And(std::move(l), std::move(r));
      if (e.op == "OR") return Expr::Or(std::move(l), std::move(r));
      if (e.op == "+") {
        return Expr::Arith(Expr::Kind::kAdd, std::move(l), std::move(r));
      }
      if (e.op == "-") {
        return Expr::Arith(Expr::Kind::kSub, std::move(l), std::move(r));
      }
      if (e.op == "*") {
        return Expr::Arith(Expr::Kind::kMul, std::move(l), std::move(r));
      }
      if (e.op == "/") {
        return Expr::Arith(Expr::Kind::kDiv, std::move(l), std::move(r));
      }
      CompareOp op;
      if (e.op == "=") {
        op = CompareOp::kEq;
      } else if (e.op == "<>") {
        op = CompareOp::kNe;
      } else if (e.op == "<") {
        op = CompareOp::kLt;
      } else if (e.op == "<=") {
        op = CompareOp::kLe;
      } else if (e.op == ">") {
        op = CompareOp::kGt;
      } else if (e.op == ">=") {
        op = CompareOp::kGe;
      } else {
        return Status::InvalidArgument("unknown operator: " + e.op);
      }
      return Expr::Compare(op, std::move(l), std::move(r));
    }
  }
  return Status::Internal("unhandled parse expression");
}

// Column indices referenced by a bound expression.
void CollectColumns(const ExprPtr& e, std::vector<int>* out) {
  if (e == nullptr) return;
  if (e->kind() == Expr::Kind::kColumn) out->push_back(e->column_index());
  for (const ExprPtr& c : e->children()) CollectColumns(c, out);
}

// Shifts every column reference in a bound expression by -offset (combined
// scope index → table-local index).
ExprPtr ShiftColumns(const ExprPtr& e, int offset) {
  if (e->kind() == Expr::Kind::kColumn) {
    return Expr::Column(e->column_index() - offset, e->result_type());
  }
  switch (e->kind()) {
    case Expr::Kind::kConst:
      return e;
    case Expr::Kind::kCompare:
      return Expr::Compare(e->compare_op(),
                           ShiftColumns(e->children()[0], offset),
                           ShiftColumns(e->children()[1], offset));
    case Expr::Kind::kAnd:
      return Expr::And(ShiftColumns(e->children()[0], offset),
                       ShiftColumns(e->children()[1], offset));
    case Expr::Kind::kOr:
      return Expr::Or(ShiftColumns(e->children()[0], offset),
                      ShiftColumns(e->children()[1], offset));
    case Expr::Kind::kNot:
      return Expr::Not(ShiftColumns(e->children()[0], offset));
    case Expr::Kind::kIsNull:
      return Expr::IsNull(ShiftColumns(e->children()[0], offset));
    default:
      return Expr::Arith(e->kind(), ShiftColumns(e->children()[0], offset),
                         ShiftColumns(e->children()[1], offset));
  }
}

// Rewrites column references through an arbitrary index map (combined
// scope index → plan output position after join reordering and pruning).
ExprPtr RemapGlobal(const ExprPtr& e, const std::vector<int>& map) {
  if (e->kind() == Expr::Kind::kColumn) {
    int pos = map[static_cast<size_t>(e->column_index())];
    OLTAP_DCHECK(pos >= 0) << "column pruned from the plan";
    return Expr::Column(pos, e->result_type());
  }
  switch (e->kind()) {
    case Expr::Kind::kConst:
      return e;
    case Expr::Kind::kCompare:
      return Expr::Compare(e->compare_op(), RemapGlobal(e->children()[0], map),
                           RemapGlobal(e->children()[1], map));
    case Expr::Kind::kAnd:
      return Expr::And(RemapGlobal(e->children()[0], map),
                       RemapGlobal(e->children()[1], map));
    case Expr::Kind::kOr:
      return Expr::Or(RemapGlobal(e->children()[0], map),
                      RemapGlobal(e->children()[1], map));
    case Expr::Kind::kNot:
      return Expr::Not(RemapGlobal(e->children()[0], map));
    case Expr::Kind::kIsNull:
      return Expr::IsNull(RemapGlobal(e->children()[0], map));
    default:
      return Expr::Arith(e->kind(), RemapGlobal(e->children()[0], map),
                         RemapGlobal(e->children()[1], map));
  }
}

// The pushable (column <op> const) conjuncts of a table-local predicate,
// mirroring the split ScanOp::Open performs — the cost model prices the
// zone-map pruning these would get.
std::vector<Expr::ColumnPredicate> PushablePreds(const ExprPtr& pred) {
  std::vector<Expr::ColumnPredicate> out;
  if (pred == nullptr) return out;
  std::vector<ExprPtr> conjuncts;
  Expr::SplitConjuncts(pred, &conjuncts);
  for (const ExprPtr& c : conjuncts) {
    Expr::ColumnPredicate cp;
    if (c->AsColumnPredicate(&cp)) out.push_back(cp);
  }
  return out;
}

// Marks every scope column an identifier in `e` names. Identifiers that
// do not resolve are left to the binder, which reports them.
void MarkNamedColumns(const ParseExpr& e, const BindScope& scope,
                      std::vector<bool>* used) {
  if (e.kind == ParseExpr::Kind::kIdent) {
    Result<int> idx = scope.Find(e.qualifier, e.name);
    if (idx.ok()) (*used)[static_cast<size_t>(*idx)] = true;
  }
  for (const auto& a : e.args) MarkNamedColumns(*a, scope, used);
}

struct FromTable {
  const Table* table;
  std::string alias;
  int offset;  // first combined column index
  int width;
};

}  // namespace

std::string StatementFingerprint(const SelectStmt& stmt) {
  std::string fp = "SELECT ";
  if (stmt.distinct) fp += "DISTINCT ";
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    if (i > 0) fp += ", ";
    fp += stmt.items[i].expr->ToString();
    if (!stmt.items[i].alias.empty()) fp += " AS " + stmt.items[i].alias;
  }
  fp += " FROM ";
  for (size_t i = 0; i < stmt.tables.size(); ++i) {
    if (i > 0) fp += ", ";
    fp += stmt.tables[i].name;
    if (!stmt.tables[i].alias.empty() &&
        stmt.tables[i].alias != stmt.tables[i].name) {
      fp += " " + stmt.tables[i].alias;
    }
    if (stmt.tables[i].join_on != nullptr) {
      fp += " ON " + stmt.tables[i].join_on->ToString();
    }
  }
  if (stmt.where != nullptr) fp += " WHERE " + stmt.where->ToString();
  if (!stmt.group_by.empty()) {
    fp += " GROUP BY ";
    for (size_t i = 0; i < stmt.group_by.size(); ++i) {
      if (i > 0) fp += ", ";
      fp += stmt.group_by[i]->ToString();
    }
  }
  if (stmt.having != nullptr) fp += " HAVING " + stmt.having->ToString();
  if (!stmt.order_by.empty()) {
    fp += " ORDER BY ";
    for (size_t i = 0; i < stmt.order_by.size(); ++i) {
      if (i > 0) fp += ", ";
      fp += stmt.order_by[i].expr->ToString();
      if (stmt.order_by[i].descending) fp += " DESC";
    }
  }
  if (stmt.limit >= 0) fp += " LIMIT " + std::to_string(stmt.limit);
  return fp;
}

bool ContainsAggregate(const ParseExpr& e) {
  if (e.kind == ParseExpr::Kind::kCall && IsAggregateName(e.name)) {
    return true;
  }
  for (const auto& a : e.args) {
    if (ContainsAggregate(*a)) return true;
  }
  return false;
}

Result<ExprPtr> BindOverSchema(const ParseExpr& e, const Schema& schema,
                               const std::string& alias) {
  BindScope scope;
  for (const ColumnDef& c : schema.columns()) {
    scope.cols.push_back({alias, c.name, c.type});
  }
  return Bind(e, scope);
}

Result<PlannedQuery> PlanSelect(const SelectStmt& stmt,
                                const Catalog& catalog, Timestamp read_ts,
                                const PlannerOptions& options) {
  // ---- Resolve FROM tables and build the combined scope. ----
  BindScope scope;
  std::vector<FromTable> from;
  for (const TableRef& ref : stmt.tables) {
    Table* table = catalog.GetTable(ref.name);
    if (table == nullptr) {
      return Status::NotFound("unknown table: " + ref.name);
    }
    FromTable ft;
    ft.table = table;
    ft.alias = ref.alias;
    ft.offset = static_cast<int>(scope.cols.size());
    ft.width = static_cast<int>(table->schema().num_columns());
    for (const ColumnDef& c : table->schema().columns()) {
      scope.cols.push_back({ref.alias, c.name, c.type});
    }
    from.push_back(ft);
  }

  // ---- Bind WHERE and classify conjuncts per table. ----
  std::vector<ExprPtr> table_preds(from.size());
  std::vector<ExprPtr> residual;
  if (stmt.where != nullptr) {
    if (ContainsAggregate(*stmt.where)) {
      return Status::InvalidArgument("aggregates not allowed in WHERE");
    }
    OLTAP_ASSIGN_OR_RETURN(ExprPtr where, Bind(*stmt.where, scope));
    std::vector<ExprPtr> conjuncts;
    Expr::SplitConjuncts(where, &conjuncts);
    for (const ExprPtr& c : conjuncts) {
      std::vector<int> cols;
      CollectColumns(c, &cols);
      int owner = -1;
      bool single = true;
      for (int col : cols) {
        int t = -1;
        for (size_t i = 0; i < from.size(); ++i) {
          if (col >= from[i].offset && col < from[i].offset + from[i].width) {
            t = static_cast<int>(i);
          }
        }
        if (owner == -1) owner = t;
        if (t != owner) single = false;
      }
      if (single && owner >= 0) {
        ExprPtr local = ShiftColumns(c, from[owner].offset);
        table_preds[owner] = table_preds[owner] == nullptr
                                 ? local
                                 : Expr::And(table_preds[owner], local);
      } else if (owner == -1) {
        // Constant predicate: attach to the first table.
        table_preds[0] = table_preds[0] == nullptr
                             ? c
                             : Expr::And(table_preds[0], c);
      } else {
        residual.push_back(c);
      }
    }
  }

  auto* metrics = obs::MetricsRegistry::Default();
  metrics->GetCounter("opt.plans")->Add(1);

  PlannedQuery out;
  out.optimized = options.use_optimizer;
  out.scans.assign(from.size(), nullptr);

  PhysicalOpPtr plan;
  // Combined-scope column index → plan output position. Empty means
  // identity (the FROM-order planner below concatenates tables in scope
  // order, so no rewrite is needed).
  std::vector<int> global_to_plan;

  // Degree of parallelism of `plan`'s top operator. Morsel parallelism
  // runs on the optimizer path only (SET optimizer=off must reproduce the
  // historical plans byte for byte), and only when the session supplied a
  // pool and the admission grant left DOP >= 2.
  size_t plan_dop = 1;
  const size_t grant_dop =
      options.use_optimizer && options.exec_pool != nullptr ? options.max_dop
                                                            : 1;
  auto ctx_of = [&](size_t dop) {
    return ParallelContext{options.exec_pool, dop};
  };
  bool any_parallel = false;

  if (!options.use_optimizer) {
    // ---- Scans and left-deep joins in FROM order (optimizer off). ----
    // This block is the planner exactly as it was before the optimizer
    // existed; SET optimizer = off must reproduce its plans — and their
    // EXPLAIN text — byte for byte.
    plan = std::make_unique<ScanOp>(from[0].table, read_ts, table_preds[0]);
    for (size_t i = 1; i < stmt.tables.size(); ++i) {
      if (stmt.tables[i].join_on == nullptr) {
        return Status::InvalidArgument("missing ON clause");
      }
      OLTAP_ASSIGN_OR_RETURN(ExprPtr on,
                             Bind(*stmt.tables[i].join_on, scope));
      std::vector<ExprPtr> on_terms;
      Expr::SplitConjuncts(on, &on_terms);
      std::vector<int> build_keys, probe_keys;
      std::vector<ExprPtr> post_join;
      const int offset = from[i].offset;
      const int width = from[i].width;
      for (const ExprPtr& term : on_terms) {
        // Look for equality between an accumulated column and a new-table
        // column.
        bool handled = false;
        if (term->kind() == Expr::Kind::kCompare &&
            term->compare_op() == CompareOp::kEq) {
          const ExprPtr& l = term->children()[0];
          const ExprPtr& r = term->children()[1];
          if (l->kind() == Expr::Kind::kColumn &&
              r->kind() == Expr::Kind::kColumn) {
            int lc = l->column_index(), rc = r->column_index();
            bool l_new = lc >= offset && lc < offset + width;
            bool r_new = rc >= offset && rc < offset + width;
            if (l_new != r_new) {
              int build = l_new ? rc : lc;
              int probe = (l_new ? lc : rc) - offset;
              if (build < offset) {
                build_keys.push_back(build);
                probe_keys.push_back(probe);
                handled = true;
              }
            }
          }
        }
        if (!handled) post_join.push_back(term);
      }
      if (build_keys.empty()) {
        return Status::InvalidArgument(
            "JOIN requires at least one equality between the joined tables");
      }
      PhysicalOpPtr scan = std::make_unique<ScanOp>(
          from[i].table, read_ts, table_preds[i]);
      plan = std::make_unique<HashJoinOp>(std::move(plan), std::move(scan),
                                          std::move(build_keys),
                                          std::move(probe_keys));
      if (!post_join.empty()) {
        plan = std::make_unique<FilterOp>(std::move(plan),
                                          Expr::CombineConjuncts(post_join));
      }
    }
    if (!residual.empty()) {
      plan = std::make_unique<FilterOp>(std::move(plan),
                                        Expr::CombineConjuncts(residual));
    }
  } else {
    // ---- Cost-based path: pooled join graph, DPsize ordering, costed
    // scans with access-path selection, estimate annotations. ----
    metrics->GetCounter("opt.plans_optimized")->Add(1);
    out.fingerprint = StatementFingerprint(stmt);

    auto owner_of = [&](int col) {
      int t = -1;
      for (size_t i = 0; i < from.size(); ++i) {
        if (col >= from[i].offset && col < from[i].offset + from[i].width) {
          t = static_cast<int>(i);
        }
      }
      return t;
    };

    // Per-relation statistics and post-local-predicate cardinalities.
    // Measured actuals from the feedback memo override estimates.
    std::vector<std::shared_ptr<const opt::TableStats>> stats(from.size());
    std::vector<double> rel_rows(from.size());
    std::optional<opt::PlanFeedback::Entry> fb;
    if (options.feedback != nullptr) {
      fb = options.feedback->Lookup(out.fingerprint);
    }
    bool used_actuals = false;
    for (size_t i = 0; i < from.size(); ++i) {
      stats[i] = catalog.GetTableStats(from[i].table->name());
      double base = static_cast<double>(from[i].table->ApproxRowCount());
      opt::CardinalityEstimator est(stats[i].get(), base);
      rel_rows[i] = est.EstimateRows(table_preds[i]);
      if (fb.has_value() && i < fb->scan_actual_rows.size() &&
          fb->scan_actual_rows[i] >= 0) {
        rel_rows[i] = fb->scan_actual_rows[i];
        used_actuals = true;
      }
    }

    // Pool the ON-clause terms once against the combined scope, keeping
    // the FROM-order planner's validation (each join needs an equality
    // with an earlier table) so rejected statements stay rejected.
    struct EqEdge {
      int ta, tb;  // FROM indices
      int ga, gb;  // combined-scope columns
      double sel;  // equi-join selectivity
      bool applied = false;
    };
    std::vector<EqEdge> edges;
    std::vector<ExprPtr> late_filters;  // non-key ON terms + residual
    auto add_edge = [&](int tl, int tr, int lc, int rc) {
      double sel = opt::EquiJoinSelectivity(
          stats[tl].get(), lc - from[tl].offset,
          static_cast<double>(from[tl].table->ApproxRowCount()),
          stats[tr].get(), rc - from[tr].offset,
          static_cast<double>(from[tr].table->ApproxRowCount()));
      edges.push_back({tl, tr, lc, rc, sel});
    };
    for (size_t i = 1; i < stmt.tables.size(); ++i) {
      if (stmt.tables[i].join_on == nullptr) {
        return Status::InvalidArgument("missing ON clause");
      }
      OLTAP_ASSIGN_OR_RETURN(ExprPtr on,
                             Bind(*stmt.tables[i].join_on, scope));
      std::vector<ExprPtr> on_terms;
      Expr::SplitConjuncts(on, &on_terms);
      const int offset = from[i].offset;
      const int width = from[i].width;
      bool any_eq = false;
      for (const ExprPtr& term : on_terms) {
        bool is_edge = false;
        if (term->kind() == Expr::Kind::kCompare &&
            term->compare_op() == CompareOp::kEq) {
          const ExprPtr& l = term->children()[0];
          const ExprPtr& r = term->children()[1];
          if (l->kind() == Expr::Kind::kColumn &&
              r->kind() == Expr::Kind::kColumn) {
            int lc = l->column_index(), rc = r->column_index();
            int tl = owner_of(lc), tr = owner_of(rc);
            if (tl != tr && tl >= 0 && tr >= 0) {
              add_edge(tl, tr, lc, rc);
              is_edge = true;
              bool l_new = lc >= offset && lc < offset + width;
              bool r_new = rc >= offset && rc < offset + width;
              if (l_new != r_new && (l_new ? rc : lc) < offset) {
                any_eq = true;
              }
            }
          }
        }
        if (!is_edge) late_filters.push_back(term);
      }
      if (!any_eq) {
        return Status::InvalidArgument(
            "JOIN requires at least one equality between the joined tables");
      }
    }
    // Cross-table equalities from WHERE become join keys/edges as well.
    for (const ExprPtr& c : residual) {
      bool is_edge = false;
      if (c->kind() == Expr::Kind::kCompare &&
          c->compare_op() == CompareOp::kEq) {
        const ExprPtr& l = c->children()[0];
        const ExprPtr& r = c->children()[1];
        if (l->kind() == Expr::Kind::kColumn &&
            r->kind() == Expr::Kind::kColumn) {
          int lc = l->column_index(), rc = r->column_index();
          int tl = owner_of(lc), tr = owner_of(rc);
          if (tl != tr && tl >= 0 && tr >= 0) {
            add_edge(tl, tr, lc, rc);
            is_edge = true;
          }
        }
      }
      if (!is_edge) late_filters.push_back(c);
    }

    // Column pruning: each scan emits only the columns read above it —
    // join keys, late filters, and the SELECT (* = all), GROUP BY and
    // HAVING lists. A column only its own table's predicate reads is
    // consumed inside the scan. A table that emits nothing keeps its first
    // column, so its batches still carry the row count.
    std::vector<bool> used(scope.cols.size(), false);
    for (const EqEdge& e : edges) {
      used[static_cast<size_t>(e.ga)] = true;
      used[static_cast<size_t>(e.gb)] = true;
    }
    for (const ExprPtr& c : late_filters) {
      std::vector<int> cols;
      CollectColumns(c, &cols);
      for (int col : cols) used[static_cast<size_t>(col)] = true;
    }
    if (stmt.items.size() == 1 &&
        stmt.items[0].expr->kind == ParseExpr::Kind::kStar) {
      used.assign(used.size(), true);
    }
    for (const SelectItem& item : stmt.items) {
      MarkNamedColumns(*item.expr, scope, &used);
    }
    for (const ParseExprPtr& g : stmt.group_by) {
      MarkNamedColumns(*g, scope, &used);
    }
    if (stmt.having != nullptr) MarkNamedColumns(*stmt.having, scope, &used);
    // Per relation: its projection (schema indices), and each scope
    // column's position within it.
    std::vector<std::vector<int>> projection(from.size());
    std::vector<int> local_pos(scope.cols.size(), -1);
    for (size_t t = 0; t < from.size(); ++t) {
      for (int j = 0; j < from[t].width; ++j) {
        if (used[static_cast<size_t>(from[t].offset + j)]) {
          projection[t].push_back(j);
        }
      }
      if (projection[t].empty()) projection[t].push_back(0);
      for (size_t p = 0; p < projection[t].size(); ++p) {
        local_pos[static_cast<size_t>(from[t].offset + projection[t][p])] =
            static_cast<int>(p);
      }
    }

    const opt::CostModel cm;

    // Join order: the memoized order when one is still valid, cost-based
    // search otherwise (DPsize up to 8 relations, greedy above).
    std::vector<int> order(from.size());
    std::iota(order.begin(), order.end(), 0);
    if (from.size() > 1) {
      if (fb.has_value() && fb->order.size() == from.size()) {
        order = fb->order;
        metrics->GetCounter("opt.order_cache_hits")->Add(1);
      } else {
        opt::JoinGraph graph;
        graph.rel_rows = rel_rows;
        for (const EqEdge& e : edges) {
          graph.edges.push_back({e.ta, e.tb, e.sel});
        }
        order = opt::OrderJoins(graph, cm).order;
        if (used_actuals) {
          metrics->GetCounter("opt.feedback_replans")->Add(1);
        }
        if (options.feedback != nullptr) {
          options.feedback->RememberOrder(out.fingerprint, order);
        }
      }
    }
    out.join_order = order;

    // Estimated rows after each join prefix along the chosen order.
    std::vector<double> interm(order.size());
    {
      std::vector<bool> seen(from.size(), false);
      double rows = rel_rows[order[0]];
      interm[0] = rows;
      seen[order[0]] = true;
      for (size_t p = 1; p < order.size(); ++p) {
        int r = order[p];
        double sel = 1.0;
        for (const EqEdge& e : edges) {
          if ((e.ta == r && seen[e.tb]) || (e.tb == r && seen[e.ta])) {
            sel *= e.sel;
          }
        }
        rows = rows * rel_rows[r] * sel;
        interm[p] = rows;
        seen[r] = true;
      }
    }

    // Costed scan with access-path selection (explicit side only for
    // dual-format tables; other formats have exactly one).
    auto make_scan = [&](int t) -> std::unique_ptr<ScanOp> {
      opt::CostModel::ScanDecision d =
          cm.CostScan(*from[t].table, read_ts, PushablePreds(table_preds[t]),
                      rel_rows[t]);
      ScanOp::Path path = ScanOp::Path::kAuto;
      if (from[t].table->format() == TableFormat::kDual) {
        path = d.path == opt::AccessPath::kRow ? ScanOp::Path::kRow
                                               : ScanOp::Path::kColumn;
        metrics
            ->GetCounter(path == ScanOp::Path::kRow ? "opt.path_row"
                                                    : "opt.path_column")
            ->Add(1);
      }
      // Large columnar reads run morsel-parallel at the granted DOP.
      size_t dop = 1;
      if (path != ScanOp::Path::kRow &&
          from[t].table->column_table() != nullptr &&
          from[t].table->ApproxRowCount() >= kMinParallelScanRows) {
        dop = grant_dop;
        any_parallel |= dop >= 2;
      }
      auto scan = std::make_unique<ScanOp>(from[t].table, read_ts,
                                           table_preds[t], projection[t],
                                           path, ctx_of(dop));
      scan->set_estimates(rel_rows[t], d.cost);
      out.scans[static_cast<size_t>(t)] = scan.get();
      return scan;
    };

    global_to_plan.assign(scope.cols.size(), -1);
    int plan_width = 0;
    // Appends relation t's projected columns to the plan's output.
    auto place = [&](int t) {
      for (int j : projection[t]) {
        size_t g = static_cast<size_t>(from[t].offset + j);
        global_to_plan[g] = plan_width + local_pos[g];
      }
      plan_width += static_cast<int>(projection[t].size());
    };
    std::vector<bool> placed(from.size(), false);
    std::unique_ptr<ScanOp> first = make_scan(order[0]);
    plan_dop = first->dop();
    plan = std::move(first);
    double cum_cost = plan->est_cost();
    place(order[0]);
    placed[order[0]] = true;
    for (size_t p = 1; p < order.size(); ++p) {
      int r = order[p];
      // Every pooled equality with exactly one side on the new relation
      // and the other already placed becomes a hash key here.
      std::vector<int> build_keys, probe_keys;
      for (EqEdge& e : edges) {
        if (e.applied) continue;
        int rg = -1, og = -1;
        if (e.ta == r && placed[e.tb]) {
          rg = e.ga;
          og = e.gb;
        } else if (e.tb == r && placed[e.ta]) {
          rg = e.gb;
          og = e.ga;
        }
        if (rg < 0) continue;
        build_keys.push_back(global_to_plan[static_cast<size_t>(og)]);
        probe_keys.push_back(local_pos[static_cast<size_t>(rg)]);
        e.applied = true;
      }
      auto scan = make_scan(r);
      cum_cost += scan->est_cost() +
                  cm.CostHashJoin(interm[p - 1], rel_rows[r], interm[p]).cost;
      // The join runs inside the probe scan's morsel pipeline.
      plan_dop = scan->dop();
      auto join = std::make_unique<HashJoinOp>(
          std::move(plan), std::move(scan), std::move(build_keys),
          std::move(probe_keys), ctx_of(plan_dop));
      join->set_estimates(interm[p], cum_cost);
      plan = std::move(join);
      place(r);
      placed[r] = true;
    }

    // Non-key ON terms and the remaining residual run above the joins,
    // rewritten into plan positions.
    if (!late_filters.empty()) {
      std::vector<ExprPtr> remapped;
      remapped.reserve(late_filters.size());
      for (const ExprPtr& c : late_filters) {
        remapped.push_back(RemapGlobal(c, global_to_plan));
      }
      ExprPtr pred = Expr::CombineConjuncts(remapped);
      plan = std::make_unique<FilterOp>(std::move(plan), std::move(pred),
                                        ctx_of(plan_dop));
    }
  }

  // After join reordering the plan's output columns are in join order,
  // not scope order; every later scope-bound expression goes through this
  // rewrite (identity when global_to_plan is empty).
  auto remap_out = [&](ExprPtr e) -> ExprPtr {
    return global_to_plan.empty() ? e : RemapGlobal(e, global_to_plan);
  };

  // ---- SELECT list: expand *, detect aggregation. ----
  std::vector<const SelectItem*> items;
  std::vector<SelectItem> expanded;
  if (stmt.items.size() == 1 &&
      stmt.items[0].expr->kind == ParseExpr::Kind::kStar) {
    for (const BindScope::Col& c : scope.cols) {
      SelectItem item;
      auto ident = std::make_unique<ParseExpr>();
      ident->kind = ParseExpr::Kind::kIdent;
      ident->qualifier = c.alias;
      ident->name = c.name;
      item.expr = std::move(ident);
      item.alias = c.name;
      expanded.push_back(std::move(item));
    }
    for (const SelectItem& item : expanded) items.push_back(&item);
  } else {
    for (const SelectItem& item : stmt.items) items.push_back(&item);
  }

  bool has_agg = !stmt.group_by.empty();
  for (const SelectItem* item : items) {
    if (ContainsAggregate(*item->expr)) has_agg = true;
  }

  std::vector<std::string> names;
  if (!has_agg) {
    if (stmt.having != nullptr) {
      return Status::InvalidArgument(
          "HAVING requires GROUP BY or aggregates");
    }
    std::vector<ExprPtr> projections;
    for (const SelectItem* item : items) {
      OLTAP_ASSIGN_OR_RETURN(ExprPtr e, Bind(*item->expr, scope));
      projections.push_back(remap_out(std::move(e)));
      names.push_back(item->alias.empty() ? item->expr->ToString()
                                          : item->alias);
    }
    plan = std::make_unique<ProjectOp>(std::move(plan),
                                       std::move(projections));
  } else {
    // Bind group keys.
    std::vector<ExprPtr> group_exprs;
    std::vector<std::string> group_texts;
    for (const ParseExprPtr& g : stmt.group_by) {
      OLTAP_ASSIGN_OR_RETURN(ExprPtr e, Bind(*g, scope));
      group_exprs.push_back(remap_out(std::move(e)));
      group_texts.push_back(g->ToString());
    }
    // Each select item is either a group expression or a single aggregate.
    struct OutputRef {
      bool is_group;
      size_t index;  // into group_exprs or aggs
    };
    std::vector<AggSpec> aggs;
    std::vector<OutputRef> refs;
    for (const SelectItem* item : items) {
      const ParseExpr& pe = *item->expr;
      names.push_back(item->alias.empty() ? pe.ToString() : item->alias);
      if (pe.kind == ParseExpr::Kind::kCall && IsAggregateName(pe.name)) {
        AggSpec spec;
        if (pe.name == "COUNT") {
          if (pe.args.size() == 1 &&
              pe.args[0]->kind == ParseExpr::Kind::kStar) {
            spec.fn = AggSpec::Fn::kCountStar;
          } else if (pe.args.size() == 1) {
            spec.fn = AggSpec::Fn::kCount;
            OLTAP_ASSIGN_OR_RETURN(spec.arg, Bind(*pe.args[0], scope));
            spec.arg = remap_out(std::move(spec.arg));
          } else {
            return Status::InvalidArgument("COUNT takes one argument");
          }
        } else {
          if (pe.args.size() != 1) {
            return Status::InvalidArgument(pe.name + " takes one argument");
          }
          if (pe.name == "SUM") {
            spec.fn = AggSpec::Fn::kSum;
          } else if (pe.name == "MIN") {
            spec.fn = AggSpec::Fn::kMin;
          } else if (pe.name == "MAX") {
            spec.fn = AggSpec::Fn::kMax;
          } else {
            spec.fn = AggSpec::Fn::kAvg;
          }
          OLTAP_ASSIGN_OR_RETURN(spec.arg, Bind(*pe.args[0], scope));
          spec.arg = remap_out(std::move(spec.arg));
        }
        refs.push_back({false, aggs.size()});
        aggs.push_back(std::move(spec));
      } else {
        // Must match a GROUP BY expression textually.
        std::string text = pe.ToString();
        auto it = std::find(group_texts.begin(), group_texts.end(), text);
        if (it == group_texts.end()) {
          return Status::InvalidArgument(
              "select item is neither aggregate nor grouped: " + text);
        }
        refs.push_back(
            {true, static_cast<size_t>(it - group_texts.begin())});
      }
    }
    size_t num_groups = group_exprs.size();

    // Bind HAVING against the aggregate output: aggregate calls become
    // (possibly hidden) aggregate columns, group expressions become key
    // columns; anything else must be literal structure over those.
    ExprPtr having;
    if (stmt.having != nullptr) {
      std::function<Result<ExprPtr>(const ParseExpr&)> bind_having =
          [&](const ParseExpr& pe) -> Result<ExprPtr> {
        if (pe.kind == ParseExpr::Kind::kCall && IsAggregateName(pe.name)) {
          AggSpec spec;
          if (pe.name == "COUNT" && pe.args.size() == 1 &&
              pe.args[0]->kind == ParseExpr::Kind::kStar) {
            spec.fn = AggSpec::Fn::kCountStar;
          } else {
            if (pe.args.size() != 1) {
              return Status::InvalidArgument(pe.name + " takes one argument");
            }
            if (pe.name == "COUNT") {
              spec.fn = AggSpec::Fn::kCount;
            } else if (pe.name == "SUM") {
              spec.fn = AggSpec::Fn::kSum;
            } else if (pe.name == "MIN") {
              spec.fn = AggSpec::Fn::kMin;
            } else if (pe.name == "MAX") {
              spec.fn = AggSpec::Fn::kMax;
            } else {
              spec.fn = AggSpec::Fn::kAvg;
            }
            OLTAP_ASSIGN_OR_RETURN(spec.arg, Bind(*pe.args[0], scope));
            spec.arg = remap_out(std::move(spec.arg));
          }
          ValueType out_type = spec.OutputType();
          aggs.push_back(std::move(spec));
          return Expr::Column(static_cast<int>(num_groups + aggs.size() - 1),
                              out_type);
        }
        std::string text = pe.ToString();
        auto it = std::find(group_texts.begin(), group_texts.end(), text);
        if (it != group_texts.end()) {
          size_t g = static_cast<size_t>(it - group_texts.begin());
          return Expr::Column(static_cast<int>(g),
                              group_exprs[g]->result_type());
        }
        switch (pe.kind) {
          case ParseExpr::Kind::kIntLit:
            return Expr::Constant(Value::Int64(pe.int_val));
          case ParseExpr::Kind::kDoubleLit:
            return Expr::Constant(Value::Double(pe.double_val));
          case ParseExpr::Kind::kStringLit:
            return Expr::Constant(Value::String(pe.str_val));
          case ParseExpr::Kind::kNullLit:
            return Expr::Constant(Value::Null());
          case ParseExpr::Kind::kUnaryNot: {
            OLTAP_ASSIGN_OR_RETURN(ExprPtr inner, bind_having(*pe.args[0]));
            return Expr::Not(std::move(inner));
          }
          case ParseExpr::Kind::kIsNull: {
            OLTAP_ASSIGN_OR_RETURN(ExprPtr inner, bind_having(*pe.args[0]));
            return Expr::IsNull(std::move(inner));
          }
          case ParseExpr::Kind::kBinary: {
            OLTAP_ASSIGN_OR_RETURN(ExprPtr l, bind_having(*pe.args[0]));
            OLTAP_ASSIGN_OR_RETURN(ExprPtr r, bind_having(*pe.args[1]));
            if (pe.op == "AND") return Expr::And(std::move(l), std::move(r));
            if (pe.op == "OR") return Expr::Or(std::move(l), std::move(r));
            if (pe.op == "+") {
              return Expr::Arith(Expr::Kind::kAdd, std::move(l),
                                 std::move(r));
            }
            if (pe.op == "-") {
              return Expr::Arith(Expr::Kind::kSub, std::move(l),
                                 std::move(r));
            }
            if (pe.op == "*") {
              return Expr::Arith(Expr::Kind::kMul, std::move(l),
                                 std::move(r));
            }
            if (pe.op == "/") {
              return Expr::Arith(Expr::Kind::kDiv, std::move(l),
                                 std::move(r));
            }
            CompareOp op;
            if (pe.op == "=") {
              op = CompareOp::kEq;
            } else if (pe.op == "<>") {
              op = CompareOp::kNe;
            } else if (pe.op == "<") {
              op = CompareOp::kLt;
            } else if (pe.op == "<=") {
              op = CompareOp::kLe;
            } else if (pe.op == ">") {
              op = CompareOp::kGt;
            } else {
              op = CompareOp::kGe;
            }
            return Expr::Compare(op, std::move(l), std::move(r));
          }
          default:
            return Status::InvalidArgument(
                "HAVING must reference aggregates or GROUP BY columns: " +
                text);
        }
      };
      OLTAP_ASSIGN_OR_RETURN(having, bind_having(*stmt.having));
    }

    // Thread-local pre-aggregation per morsel, merged in slot order —
    // exact for COUNT/SUM(int)/MIN/MAX. Order-sensitive float folds (AVG,
    // SUM over doubles) aggregate at DOP 1 over the parallel child, which
    // is still bit-exact because the child reproduces the serial row
    // stream.
    plan = std::make_unique<HashAggOp>(
        std::move(plan), std::move(group_exprs), aggs,
        ctx_of(AggsParallelMergeable(aggs) ? plan_dop : 1));
    if (having != nullptr) {
      plan = std::make_unique<FilterOp>(std::move(plan), std::move(having));
    }
    // Re-project into select order (dropping hidden HAVING aggregates).
    std::vector<ExprPtr> projections;
    std::vector<ValueType> agg_output = plan->OutputTypes();
    for (const OutputRef& ref : refs) {
      size_t idx = ref.is_group ? ref.index : num_groups + ref.index;
      projections.push_back(
          Expr::Column(static_cast<int>(idx), agg_output[idx]));
    }
    plan = std::make_unique<ProjectOp>(std::move(plan),
                                       std::move(projections));
  }

  if (stmt.distinct) {
    // SELECT DISTINCT: group on every output column, no aggregates.
    std::vector<ValueType> out_types = plan->OutputTypes();
    std::vector<ExprPtr> keys;
    keys.reserve(out_types.size());
    for (size_t i = 0; i < out_types.size(); ++i) {
      keys.push_back(Expr::Column(static_cast<int>(i), out_types[i]));
    }
    plan = std::make_unique<HashAggOp>(std::move(plan), std::move(keys),
                                       std::vector<AggSpec>{});
  }

  // ---- ORDER BY / LIMIT over the projected output. ----
  if (!stmt.order_by.empty()) {
    std::vector<SortOp::SortKey> keys;
    for (const OrderItem& item : stmt.order_by) {
      int col = -1;
      const ParseExpr& pe = *item.expr;
      if (pe.kind == ParseExpr::Kind::kIntLit) {
        // ORDER BY <position>, 1-based.
        if (pe.int_val < 1 || pe.int_val > static_cast<int64_t>(names.size())) {
          return Status::InvalidArgument("ORDER BY position out of range");
        }
        col = static_cast<int>(pe.int_val - 1);
      } else {
        std::string text = pe.ToString();
        for (size_t i = 0; i < names.size(); ++i) {
          if (names[i] == text) col = static_cast<int>(i);
        }
        if (col < 0) {
          // Also try matching the un-aliased item text.
          size_t i = 0;
          for (const SelectItem* item2 : items) {
            if (item2->expr->ToString() == text) col = static_cast<int>(i);
            ++i;
          }
        }
        if (col < 0) {
          return Status::InvalidArgument(
              "ORDER BY must reference a select-list column: " + text);
        }
      }
      keys.push_back({col, item.descending});
    }
    if (stmt.limit >= 0) {
      // Fuse ORDER BY + LIMIT into a bounded-heap Top-N.
      plan = std::make_unique<TopNOp>(std::move(plan), std::move(keys),
                                      static_cast<size_t>(stmt.limit));
    } else {
      plan = std::make_unique<SortOp>(std::move(plan), std::move(keys));
    }
  } else if (stmt.limit >= 0) {
    plan = std::make_unique<LimitOp>(std::move(plan),
                                     static_cast<size_t>(stmt.limit));
  }

  if (any_parallel) {
    metrics->GetCounter("exec.morsel.parallel_queries")->Add(1);
  }
  out.root = std::move(plan);
  out.output_names = std::move(names);
  return out;
}

}  // namespace sql
}  // namespace oltap
