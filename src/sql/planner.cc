#include "sql/planner.h"

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

}  // namespace

Result<PlannedQuery> PlanSelect(const BoundSelect& q, const Catalog& catalog,
                                Timestamp read_ts,
                                const PlannerOptions& options) {
  const std::vector<BoundTable>& from = q.from;
  const size_t num_cols =
      static_cast<size_t>(from.back().offset + from.back().width);

  // ---- Single-table WHERE conjuncts go into their scans. ----
  std::vector<ExprPtr> table_preds(from.size());
  std::vector<const BoundConjunct*> residual;
  for (const BoundConjunct& c : q.where) {
    if (c.kind != BoundConjunct::Kind::kLocal) {
      residual.push_back(&c);
      continue;
    }
    ExprPtr local = q.OverOwnColumns(c);
    ExprPtr& pred = table_preds[c.table];
    pred = pred == nullptr ? local : Expr::And(pred, local);
  }

  // Metric handles are resolved once: GetCounter is a registry-mutex map
  // lookup.
  auto* metrics = obs::MetricsRegistry::Default();
  static obs::Counter* plans = metrics->GetCounter("opt.plans");
  plans->Add(1);

  PlannedQuery out;
  out.optimized = options.use_optimizer;
  out.scans.assign(from.size(), nullptr);

  PhysicalOpPtr plan;
  // Combined-scope column index → plan output position. Empty means
  // identity (the FROM-order planner below concatenates tables in scope
  // order, so no rewrite is needed).
  std::vector<int> global_to_plan;
  // After join reordering the plan's output columns are in join order,
  // not scope order; every later scope-bound expression goes through this
  // rewrite (identity when global_to_plan is empty).
  auto remap_out = [&](const ExprPtr& e) -> ExprPtr {
    if (global_to_plan.empty()) return e;
    return Expr::RemapColumns(e, [&](int col) {
      int pos = global_to_plan[static_cast<size_t>(col)];
      OLTAP_DCHECK(pos >= 0) << "column pruned from the plan";
      return pos;
    });
  };

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
    for (size_t i = 1; i < from.size(); ++i) {
      // Equalities with an accumulated column are hash keys; every other
      // ON term filters the join's output.
      std::vector<int> build_keys, probe_keys;
      std::vector<ExprPtr> post_join;
      for (const BoundConjunct& term : q.on[i]) {
        int build = -1, probe = -1;
        if (q.JoinsEarlier(term, i, &build, &probe)) {
          build_keys.push_back(build);
          probe_keys.push_back(probe - from[i].offset);
        } else {
          post_join.push_back(term.expr);
        }
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
      std::vector<ExprPtr> terms;
      for (const BoundConjunct* c : residual) terms.push_back(c->expr);
      plan = std::make_unique<FilterOp>(std::move(plan),
                                        Expr::CombineConjuncts(terms));
    }
  } else {
    // ---- Cost-based path: pooled join graph, DPsize ordering, costed
    // scans with access-path selection, estimate annotations. ----
    static obs::Counter* optimized =
        metrics->GetCounter("opt.plans_optimized");
    optimized->Add(1);
    out.fingerprint = q.fingerprint;

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

    // Pool every cross-relation equality (ON terms, then WHERE) into the
    // join graph; all other ON terms and the WHERE residual filter above
    // the joins.
    struct EqEdge {
      int ta, tb;  // FROM indices
      int ga, gb;  // combined-scope columns
      double sel;  // equi-join selectivity
      bool applied = false;
    };
    std::vector<EqEdge> edges;
    std::vector<ExprPtr> late_filters;
    auto pool = [&](const BoundConjunct& c) {
      if (c.kind != BoundConjunct::Kind::kEdge) {
        late_filters.push_back(c.expr);
        return;
      }
      const int lc = c.expr->children()[0]->column_index();
      const int rc = c.expr->children()[1]->column_index();
      const auto [tl, l_col] = q.Locate(lc);
      const auto [tr, r_col] = q.Locate(rc);
      double sel = opt::EquiJoinSelectivity(
          stats[tl].get(), l_col,
          static_cast<double>(from[tl].table->ApproxRowCount()),
          stats[tr].get(), r_col,
          static_cast<double>(from[tr].table->ApproxRowCount()));
      edges.push_back({tl, tr, lc, rc, sel});
    };
    for (size_t i = 1; i < from.size(); ++i) {
      for (const BoundConjunct& c : q.on[i]) pool(c);
    }
    for (const BoundConjunct* c : residual) pool(*c);

    // Column pruning: each scan emits only the columns read above it —
    // join keys, late filters, the SELECT list, GROUP BY keys and
    // aggregate arguments. A column only its own table's predicate reads
    // is consumed inside the scan. A table that emits nothing keeps its
    // first column, so its batches still carry the row count.
    std::vector<bool> used(num_cols, false);
    std::vector<int> read;
    for (const EqEdge& e : edges) {
      read.push_back(e.ga);
      read.push_back(e.gb);
    }
    for (const ExprPtr& c : late_filters) Expr::CollectColumns(c, &read);
    for (const BoundItem& item : q.items) {
      Expr::CollectColumns(item.expr, &read);
    }
    for (const ExprPtr& g : q.group_by) Expr::CollectColumns(g, &read);
    for (const AggSpec& a : q.aggs) Expr::CollectColumns(a.arg, &read);
    for (int col : read) used[static_cast<size_t>(col)] = true;
    // Per relation: its projection (schema indices), and each scope
    // column's position within it.
    std::vector<std::vector<int>> projection(from.size());
    std::vector<int> local_pos(num_cols, -1);
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
        static obs::Counter* order_hits =
            metrics->GetCounter("opt.order_cache_hits");
        order_hits->Add(1);
      } else {
        opt::JoinGraph graph;
        graph.rel_rows = rel_rows;
        for (const EqEdge& e : edges) {
          graph.edges.push_back({e.ta, e.tb, e.sel});
        }
        order = opt::OrderJoins(graph, cm).order;
        if (used_actuals) {
          static obs::Counter* replans =
              metrics->GetCounter("opt.feedback_replans");
          replans->Add(1);
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
        static obs::Counter* path_row = metrics->GetCounter("opt.path_row");
        static obs::Counter* path_column =
            metrics->GetCounter("opt.path_column");
        (path == ScanOp::Path::kRow ? path_row : path_column)->Add(1);
      }
      // Large columnar reads run morsel-parallel at the granted DOP;
      // "large" counts the rows the column side visits, delta included.
      size_t dop = 1;
      if (path != ScanOp::Path::kRow &&
          from[t].table->column_table() != nullptr &&
          d.scan_rows >= static_cast<double>(kMinParallelScanRows)) {
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

    global_to_plan.assign(num_cols, -1);
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
        remapped.push_back(remap_out(c));
      }
      ExprPtr pred = Expr::CombineConjuncts(remapped);
      plan = std::make_unique<FilterOp>(std::move(plan), std::move(pred),
                                        ctx_of(plan_dop));
    }
  }

  std::vector<std::string> names;
  for (const BoundItem& item : q.items) names.push_back(item.name);
  if (!q.aggregate) {
    std::vector<ExprPtr> projections;
    for (const BoundItem& item : q.items) {
      projections.push_back(remap_out(item.expr));
    }
    plan = std::make_unique<ProjectOp>(std::move(plan),
                                       std::move(projections));
  } else {
    std::vector<ExprPtr> group_exprs;
    for (const ExprPtr& g : q.group_by) group_exprs.push_back(remap_out(g));
    std::vector<AggSpec> aggs = q.aggs;
    for (AggSpec& a : aggs) {
      if (a.arg != nullptr) a.arg = remap_out(a.arg);
    }
    const size_t num_groups = group_exprs.size();
    // Thread-local pre-aggregation per morsel, merged in slot order —
    // exact for COUNT/SUM(int)/MIN/MAX. Order-sensitive float folds (AVG,
    // SUM over doubles) aggregate at DOP 1 over the parallel child, which
    // is still bit-exact because the child reproduces the serial row
    // stream.
    plan = std::make_unique<HashAggOp>(
        std::move(plan), std::move(group_exprs), aggs,
        ctx_of(AggsParallelMergeable(aggs) ? plan_dop : 1));
    if (q.having != nullptr) {
      plan = std::make_unique<FilterOp>(std::move(plan), q.having);
    }
    // Re-project into select order (dropping hidden HAVING aggregates).
    std::vector<ExprPtr> projections;
    std::vector<ValueType> agg_output = plan->OutputTypes();
    for (const BoundItem& item : q.items) {
      size_t idx = item.kind == BoundItem::Kind::kGroupKey
                       ? item.index
                       : num_groups + item.index;
      projections.push_back(
          Expr::Column(static_cast<int>(idx), agg_output[idx]));
    }
    plan = std::make_unique<ProjectOp>(std::move(plan),
                                       std::move(projections));
  }

  if (q.distinct) {
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
  if (!q.order_by.empty()) {
    if (q.limit >= 0) {
      // Fuse ORDER BY + LIMIT into a bounded-heap Top-N.
      plan = std::make_unique<TopNOp>(std::move(plan), q.order_by,
                                      static_cast<size_t>(q.limit));
    } else {
      plan = std::make_unique<SortOp>(std::move(plan), q.order_by);
    }
  } else if (q.limit >= 0) {
    plan = std::make_unique<LimitOp>(std::move(plan),
                                     static_cast<size_t>(q.limit));
  }

  if (any_parallel) {
    static obs::Counter* parallel =
        metrics->GetCounter("exec.morsel.parallel_queries");
    parallel->Add(1);
  }
  out.root = std::move(plan);
  out.output_names = std::move(names);
  return out;
}

}  // namespace sql
}  // namespace oltap
