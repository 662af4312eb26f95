#include "sql/binder.h"

#include <algorithm>
#include <functional>
#include <optional>

namespace oltap {
namespace sql {
namespace {

// The aggregate function a call name denotes (COUNT(*) is decided by its
// argument, not its name).
std::optional<AggSpec::Fn> AggregateFn(const std::string& name) {
  if (name == "COUNT") return AggSpec::Fn::kCount;
  if (name == "SUM") return AggSpec::Fn::kSum;
  if (name == "MIN") return AggSpec::Fn::kMin;
  if (name == "MAX") return AggSpec::Fn::kMax;
  if (name == "AVG") return AggSpec::Fn::kAvg;
  return std::nullopt;
}

bool IsAggregateCall(const ParseExpr& e) {
  return e.kind == ParseExpr::Kind::kCall && AggregateFn(e.name).has_value();
}

bool ContainsAggregate(const ParseExpr& e) {
  if (IsAggregateCall(e)) return true;
  for (const auto& a : e.args) {
    if (ContainsAggregate(*a)) return true;
  }
  return false;
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

// Offered every node before the generic rules; binds the nodes it
// recognises and returns null for the rest.
using BindHook = std::function<Result<ExprPtr>(const ParseExpr&)>;

// Binds a scalar parse expression against the scope.
Result<ExprPtr> Bind(const ParseExpr& e, const BindScope& scope,
                     const BindHook* hook = nullptr) {
  if (hook != nullptr) {
    OLTAP_ASSIGN_OR_RETURN(ExprPtr hooked, (*hook)(e));
    if (hooked != nullptr) return hooked;
  }
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
      OLTAP_ASSIGN_OR_RETURN(ExprPtr inner, Bind(*e.args[0], scope, hook));
      return Expr::Not(std::move(inner));
    }
    case ParseExpr::Kind::kUnaryMinus: {
      OLTAP_ASSIGN_OR_RETURN(ExprPtr inner, Bind(*e.args[0], scope, hook));
      return Expr::Arith(Expr::Kind::kSub,
                         Expr::Constant(Value::Int64(0)), std::move(inner));
    }
    case ParseExpr::Kind::kIsNull: {
      OLTAP_ASSIGN_OR_RETURN(ExprPtr inner, Bind(*e.args[0], scope, hook));
      return Expr::IsNull(std::move(inner));
    }
    case ParseExpr::Kind::kCall:
      if (IsAggregateCall(e)) {
        return Status::InvalidArgument(
            "aggregate not allowed in this context: " + e.name);
      }
      return Status::InvalidArgument("unknown function: " + e.name);
    case ParseExpr::Kind::kBinary: {
      OLTAP_ASSIGN_OR_RETURN(ExprPtr l, Bind(*e.args[0], scope, hook));
      OLTAP_ASSIGN_OR_RETURN(ExprPtr r, Bind(*e.args[1], scope, hook));
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

// Binds an aggregate call (IsAggregateCall) to its AggSpec.
Result<AggSpec> BindAggregate(const ParseExpr& call, const BindScope& scope) {
  AggSpec spec;
  if (call.name == "COUNT" && call.args.size() == 1 &&
      call.args[0]->kind == ParseExpr::Kind::kStar) {
    spec.fn = AggSpec::Fn::kCountStar;
    return spec;
  }
  if (call.args.size() != 1) {
    return Status::InvalidArgument(call.name + " takes one argument");
  }
  spec.fn = *AggregateFn(call.name);
  OLTAP_ASSIGN_OR_RETURN(spec.arg, Bind(*call.args[0], scope));
  return spec;
}

// Splits a bound predicate into conjuncts and tags each one.
void Classify(const BoundSelect& q, const ExprPtr& pred,
              std::vector<BoundConjunct>* out) {
  std::vector<ExprPtr> terms;
  Expr::SplitConjuncts(pred, &terms);
  for (ExprPtr& term : terms) {
    BoundConjunct c;
    c.expr = std::move(term);
    const Expr& e = *c.expr;
    if (e.kind() == Expr::Kind::kCompare && e.compare_op() == CompareOp::kEq &&
        e.children()[0]->kind() == Expr::Kind::kColumn &&
        e.children()[1]->kind() == Expr::Kind::kColumn &&
        q.OwnerOf(e.children()[0]->column_index()) !=
            q.OwnerOf(e.children()[1]->column_index())) {
      c.kind = BoundConjunct::Kind::kEdge;
    } else {
      std::vector<int> cols;
      Expr::CollectColumns(c.expr, &cols);
      c.kind = BoundConjunct::Kind::kLocal;
      c.table = cols.empty() ? 0 : q.OwnerOf(cols[0]);
      for (int col : cols) {
        if (q.OwnerOf(col) != c.table) {
          c.kind = BoundConjunct::Kind::kOther;
          c.table = -1;
          break;
        }
      }
    }
    out->push_back(std::move(c));
  }
}

}  // namespace

int BoundSelect::OwnerOf(int column) const {
  for (size_t i = 0; i < from.size(); ++i) {
    if (column >= from[i].offset && column < from[i].offset + from[i].width) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

std::pair<int, int> BoundSelect::Locate(int column) const {
  const int t = OwnerOf(column);
  return {t, column - from[t].offset};
}

ExprPtr BoundSelect::OverOwnColumns(const BoundConjunct& c) const {
  const int offset = from[c.table].offset;
  return Expr::RemapColumns(c.expr, [offset](int col) { return col - offset; });
}

bool BoundSelect::JoinsEarlier(const BoundConjunct& c, size_t i,
                               int* earlier_col, int* new_col) const {
  if (c.kind != BoundConjunct::Kind::kEdge) return false;
  const int l = c.expr->children()[0]->column_index();
  const int r = c.expr->children()[1]->column_index();
  const int rel = static_cast<int>(i);
  const bool l_new = OwnerOf(l) == rel;
  const bool r_new = OwnerOf(r) == rel;
  if (l_new == r_new || OwnerOf(l_new ? r : l) > rel) return false;
  *earlier_col = l_new ? r : l;
  *new_col = l_new ? l : r;
  return true;
}

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

Result<ExprPtr> BindOverSchema(const ParseExpr& e, const Schema& schema,
                               const std::string& alias) {
  BindScope scope;
  for (const ColumnDef& c : schema.columns()) {
    scope.cols.push_back({alias, c.name, c.type});
  }
  return Bind(e, scope);
}

Result<BoundSelect> BindSelect(const SelectStmt& stmt,
                               const Catalog& catalog) {
  BoundSelect out;
  out.distinct = stmt.distinct;
  out.limit = stmt.limit;
  out.fingerprint = StatementFingerprint(stmt);

  // ---- FROM: the combined scope. ----
  BindScope scope;
  for (const TableRef& ref : stmt.tables) {
    Table* table = catalog.GetTable(ref.name);
    if (table == nullptr) {
      return Status::NotFound("unknown table: " + ref.name);
    }
    for (const BoundTable& prev : out.from) {
      if (prev.alias == ref.alias) {
        return Status::InvalidArgument("duplicate table alias: " + ref.alias);
      }
    }
    BoundTable bt;
    bt.table = table;
    bt.alias = ref.alias;
    bt.offset = static_cast<int>(scope.cols.size());
    bt.width = static_cast<int>(table->schema().num_columns());
    for (const ColumnDef& c : table->schema().columns()) {
      scope.cols.push_back({ref.alias, c.name, c.type});
    }
    out.from.push_back(std::move(bt));
  }

  // ---- WHERE and ON conjuncts. ----
  if (stmt.where != nullptr) {
    if (ContainsAggregate(*stmt.where)) {
      return Status::InvalidArgument("aggregates not allowed in WHERE");
    }
    OLTAP_ASSIGN_OR_RETURN(ExprPtr where, Bind(*stmt.where, scope));
    Classify(out, where, &out.where);
  }
  out.on.resize(out.from.size());
  for (size_t i = 1; i < stmt.tables.size(); ++i) {
    if (stmt.tables[i].join_on == nullptr) {
      return Status::InvalidArgument("missing ON clause");
    }
    OLTAP_ASSIGN_OR_RETURN(ExprPtr on, Bind(*stmt.tables[i].join_on, scope));
    Classify(out, on, &out.on[i]);
    bool keyed = false;
    for (const BoundConjunct& c : out.on[i]) {
      int earlier = -1, added = -1;
      keyed |= out.JoinsEarlier(c, i, &earlier, &added);
    }
    if (!keyed) {
      return Status::InvalidArgument(
          "JOIN requires at least one equality between the joined tables");
    }
  }

  // ---- SELECT list: expand *, then bind as scalars or aggregation. ----
  struct Item {
    const ParseExpr* expr;  // null: a column of the expanded *
    int column;             // expanded *: combined-scope column
    std::string text;
    std::string name;
  };
  std::vector<Item> items;
  if (stmt.items.size() == 1 &&
      stmt.items[0].expr->kind == ParseExpr::Kind::kStar) {
    for (size_t c = 0; c < scope.cols.size(); ++c) {
      const BindScope::Col& col = scope.cols[c];
      items.push_back({nullptr, static_cast<int>(c),
                       col.alias + "." + col.name, col.name});
    }
  } else {
    for (const SelectItem& item : stmt.items) {
      std::string text = item.expr->ToString();
      std::string name = item.alias.empty() ? text : item.alias;
      items.push_back({item.expr.get(), -1, std::move(text), std::move(name)});
    }
  }
  out.aggregate = !stmt.group_by.empty();
  for (const Item& item : items) {
    if (item.expr != nullptr && ContainsAggregate(*item.expr)) {
      out.aggregate = true;
    }
  }

  if (!out.aggregate) {
    if (stmt.having != nullptr) {
      return Status::InvalidArgument(
          "HAVING requires GROUP BY or aggregates");
    }
    for (const Item& item : items) {
      BoundItem bi;
      bi.name = item.name;
      if (item.expr == nullptr) {
        bi.expr = Expr::Column(item.column, scope.cols[item.column].type);
      } else {
        OLTAP_ASSIGN_OR_RETURN(bi.expr, Bind(*item.expr, scope));
      }
      out.items.push_back(std::move(bi));
    }
  } else {
    // Non-aggregate items and HAVING terms match GROUP BY expressions
    // textually.
    std::vector<std::string> group_texts;
    for (const ParseExprPtr& g : stmt.group_by) {
      OLTAP_ASSIGN_OR_RETURN(ExprPtr e, Bind(*g, scope));
      out.group_by.push_back(std::move(e));
      group_texts.push_back(g->ToString());
    }
    auto group_of = [&](const std::string& text) -> int {
      auto it = std::find(group_texts.begin(), group_texts.end(), text);
      return it == group_texts.end()
                 ? -1
                 : static_cast<int>(it - group_texts.begin());
    };
    for (const Item& item : items) {
      BoundItem bi;
      bi.name = item.name;
      if (item.expr != nullptr && IsAggregateCall(*item.expr)) {
        OLTAP_ASSIGN_OR_RETURN(AggSpec spec,
                               BindAggregate(*item.expr, scope));
        bi.kind = BoundItem::Kind::kAgg;
        bi.index = out.aggs.size();
        out.aggs.push_back(std::move(spec));
      } else {
        const int g = group_of(item.text);
        if (g < 0) {
          return Status::InvalidArgument(
              "select item is neither aggregate nor grouped: " + item.text);
        }
        bi.kind = BoundItem::Kind::kGroupKey;
        bi.index = static_cast<size_t>(g);
      }
      out.items.push_back(std::move(bi));
    }

    // HAVING binds over the aggregate output: aggregate calls become
    // (possibly hidden) aggregate columns, group expressions key columns.
    if (stmt.having != nullptr) {
      const int num_groups = static_cast<int>(out.group_by.size());
      const BindHook having_terms =
          [&](const ParseExpr& pe) -> Result<ExprPtr> {
        if (IsAggregateCall(pe)) {
          OLTAP_ASSIGN_OR_RETURN(AggSpec spec, BindAggregate(pe, scope));
          const ValueType type = spec.OutputType();
          out.aggs.push_back(std::move(spec));
          return Expr::Column(
              num_groups + static_cast<int>(out.aggs.size()) - 1, type);
        }
        const int g = group_of(pe.ToString());
        if (g >= 0) {
          return Expr::Column(g, out.group_by[g]->result_type());
        }
        if (pe.kind == ParseExpr::Kind::kIdent) {
          return Status::InvalidArgument(
              "HAVING must reference aggregates or GROUP BY columns: " +
              pe.ToString());
        }
        return ExprPtr();
      };
      OLTAP_ASSIGN_OR_RETURN(out.having,
                             Bind(*stmt.having, scope, &having_terms));
    }
  }

  // ---- ORDER BY: output positions. ----
  for (const OrderItem& item : stmt.order_by) {
    int col = -1;
    const ParseExpr& pe = *item.expr;
    if (pe.kind == ParseExpr::Kind::kIntLit) {
      // ORDER BY <position>, 1-based.
      if (pe.int_val < 1 || pe.int_val > static_cast<int64_t>(items.size())) {
        return Status::InvalidArgument("ORDER BY position out of range");
      }
      col = static_cast<int>(pe.int_val - 1);
    } else {
      std::string text = pe.ToString();
      for (size_t i = 0; i < items.size(); ++i) {
        if (items[i].name == text) col = static_cast<int>(i);
      }
      if (col < 0) {
        // Also try matching the un-aliased item text.
        for (size_t i = 0; i < items.size(); ++i) {
          if (items[i].text == text) col = static_cast<int>(i);
        }
      }
      if (col < 0) {
        return Status::InvalidArgument(
            "ORDER BY must reference a select-list column: " + text);
      }
    }
    out.order_by.push_back({col, item.descending});
  }
  return out;
}

}  // namespace sql
}  // namespace oltap
