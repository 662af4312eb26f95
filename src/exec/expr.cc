#include "exec/expr.h"

#include "common/logging.h"

namespace oltap {
namespace {

CompareOp FlipOp(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    default:
      return op;  // Eq/Ne are symmetric
  }
}

}  // namespace

ExprPtr Expr::Column(int index, ValueType type) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kColumn;
  e->column_ = index;
  e->type_ = type;
  return e;
}

ExprPtr Expr::Constant(Value v) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kConst;
  e->type_ = v.type();
  e->constant_ = std::move(v);
  return e;
}

ExprPtr Expr::Compare(CompareOp op, ExprPtr l, ExprPtr r) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kCompare;
  e->compare_op_ = op;
  e->type_ = ValueType::kInt64;
  e->children_ = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Expr::And(ExprPtr l, ExprPtr r) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kAnd;
  e->type_ = ValueType::kInt64;
  e->children_ = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Expr::Or(ExprPtr l, ExprPtr r) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kOr;
  e->type_ = ValueType::kInt64;
  e->children_ = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Expr::Not(ExprPtr c) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kNot;
  e->type_ = ValueType::kInt64;
  e->children_ = {std::move(c)};
  return e;
}

ExprPtr Expr::Arith(Kind op, ExprPtr l, ExprPtr r) {
  OLTAP_CHECK(op == Kind::kAdd || op == Kind::kSub || op == Kind::kMul ||
              op == Kind::kDiv);
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = op;
  // Numeric promotion: double if either side is double (or division).
  bool dbl = l->result_type() == ValueType::kDouble ||
             r->result_type() == ValueType::kDouble || op == Kind::kDiv;
  e->type_ = dbl ? ValueType::kDouble : ValueType::kInt64;
  e->children_ = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Expr::IsNull(ExprPtr c) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kIsNull;
  e->type_ = ValueType::kInt64;
  e->children_ = {std::move(c)};
  return e;
}

Value Expr::EvalRow(const Row& row) const {
  switch (kind_) {
    case Kind::kColumn:
      OLTAP_DCHECK(column_ >= 0 &&
                   static_cast<size_t>(column_) < row.size());
      return row[column_];
    case Kind::kConst:
      return constant_;
    case Kind::kCompare: {
      Value a = children_[0]->EvalRow(row);
      Value b = children_[1]->EvalRow(row);
      if (a.is_null() || b.is_null()) return Value::Null();
      return Value::Bool(CompareHolds(compare_op_, a.Compare(b)));
    }
    case Kind::kAnd: {
      Value a = children_[0]->EvalRow(row);
      if (!a.is_null() && !a.AsBool()) return Value::Bool(false);
      Value b = children_[1]->EvalRow(row);
      if (!b.is_null() && !b.AsBool()) return Value::Bool(false);
      if (a.is_null() || b.is_null()) return Value::Null();
      return Value::Bool(true);
    }
    case Kind::kOr: {
      Value a = children_[0]->EvalRow(row);
      if (!a.is_null() && a.AsBool()) return Value::Bool(true);
      Value b = children_[1]->EvalRow(row);
      if (!b.is_null() && b.AsBool()) return Value::Bool(true);
      if (a.is_null() || b.is_null()) return Value::Null();
      return Value::Bool(false);
    }
    case Kind::kNot: {
      Value a = children_[0]->EvalRow(row);
      if (a.is_null()) return Value::Null();
      return Value::Bool(!a.AsBool());
    }
    case Kind::kAdd:
    case Kind::kSub:
    case Kind::kMul:
    case Kind::kDiv: {
      Value a = children_[0]->EvalRow(row);
      Value b = children_[1]->EvalRow(row);
      if (a.is_null() || b.is_null()) return Value::Null(type_);
      if (type_ == ValueType::kDouble) {
        double x = a.AsDouble(), y = b.AsDouble();
        switch (kind_) {
          case Kind::kAdd:
            return Value::Double(x + y);
          case Kind::kSub:
            return Value::Double(x - y);
          case Kind::kMul:
            return Value::Double(x * y);
          default:
            return y == 0 ? Value::Null(ValueType::kDouble)
                          : Value::Double(x / y);
        }
      }
      int64_t x = a.AsInt64(), y = b.AsInt64();
      switch (kind_) {
        case Kind::kAdd:
          return Value::Int64(x + y);
        case Kind::kSub:
          return Value::Int64(x - y);
        case Kind::kMul:
          return Value::Int64(x * y);
        default:
          return y == 0 ? Value::Null() : Value::Int64(x / y);
      }
    }
    case Kind::kIsNull:
      return Value::Bool(children_[0]->EvalRow(row).is_null());
  }
  return Value::Null();
}

ColumnVector Expr::EvalBatch(const Batch& batch) const {
  size_t n = batch.num_rows();
  switch (kind_) {
    case Kind::kColumn:
      return batch.columns[column_];
    case Kind::kConst: {
      ColumnVector cv(type_);
      cv.Reserve(n);
      for (size_t i = 0; i < n; ++i) cv.AppendValue(constant_);
      return cv;
    }
    case Kind::kAdd:
    case Kind::kSub:
    case Kind::kMul:
    case Kind::kDiv: {
      ColumnVector a = children_[0]->EvalBatch(batch);
      ColumnVector b = children_[1]->EvalBatch(batch);
      ColumnVector out(type_);
      out.Reserve(n);
      if (type_ == ValueType::kDouble) {
        for (size_t i = 0; i < n; ++i) {
          if (a.IsNull(i) || b.IsNull(i)) {
            out.AppendNull();
            continue;
          }
          double x = a.type() == ValueType::kDouble
                         ? a.GetDouble(i)
                         : static_cast<double>(a.GetInt64(i));
          double y = b.type() == ValueType::kDouble
                         ? b.GetDouble(i)
                         : static_cast<double>(b.GetInt64(i));
          switch (kind_) {
            case Kind::kAdd:
              out.AppendDouble(x + y);
              break;
            case Kind::kSub:
              out.AppendDouble(x - y);
              break;
            case Kind::kMul:
              out.AppendDouble(x * y);
              break;
            default:
              if (y == 0) {
                out.AppendNull();
              } else {
                out.AppendDouble(x / y);
              }
          }
        }
      } else {
        for (size_t i = 0; i < n; ++i) {
          if (a.IsNull(i) || b.IsNull(i)) {
            out.AppendNull();
            continue;
          }
          int64_t x = a.GetInt64(i), y = b.GetInt64(i);
          switch (kind_) {
            case Kind::kAdd:
              out.AppendInt64(x + y);
              break;
            case Kind::kSub:
              out.AppendInt64(x - y);
              break;
            case Kind::kMul:
              out.AppendInt64(x * y);
              break;
            default:
              if (y == 0) {
                out.AppendNull();
              } else {
                out.AppendInt64(x / y);
              }
          }
        }
      }
      return out;
    }
    default: {
      // Predicates and IS NULL as 0/1 column.
      BitVector bits;
      EvalPredicate(batch, &bits);
      ColumnVector out(ValueType::kInt64);
      out.Reserve(n);
      for (size_t i = 0; i < n; ++i) {
        out.AppendInt64(bits.Get(i) ? 1 : 0);
      }
      return out;
    }
  }
}

void Expr::EvalPredicate(const Batch& batch, BitVector* out) const {
  EvalTruth(batch, out, nullptr);
}

void Expr::EvalTruth(const Batch& batch, BitVector* is_true,
                     BitVector* is_false) const {
  size_t n = batch.num_rows();
  auto start = [n](BitVector* bits) {
    if (bits == nullptr) return;
    bits->Resize(n);
    bits->ClearAll();
  };
  switch (kind_) {
    case Kind::kAnd: {
      // True where both are true; false where either is false.
      children_[0]->EvalTruth(batch, is_true, is_false);
      BitVector rhs_true, rhs_false;
      children_[1]->EvalTruth(batch, &rhs_true,
                              is_false != nullptr ? &rhs_false : nullptr);
      is_true->And(rhs_true);
      if (is_false != nullptr) is_false->Or(rhs_false);
      return;
    }
    case Kind::kOr: {
      // True where either is true; false where both are false.
      children_[0]->EvalTruth(batch, is_true, is_false);
      BitVector rhs_true, rhs_false;
      children_[1]->EvalTruth(batch, &rhs_true,
                              is_false != nullptr ? &rhs_false : nullptr);
      is_true->Or(rhs_true);
      if (is_false != nullptr) is_false->And(rhs_false);
      return;
    }
    case Kind::kNot: {
      // NOT swaps true and false; NULL stays NULL.
      BitVector child_true;
      children_[0]->EvalTruth(batch, &child_true, is_true);
      if (is_false != nullptr) *is_false = std::move(child_true);
      return;
    }
    case Kind::kCompare: {
      const ExprPtr& l = children_[0];
      const ExprPtr& r = children_[1];
      start(is_true);
      start(is_false);
      // Fast path: column vs constant on numeric columns.
      if (l->kind_ == Kind::kColumn && r->kind_ == Kind::kConst &&
          !r->constant_.is_null()) {
        const ColumnVector& col = batch.columns[l->column_];
        if (col.type() == ValueType::kInt64 &&
            r->constant_.type() == ValueType::kInt64) {
          int64_t c = r->constant_.AsInt64();
          const std::vector<int64_t>& v = col.i64();
          for (size_t i = 0; i < n; ++i) {
            if (col.IsNull(i)) continue;
            bool hit = false;
            switch (compare_op_) {
              case CompareOp::kEq:
                hit = v[i] == c;
                break;
              case CompareOp::kNe:
                hit = v[i] != c;
                break;
              case CompareOp::kLt:
                hit = v[i] < c;
                break;
              case CompareOp::kLe:
                hit = v[i] <= c;
                break;
              case CompareOp::kGt:
                hit = v[i] > c;
                break;
              case CompareOp::kGe:
                hit = v[i] >= c;
                break;
            }
            if (hit) {
              is_true->Set(i);
            } else if (is_false != nullptr) {
              is_false->Set(i);
            }
          }
          return;
        }
      }
      // General path.
      ColumnVector a = l->EvalBatch(batch);
      ColumnVector b = r->EvalBatch(batch);
      for (size_t i = 0; i < n; ++i) {
        if (a.IsNull(i) || b.IsNull(i)) continue;
        if (CompareHolds(compare_op_,
                         a.GetValue(i).Compare(b.GetValue(i)))) {
          is_true->Set(i);
        } else if (is_false != nullptr) {
          is_false->Set(i);
        }
      }
      return;
    }
    case Kind::kIsNull: {
      // Never NULL itself.
      ColumnVector a = children_[0]->EvalBatch(batch);
      start(is_true);
      for (size_t i = 0; i < n; ++i) {
        if (a.IsNull(i)) is_true->Set(i);
      }
      if (is_false != nullptr) {
        *is_false = *is_true;
        is_false->Not();
      }
      return;
    }
    default: {
      // Arbitrary expression as predicate: nonzero = true, zero = false.
      ColumnVector a = EvalBatch(batch);
      start(is_true);
      start(is_false);
      for (size_t i = 0; i < n; ++i) {
        if (a.IsNull(i)) continue;
        if (a.GetValue(i).AsBool()) {
          is_true->Set(i);
        } else if (is_false != nullptr) {
          is_false->Set(i);
        }
      }
      return;
    }
  }
}

bool Expr::AsColumnPredicate(ColumnPredicate* out) const {
  if (kind_ != Kind::kCompare) return false;
  const Expr* l = children_[0].get();
  const Expr* r = children_[1].get();
  if (l->kind_ == Kind::kColumn && r->kind_ == Kind::kConst) {
    out->column = l->column_;
    out->op = compare_op_;
    out->constant = r->constant_;
    return true;
  }
  if (l->kind_ == Kind::kConst && r->kind_ == Kind::kColumn) {
    out->column = r->column_;
    out->op = FlipOp(compare_op_);
    out->constant = l->constant_;
    return true;
  }
  return false;
}

void Expr::SplitConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e == nullptr) return;
  if (e->kind_ == Kind::kAnd) {
    SplitConjuncts(e->children_[0], out);
    SplitConjuncts(e->children_[1], out);
    return;
  }
  out->push_back(e);
}

ExprPtr Expr::CombineConjuncts(const std::vector<ExprPtr>& terms) {
  ExprPtr acc;
  for (const ExprPtr& t : terms) {
    acc = acc == nullptr ? t : And(acc, t);
  }
  return acc;
}

ExprPtr Expr::RemapColumns(const ExprPtr& e,
                           const std::function<int(int)>& map) {
  switch (e->kind_) {
    case Kind::kColumn:
      return Column(map(e->column_), e->type_);
    case Kind::kConst:
      return e;
    case Kind::kCompare:
      return Compare(e->compare_op_, RemapColumns(e->children_[0], map),
                     RemapColumns(e->children_[1], map));
    case Kind::kAnd:
      return And(RemapColumns(e->children_[0], map),
                 RemapColumns(e->children_[1], map));
    case Kind::kOr:
      return Or(RemapColumns(e->children_[0], map),
                RemapColumns(e->children_[1], map));
    case Kind::kNot:
      return Not(RemapColumns(e->children_[0], map));
    case Kind::kIsNull:
      return IsNull(RemapColumns(e->children_[0], map));
    default:
      return Arith(e->kind_, RemapColumns(e->children_[0], map),
                   RemapColumns(e->children_[1], map));
  }
}

void Expr::CollectColumns(const ExprPtr& e, std::vector<int>* out) {
  if (e == nullptr) return;
  if (e->kind_ == Kind::kColumn) out->push_back(e->column_);
  for (const ExprPtr& c : e->children_) CollectColumns(c, out);
}

bool Expr::SameAs(const Expr& other) const {
  if (kind_ != other.kind_ || type_ != other.type_ ||
      compare_op_ != other.compare_op_ || column_ != other.column_ ||
      children_.size() != other.children_.size()) {
    return false;
  }
  if (kind_ == Kind::kConst) {
    if (constant_.is_null() || other.constant_.is_null()) {
      return constant_.is_null() && other.constant_.is_null();
    }
    if (constant_.Compare(other.constant_) != 0) return false;
  }
  for (size_t i = 0; i < children_.size(); ++i) {
    if (!children_[i]->SameAs(*other.children_[i])) return false;
  }
  return true;
}

std::string Expr::ToString() const {
  // Appends, not "literal" + std::string: GCC 12 reports a false
  // -Wrestrict overlap on those temporaries.
  auto infix = [&](const char* op) {
    return std::string("(").append(children_[0]->ToString()).append(" ")
        .append(op).append(" ").append(children_[1]->ToString()).append(")");
  };
  switch (kind_) {
    case Kind::kColumn:
      return std::string("$").append(std::to_string(column_));
    case Kind::kConst:
      return constant_.is_null() ? "NULL" : constant_.ToString();
    case Kind::kCompare: {
      const char* ops[] = {"=", "<>", "<", "<=", ">", ">="};
      return infix(ops[static_cast<int>(compare_op_)]);
    }
    case Kind::kAnd:
      return infix("AND");
    case Kind::kOr:
      return infix("OR");
    case Kind::kNot:
      return std::string("NOT ").append(children_[0]->ToString());
    case Kind::kAdd:
      return infix("+");
    case Kind::kSub:
      return infix("-");
    case Kind::kMul:
      return infix("*");
    case Kind::kDiv:
      return infix("/");
    case Kind::kIsNull:
      return children_[0]->ToString() + " IS NULL";
  }
  return "?";
}

}  // namespace oltap
