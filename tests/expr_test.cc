#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "exec/expr.h"

namespace oltap {
namespace {

Batch MakeBatch(const std::vector<Row>& rows,
                const std::vector<ValueType>& types) {
  Batch b;
  for (const Row& r : rows) b.AppendRow(r, types);
  return b;
}

TEST(ExprTest, ColumnAndConstant) {
  ExprPtr col = Expr::Column(1, ValueType::kInt64);
  ExprPtr c = Expr::Constant(Value::Int64(7));
  Row row = {Value::String("x"), Value::Int64(42)};
  EXPECT_EQ(col->EvalRow(row).AsInt64(), 42);
  EXPECT_EQ(c->EvalRow(row).AsInt64(), 7);
}

TEST(ExprTest, CompareAndLogic) {
  // ($0 > 5) AND NOT ($0 = 10)
  ExprPtr e = Expr::And(
      Expr::Compare(CompareOp::kGt, Expr::Column(0, ValueType::kInt64),
                    Expr::Constant(Value::Int64(5))),
      Expr::Not(Expr::Compare(CompareOp::kEq,
                              Expr::Column(0, ValueType::kInt64),
                              Expr::Constant(Value::Int64(10)))));
  EXPECT_TRUE(e->EvalRow({Value::Int64(7)}).AsBool());
  EXPECT_FALSE(e->EvalRow({Value::Int64(10)}).AsBool());
  EXPECT_FALSE(e->EvalRow({Value::Int64(3)}).AsBool());
}

TEST(ExprTest, NullComparisonYieldsNull) {
  ExprPtr e = Expr::Compare(CompareOp::kEq, Expr::Column(0, ValueType::kInt64),
                            Expr::Constant(Value::Int64(1)));
  EXPECT_TRUE(e->EvalRow({Value::Null()}).is_null());
}

TEST(ExprTest, ThreeValuedAndOr) {
  ExprPtr null_cmp =
      Expr::Compare(CompareOp::kEq, Expr::Column(0, ValueType::kInt64),
                    Expr::Constant(Value::Null()));
  // NULL AND FALSE = FALSE; NULL OR TRUE = TRUE; NULL AND TRUE = NULL.
  ExprPtr f = Expr::Constant(Value::Bool(false));
  ExprPtr t = Expr::Constant(Value::Bool(true));
  Row row = {Value::Int64(1)};
  EXPECT_FALSE(Expr::And(null_cmp, f)->EvalRow(row).is_null());
  EXPECT_FALSE(Expr::And(null_cmp, f)->EvalRow(row).AsBool());
  EXPECT_TRUE(Expr::Or(null_cmp, t)->EvalRow(row).AsBool());
  EXPECT_TRUE(Expr::And(null_cmp, t)->EvalRow(row).is_null());
}

// The vectorized predicate keeps EvalRow's three-valued logic: a row is
// selected iff EvalRow yields a non-NULL true, including under NOT.
TEST(ExprTest, EvalPredicateMatchesEvalRowWithNulls) {
  std::vector<ValueType> types = {ValueType::kInt64, ValueType::kInt64};
  std::vector<Row> rows;
  for (int a = -1; a < 4; ++a) {
    for (int b = -1; b < 4; ++b) {
      rows.push_back({a < 0 ? Value::Null() : Value::Int64(a),
                      b < 0 ? Value::Null() : Value::Int64(b)});
    }
  }
  Batch batch = MakeBatch(rows, types);
  ExprPtr x = Expr::Column(0, ValueType::kInt64);
  ExprPtr y = Expr::Column(1, ValueType::kInt64);
  ExprPtr x_gt_1 =
      Expr::Compare(CompareOp::kGt, x, Expr::Constant(Value::Int64(1)));
  ExprPtr y_eq_2 =
      Expr::Compare(CompareOp::kEq, y, Expr::Constant(Value::Int64(2)));
  ExprPtr x_lt_y = Expr::Compare(CompareOp::kLt, x, y);
  std::vector<ExprPtr> preds = {
      Expr::Not(x_gt_1),
      Expr::Not(Expr::And(x_gt_1, y_eq_2)),
      Expr::Not(Expr::Or(x_gt_1, y_eq_2)),
      Expr::Not(Expr::Not(x_lt_y)),
      Expr::And(Expr::Not(x_lt_y), Expr::Or(y_eq_2, Expr::IsNull(x))),
      Expr::Not(Expr::IsNull(y)),
      Expr::Not(Expr::Arith(Expr::Kind::kSub, x, y)),
  };
  for (const ExprPtr& p : preds) {
    BitVector bits;
    p->EvalPredicate(batch, &bits);
    ASSERT_EQ(bits.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      Value v = p->EvalRow(rows[i]);
      EXPECT_EQ(bits.Get(i), !v.is_null() && v.AsBool())
          << p->ToString() << " row " << RowToString(rows[i]);
    }
  }
}

TEST(ExprTest, ArithmeticPromotion) {
  ExprPtr int_add =
      Expr::Arith(Expr::Kind::kAdd, Expr::Constant(Value::Int64(2)),
                  Expr::Constant(Value::Int64(3)));
  EXPECT_EQ(int_add->result_type(), ValueType::kInt64);
  EXPECT_EQ(int_add->EvalRow({}).AsInt64(), 5);

  ExprPtr mixed =
      Expr::Arith(Expr::Kind::kMul, Expr::Constant(Value::Int64(2)),
                  Expr::Constant(Value::Double(1.5)));
  EXPECT_EQ(mixed->result_type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(mixed->EvalRow({}).AsDouble(), 3.0);

  // Division is always double and guards zero.
  ExprPtr div =
      Expr::Arith(Expr::Kind::kDiv, Expr::Constant(Value::Int64(7)),
                  Expr::Constant(Value::Int64(2)));
  EXPECT_DOUBLE_EQ(div->EvalRow({}).AsDouble(), 3.5);
  ExprPtr div0 =
      Expr::Arith(Expr::Kind::kDiv, Expr::Constant(Value::Int64(7)),
                  Expr::Constant(Value::Int64(0)));
  EXPECT_TRUE(div0->EvalRow({}).is_null());
}

TEST(ExprTest, IsNull) {
  ExprPtr e = Expr::IsNull(Expr::Column(0, ValueType::kInt64));
  EXPECT_TRUE(e->EvalRow({Value::Null()}).AsBool());
  EXPECT_FALSE(e->EvalRow({Value::Int64(0)}).AsBool());
}

TEST(ExprTest, BatchPredicateMatchesRowEval) {
  // Property: EvalPredicate over a batch == EvalRow per row (NULL→false),
  // across a random expression workload.
  Rng rng(17);
  std::vector<ValueType> types = {ValueType::kInt64, ValueType::kDouble,
                                  ValueType::kString};
  std::vector<Row> rows;
  const char* strings[] = {"aa", "bb", "cc", "dd"};
  for (int i = 0; i < 500; ++i) {
    Row r;
    r.push_back(rng.Bernoulli(0.1) ? Value::Null()
                                   : Value::Int64(rng.UniformRange(-20, 20)));
    r.push_back(rng.Bernoulli(0.1)
                    ? Value::Null(ValueType::kDouble)
                    : Value::Double(rng.NextDouble() * 10 - 5));
    r.push_back(Value::String(strings[rng.Uniform(4)]));
    rows.push_back(std::move(r));
  }
  Batch batch = MakeBatch(rows, types);

  std::vector<ExprPtr> predicates = {
      Expr::Compare(CompareOp::kGt, Expr::Column(0, ValueType::kInt64),
                    Expr::Constant(Value::Int64(0))),
      Expr::Compare(CompareOp::kLe, Expr::Column(1, ValueType::kDouble),
                    Expr::Constant(Value::Double(1.0))),
      Expr::Compare(CompareOp::kEq, Expr::Column(2, ValueType::kString),
                    Expr::Constant(Value::String("bb"))),
      Expr::And(Expr::Compare(CompareOp::kGe,
                              Expr::Column(0, ValueType::kInt64),
                              Expr::Constant(Value::Int64(-10))),
                Expr::Compare(CompareOp::kNe,
                              Expr::Column(2, ValueType::kString),
                              Expr::Constant(Value::String("cc")))),
      Expr::Or(Expr::IsNull(Expr::Column(0, ValueType::kInt64)),
               Expr::Compare(CompareOp::kLt,
                             Expr::Column(0, ValueType::kInt64),
                             Expr::Constant(Value::Int64(-15)))),
      Expr::Compare(
          CompareOp::kGt,
          Expr::Arith(Expr::Kind::kAdd, Expr::Column(0, ValueType::kInt64),
                      Expr::Column(1, ValueType::kDouble)),
          Expr::Constant(Value::Double(2.0))),
  };
  for (size_t p = 0; p < predicates.size(); ++p) {
    BitVector bits;
    predicates[p]->EvalPredicate(batch, &bits);
    ASSERT_EQ(bits.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      Value v = predicates[p]->EvalRow(rows[i]);
      bool expected = !v.is_null() && v.AsBool();
      EXPECT_EQ(bits.Get(i), expected) << "pred " << p << " row " << i;
    }
  }
}

TEST(ExprTest, BatchArithmeticMatchesRowEval) {
  Rng rng(23);
  std::vector<ValueType> types = {ValueType::kInt64, ValueType::kDouble};
  std::vector<Row> rows;
  for (int i = 0; i < 200; ++i) {
    rows.push_back(Row{Value::Int64(rng.UniformRange(-5, 5)),
                       Value::Double(rng.NextDouble())});
  }
  Batch batch = MakeBatch(rows, types);
  ExprPtr e = Expr::Arith(
      Expr::Kind::kMul, Expr::Column(0, ValueType::kInt64),
      Expr::Arith(Expr::Kind::kAdd, Expr::Column(1, ValueType::kDouble),
                  Expr::Constant(Value::Double(1.0))));
  ColumnVector cv = e->EvalBatch(batch);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_DOUBLE_EQ(cv.GetValue(i).AsDouble(),
                     e->EvalRow(rows[i]).AsDouble());
  }
}

TEST(ExprTest, AsColumnPredicateBothOrientations) {
  Expr::ColumnPredicate cp;
  ExprPtr left = Expr::Compare(CompareOp::kLt,
                               Expr::Column(2, ValueType::kInt64),
                               Expr::Constant(Value::Int64(9)));
  ASSERT_TRUE(left->AsColumnPredicate(&cp));
  EXPECT_EQ(cp.column, 2);
  EXPECT_EQ(cp.op, CompareOp::kLt);
  EXPECT_EQ(cp.constant.AsInt64(), 9);

  // Constant on the left flips the operator.
  ExprPtr right = Expr::Compare(CompareOp::kLt,
                                Expr::Constant(Value::Int64(9)),
                                Expr::Column(2, ValueType::kInt64));
  ASSERT_TRUE(right->AsColumnPredicate(&cp));
  EXPECT_EQ(cp.op, CompareOp::kGt);

  // Column-to-column is not pushable.
  ExprPtr cc = Expr::Compare(CompareOp::kEq,
                             Expr::Column(0, ValueType::kInt64),
                             Expr::Column(1, ValueType::kInt64));
  EXPECT_FALSE(cc->AsColumnPredicate(&cp));
}

TEST(ExprTest, SplitAndCombineConjuncts) {
  ExprPtr a = Expr::Compare(CompareOp::kGt, Expr::Column(0, ValueType::kInt64),
                            Expr::Constant(Value::Int64(1)));
  ExprPtr b = Expr::Compare(CompareOp::kLt, Expr::Column(1, ValueType::kInt64),
                            Expr::Constant(Value::Int64(2)));
  ExprPtr c = Expr::IsNull(Expr::Column(2, ValueType::kInt64));
  ExprPtr conj = Expr::And(Expr::And(a, b), c);
  std::vector<ExprPtr> terms;
  Expr::SplitConjuncts(conj, &terms);
  ASSERT_EQ(terms.size(), 3u);
  EXPECT_EQ(terms[0], a);
  EXPECT_EQ(terms[1], b);
  EXPECT_EQ(terms[2], c);

  ExprPtr rebuilt = Expr::CombineConjuncts(terms);
  EXPECT_EQ(rebuilt->ToString(), conj->ToString());
  EXPECT_EQ(Expr::CombineConjuncts({}), nullptr);
}

TEST(ExprTest, ToStringRendering) {
  ExprPtr e = Expr::And(
      Expr::Compare(CompareOp::kGe, Expr::Column(0, ValueType::kInt64),
                    Expr::Constant(Value::Int64(3))),
      Expr::Compare(CompareOp::kNe, Expr::Column(1, ValueType::kString),
                    Expr::Constant(Value::String("x"))));
  EXPECT_EQ(e->ToString(), "(($0 >= 3) AND ($1 <> x))");
}

TEST(BatchTest, AppendRowAndGetRow) {
  std::vector<ValueType> types = {ValueType::kInt64, ValueType::kString};
  Batch b;
  b.AppendRow({Value::Int64(1), Value::String("a")}, types);
  b.AppendRow({Value::Null(), Value::String("b")}, types);
  EXPECT_EQ(b.num_rows(), 2u);
  EXPECT_EQ(b.num_columns(), 2u);
  Row r = b.GetRow(1);
  EXPECT_TRUE(r[0].is_null());
  EXPECT_EQ(r[1].AsString(), "b");
}

TEST(ColumnVectorTest, NullTrackingAfterMixedAppends) {
  ColumnVector cv(ValueType::kInt64);
  cv.AppendInt64(1);
  cv.AppendNull();
  cv.AppendInt64(3);
  EXPECT_EQ(cv.size(), 3u);
  EXPECT_FALSE(cv.IsNull(0));
  EXPECT_TRUE(cv.IsNull(1));
  EXPECT_FALSE(cv.IsNull(2));
}

}  // namespace
}  // namespace oltap
