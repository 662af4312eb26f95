#ifndef OLTAP_EXEC_EXPR_H_
#define OLTAP_EXEC_EXPR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/bitvector.h"
#include "exec/batch.h"
#include "storage/bitpack.h"
#include "storage/row.h"
#include "storage/value.h"

namespace oltap {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

// Scalar expression AST shared by all execution engines: the
// tuple-at-a-time interpreter calls EvalRow per tuple, the vectorized
// engine calls EvalBatch/EvalPredicate per batch, and the scan planner
// strips (column <op> constant) conjuncts off the root for pushdown into
// the storage kernels.
class Expr {
 public:
  enum class Kind : uint8_t {
    kColumn,    // input column reference
    kConst,     // literal
    kCompare,   // compare_op over two children
    kAnd,
    kOr,
    kNot,
    kAdd,
    kSub,
    kMul,
    kDiv,
    kIsNull,
  };

  // --- Factories ---
  static ExprPtr Column(int index, ValueType type);
  static ExprPtr Constant(Value v);
  static ExprPtr Compare(CompareOp op, ExprPtr l, ExprPtr r);
  static ExprPtr And(ExprPtr l, ExprPtr r);
  static ExprPtr Or(ExprPtr l, ExprPtr r);
  static ExprPtr Not(ExprPtr e);
  static ExprPtr Arith(Kind op, ExprPtr l, ExprPtr r);
  static ExprPtr IsNull(ExprPtr e);

  Kind kind() const { return kind_; }
  CompareOp compare_op() const { return compare_op_; }
  int column_index() const { return column_; }
  const Value& constant() const { return constant_; }
  const std::vector<ExprPtr>& children() const { return children_; }

  // Static result type (booleans are kInt64 0/1).
  ValueType result_type() const { return type_; }

  // Tuple-at-a-time evaluation. SQL three-valued logic is collapsed to
  // two-valued at predicate boundaries: comparisons involving NULL yield
  // NULL, and NULL is treated as false wherever a predicate gates a row.
  Value EvalRow(const Row& row) const;

  // Vectorized evaluation producing a full column.
  ColumnVector EvalBatch(const Batch& batch) const;

  // Vectorized predicate evaluation: sets bit i iff the expression is true
  // for row i under EvalRow's three-valued logic (so NOT of a NULL
  // comparison is NULL, and NULL counts as false at the boundary).
  void EvalPredicate(const Batch& batch, BitVector* out) const;

  // A single (column <op> constant) term usable by storage scan kernels.
  struct ColumnPredicate {
    int column = -1;
    CompareOp op = CompareOp::kEq;
    Value constant;
  };
  // True if this node is such a term (constant may be on either side).
  bool AsColumnPredicate(ColumnPredicate* out) const;

  // Flattens a conjunction tree into its AND-ed terms.
  static void SplitConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out);
  // Rebuilds a conjunction from terms (nullptr if empty).
  static ExprPtr CombineConjuncts(const std::vector<ExprPtr>& terms);

  // Copy of `e` with every column reference i rewritten to map(i).
  static ExprPtr RemapColumns(const ExprPtr& e,
                              const std::function<int(int)>& map);
  // Appends the column indices `e` references.
  static void CollectColumns(const ExprPtr& e, std::vector<int>* out);

  // Structural equality; constants compare as typed values.
  bool SameAs(const Expr& other) const;

  std::string ToString() const;

 private:
  Expr() = default;

  // Three-valued EvalPredicate: `is_true` gets the rows where the
  // expression is true and `is_false`, when not null, those where it is
  // false; NULL rows are in neither.
  void EvalTruth(const Batch& batch, BitVector* is_true,
                 BitVector* is_false) const;

  Kind kind_ = Kind::kConst;
  ValueType type_ = ValueType::kInt64;
  CompareOp compare_op_ = CompareOp::kEq;
  int column_ = -1;
  Value constant_;
  std::vector<ExprPtr> children_;
};

}  // namespace oltap

#endif  // OLTAP_EXEC_EXPR_H_
