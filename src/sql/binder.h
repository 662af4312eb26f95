#ifndef OLTAP_SQL_BINDER_H_
#define OLTAP_SQL_BINDER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "exec/operators.h"
#include "sql/ast.h"
#include "storage/catalog.h"

namespace oltap {
namespace sql {

// One FROM relation of a bound SELECT. Its columns occupy
// [offset, offset + width) of the statement's combined scope, the FROM
// tables' columns concatenated in FROM order.
struct BoundTable {
  Table* table = nullptr;
  std::string alias;
  int offset = 0;
  int width = 0;
};

// One AND-ed term of WHERE or of an ON clause, bound over the combined
// scope.
struct BoundConjunct {
  enum class Kind : uint8_t {
    kLocal,  // reads one relation's columns (none: a constant, relation 0)
    kEdge,   // column = column across two relations
    kOther,  // anything else spanning relations
  };
  Kind kind = Kind::kOther;
  ExprPtr expr;
  int table = -1;  // kLocal: the relation it reads
};

// One SELECT-list entry.
struct BoundItem {
  enum class Kind : uint8_t {
    kScalar,    // non-aggregating query: `expr` over the combined scope
    kGroupKey,  // group_by[index]
    kAgg,       // aggs[index]
  };
  Kind kind = Kind::kScalar;
  ExprPtr expr;
  size_t index = 0;
  std::string name;  // output column name
};

// A SELECT with every name resolved once. The planner plans it, and the
// view manager defines, maintains and routes materialized views from it.
struct BoundSelect {
  bool distinct = false;
  std::vector<BoundTable> from;
  std::vector<BoundConjunct> where;
  // on[i]: the conjuncts of relation i's ON clause (on[0] is empty).
  std::vector<std::vector<BoundConjunct>> on;

  bool aggregate = false;  // GROUP BY or an aggregate in the SELECT list
  std::vector<ExprPtr> group_by;
  // The SELECT list's aggregates, then the ones only HAVING reads.
  std::vector<AggSpec> aggs;
  std::vector<BoundItem> items;
  // Over the aggregate output: group keys, then `aggs`.
  ExprPtr having;
  std::vector<SortOp::SortKey> order_by;  // output positions
  int64_t limit = -1;                     // -1 = none

  // Feedback / plan-memo key.
  std::string fingerprint;

  // Relation holding combined-scope column `column`.
  int OwnerOf(int column) const;
  // The (relation, column within it) a combined-scope column names.
  std::pair<int, int> Locate(int column) const;
  // A kLocal conjunct rebound over its relation's own columns.
  ExprPtr OverOwnColumns(const BoundConjunct& c) const;
  // True if `c` is an equality between relation `i` and an earlier
  // relation, i.e. a hash key when relation i joins the relations before
  // it; sets the two combined-scope columns.
  bool JoinsEarlier(const BoundConjunct& c, size_t i, int* earlier_col,
                    int* new_col) const;
};

// Resolves a parsed SELECT against the catalog.
Result<BoundSelect> BindSelect(const SelectStmt& stmt, const Catalog& catalog);

// Binds an expression against a single table's schema (UPDATE/DELETE
// predicates and SET expressions). Aggregates are rejected.
Result<ExprPtr> BindOverSchema(const ParseExpr& e, const Schema& schema,
                               const std::string& alias);

// Canonical statement text used as the feedback/plan-memo key.
std::string StatementFingerprint(const SelectStmt& stmt);

}  // namespace sql
}  // namespace oltap

#endif  // OLTAP_SQL_BINDER_H_
