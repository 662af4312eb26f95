#ifndef OLTAP_SQL_AST_H_
#define OLTAP_SQL_AST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "storage/schema.h"
#include "storage/table.h"

namespace oltap {
namespace sql {

// Parsed, name-unresolved expression. The planner binds identifiers to
// column indices and lowers this into the executable oltap::Expr tree.
struct ParseExpr {
  enum class Kind : uint8_t {
    kIdent,       // [qualifier.]name
    kIntLit,
    kDoubleLit,
    kStringLit,
    kNullLit,
    kStar,        // only inside COUNT(*)
    kBinary,      // op in {=,<>,<,<=,>,>=,AND,OR,+,-,*,/}
    kUnaryNot,
    kUnaryMinus,
    kCall,        // aggregate: COUNT/SUM/MIN/MAX/AVG
    kIsNull,      // args[0] IS [NOT] NULL (negated=>wrapped in kUnaryNot)
  };

  Kind kind = Kind::kNullLit;
  std::string qualifier;  // kIdent: optional table alias
  std::string name;       // kIdent: column; kCall: function (uppercased)
  int64_t int_val = 0;
  double double_val = 0;
  std::string str_val;
  std::string op;  // kBinary operator token
  std::vector<std::unique_ptr<ParseExpr>> args;

  std::string ToString() const;
};

using ParseExprPtr = std::unique_ptr<ParseExpr>;

struct SelectItem {
  ParseExprPtr expr;
  std::string alias;  // empty = derived from expression
};

struct TableRef {
  std::string name;
  std::string alias;      // empty = name
  ParseExprPtr join_on;   // null for the first table
};

struct OrderItem {
  ParseExprPtr expr;
  bool descending = false;
};

struct SelectStmt {
  bool distinct = false;
  std::vector<SelectItem> items;
  std::vector<TableRef> tables;
  ParseExprPtr where;
  std::vector<ParseExprPtr> group_by;
  ParseExprPtr having;
  std::vector<OrderItem> order_by;
  int64_t limit = -1;  // -1 = none
};

struct InsertStmt {
  std::string table;
  std::vector<std::vector<ParseExprPtr>> rows;
};

struct UpdateStmt {
  std::string table;
  std::vector<std::pair<std::string, ParseExprPtr>> sets;
  ParseExprPtr where;
};

struct DeleteStmt {
  std::string table;
  ParseExprPtr where;
};

struct CreateTableStmt {
  std::string name;
  std::vector<ColumnDef> columns;
  std::vector<std::string> key_columns;
  TableFormat format = TableFormat::kColumn;
};

// CREATE MATERIALIZED VIEW <name> [SYNC | DEFERRED [STALENESS <us>]]
// AS SELECT ... — join or GROUP BY/aggregate view over base tables,
// maintained incrementally from their change logs (src/view/).
struct CreateViewStmt {
  std::string name;
  bool sync = true;               // SYNC (default): maintained at commit
  int64_t max_staleness_us = -1;  // DEFERRED STALENESS bound; -1 = none
  std::unique_ptr<SelectStmt> select;
  std::string definition;  // the SELECT's source text, as written
};

// REFRESH MATERIALIZED VIEW <name>: full rebuild from the base tables.
struct RefreshViewStmt {
  std::string name;
};

// ANALYZE [<table>]: collect optimizer statistics (all tables when no
// table is named).
struct AnalyzeStmt {
  std::string table;  // empty = every table in the catalog
};

// SET <name> = <value>: session/database knobs (currently `optimizer`).
struct SetStmt {
  std::string name;   // lowercased
  std::string value;  // lowercased
};

struct Statement {
  enum class Kind : uint8_t {
    kSelect,
    kInsert,
    kUpdate,
    kDelete,
    kCreateTable,
    kCreateView,   // CREATE MATERIALIZED VIEW ... AS SELECT ...
    kRefreshView,  // REFRESH MATERIALIZED VIEW <name>
    kShowStats,  // SHOW STATS: engine metrics snapshot, no table access
    kAnalyze,    // ANALYZE: collect optimizer statistics
    kSet,        // SET <knob> = <value>
    kCheckpoint,  // CHECKPOINT: synchronous checkpoint round
  };
  Kind kind = Kind::kSelect;
  bool explain = false;  // EXPLAIN SELECT ...: plan only, no execution
  bool analyze = false;  // EXPLAIN ANALYZE: execute, report per-op profile
  std::unique_ptr<SelectStmt> select;
  std::unique_ptr<InsertStmt> insert;
  std::unique_ptr<UpdateStmt> update;
  std::unique_ptr<DeleteStmt> del;
  std::unique_ptr<CreateTableStmt> create;
  std::unique_ptr<CreateViewStmt> create_view;
  std::unique_ptr<RefreshViewStmt> refresh_view;
  std::unique_ptr<AnalyzeStmt> analyze_stmt;
  std::unique_ptr<SetStmt> set;
};

}  // namespace sql
}  // namespace oltap

#endif  // OLTAP_SQL_AST_H_
