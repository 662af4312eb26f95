#include "sql/parser.h"

#include <cctype>

#include "sql/lexer.h"

namespace oltap {
namespace sql {
namespace {

ParseExprPtr MakeExpr(ParseExpr::Kind kind) {
  auto e = std::make_unique<ParseExpr>();
  e->kind = kind;
  return e;
}

// Deep copy, used by the BETWEEN/IN rewrites which reference the subject
// expression more than once.
ParseExprPtr CloneExpr(const ParseExpr& e) {
  auto copy = std::make_unique<ParseExpr>();
  copy->kind = e.kind;
  copy->qualifier = e.qualifier;
  copy->name = e.name;
  copy->int_val = e.int_val;
  copy->double_val = e.double_val;
  copy->str_val = e.str_val;
  copy->op = e.op;
  for (const auto& arg : e.args) copy->args.push_back(CloneExpr(*arg));
  return copy;
}

class Parser {
 public:
  Parser(std::vector<Token> tokens, const std::string& text)
      : tokens_(std::move(tokens)), text_(text) {}

  Result<Statement> ParseStatement() {
    Statement stmt;
    if (AcceptKeyword("EXPLAIN")) {
      stmt.explain = true;
      if (AcceptKeyword("ANALYZE")) stmt.analyze = true;
      if (!Peek().IsKeyword("SELECT")) {
        return Err(stmt.analyze ? "EXPLAIN ANALYZE supports SELECT only"
                                : "EXPLAIN supports SELECT only");
      }
    }
    if (Peek().IsKeyword("SHOW")) {
      Advance();
      OLTAP_RETURN_NOT_OK(ExpectKeyword("STATS"));
      stmt.kind = Statement::Kind::kShowStats;
      if (Peek().IsSymbol(";")) Advance();
      if (Peek().kind != Token::Kind::kEnd) {
        return Err("unexpected trailing input");
      }
      return stmt;
    }
    if (Peek().IsKeyword("ANALYZE")) {
      // Top-level ANALYZE [<table>] (distinct from the EXPLAIN ANALYZE
      // prefix handled above): collect optimizer statistics.
      Advance();
      stmt.kind = Statement::Kind::kAnalyze;
      stmt.analyze_stmt = std::make_unique<AnalyzeStmt>();
      if (Peek().kind == Token::Kind::kIdent) {
        stmt.analyze_stmt->table = Advance().text;
      }
      if (Peek().IsSymbol(";")) Advance();
      if (Peek().kind != Token::Kind::kEnd) {
        return Err("unexpected trailing input");
      }
      return stmt;
    }
    if (Peek().IsKeyword("CHECKPOINT")) {
      // CHECKPOINT: run one synchronous checkpoint round now.
      Advance();
      stmt.kind = Statement::Kind::kCheckpoint;
      if (Peek().IsSymbol(";")) Advance();
      if (Peek().kind != Token::Kind::kEnd) {
        return Err("unexpected trailing input");
      }
      return stmt;
    }
    if (Peek().IsKeyword("SET")) {
      Advance();
      stmt.kind = Statement::Kind::kSet;
      stmt.set = std::make_unique<SetStmt>();
      OLTAP_ASSIGN_OR_RETURN(std::string name, ExpectIdent());
      OLTAP_RETURN_NOT_OK(ExpectSymbol("="));
      std::string value;
      if (Peek().kind == Token::Kind::kIdent) {
        value = Advance().text;
      } else if (Peek().kind == Token::Kind::kInt) {
        value = std::to_string(Advance().int_val);
      } else if (Peek().kind == Token::Kind::kString) {
        value = Advance().text;
      } else {
        return Err("expected a value after SET " + name + " =");
      }
      auto lower = [](std::string s) {
        for (char& c : s) {
          c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        }
        return s;
      };
      stmt.set->name = lower(std::move(name));
      stmt.set->value = lower(std::move(value));
      if (Peek().IsSymbol(";")) Advance();
      if (Peek().kind != Token::Kind::kEnd) {
        return Err("unexpected trailing input");
      }
      return stmt;
    }
    if (Peek().IsKeyword("SELECT")) {
      stmt.kind = Statement::Kind::kSelect;
      auto sel = ParseSelect();
      if (!sel.ok()) return sel.status();
      stmt.select = std::move(sel).value();
    } else if (Peek().IsKeyword("INSERT")) {
      stmt.kind = Statement::Kind::kInsert;
      auto ins = ParseInsert();
      if (!ins.ok()) return ins.status();
      stmt.insert = std::move(ins).value();
    } else if (Peek().IsKeyword("UPDATE")) {
      stmt.kind = Statement::Kind::kUpdate;
      auto upd = ParseUpdate();
      if (!upd.ok()) return upd.status();
      stmt.update = std::move(upd).value();
    } else if (Peek().IsKeyword("DELETE")) {
      stmt.kind = Statement::Kind::kDelete;
      auto del = ParseDelete();
      if (!del.ok()) return del.status();
      stmt.del = std::move(del).value();
    } else if (Peek().IsKeyword("CREATE") &&
               Peek(1).IsKeyword("MATERIALIZED")) {
      stmt.kind = Statement::Kind::kCreateView;
      auto crt = ParseCreateView();
      if (!crt.ok()) return crt.status();
      stmt.create_view = std::move(crt).value();
    } else if (Peek().IsKeyword("CREATE")) {
      stmt.kind = Statement::Kind::kCreateTable;
      auto crt = ParseCreate();
      if (!crt.ok()) return crt.status();
      stmt.create = std::move(crt).value();
    } else if (Peek().IsKeyword("REFRESH")) {
      stmt.kind = Statement::Kind::kRefreshView;
      Advance();
      OLTAP_RETURN_NOT_OK(ExpectKeyword("MATERIALIZED"));
      OLTAP_RETURN_NOT_OK(ExpectKeyword("VIEW"));
      stmt.refresh_view = std::make_unique<RefreshViewStmt>();
      auto name = ExpectIdent();
      if (!name.ok()) return name.status();
      stmt.refresh_view->name = std::move(name).value();
    } else {
      return Err("expected a statement keyword");
    }
    if (Peek().IsSymbol(";")) Advance();
    if (Peek().kind != Token::Kind::kEnd) {
      return Err("unexpected trailing input");
    }
    return stmt;
  }

  Result<ParseExprPtr> ParseStandaloneExpr() {
    auto e = ParseExprTop();
    if (!e.ok()) return e.status();
    if (Peek().kind != Token::Kind::kEnd) {
      return Err("unexpected trailing input after expression");
    }
    return e;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }
  bool AcceptKeyword(const char* kw) {
    if (Peek().IsKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }
  bool AcceptSymbol(const char* s) {
    if (Peek().IsSymbol(s)) {
      Advance();
      return true;
    }
    return false;
  }
  Status Err(const std::string& msg) const {
    return Status::InvalidArgument(msg + " (near offset " +
                                   std::to_string(Peek().offset) + ")");
  }
  Status ExpectSymbol(const char* s) {
    if (!AcceptSymbol(s)) return Err(std::string("expected '") + s + "'");
    return Status::OK();
  }
  Status ExpectKeyword(const char* kw) {
    if (!AcceptKeyword(kw)) return Err(std::string("expected ") + kw);
    return Status::OK();
  }
  Result<std::string> ExpectIdent() {
    if (Peek().kind != Token::Kind::kIdent) return Err("expected identifier");
    return Advance().text;
  }

  // ---- Expressions ----

  Result<ParseExprPtr> ParseExprTop() { return ParseOr(); }

  Result<ParseExprPtr> ParseOr() {
    auto left = ParseAnd();
    if (!left.ok()) return left;
    while (AcceptKeyword("OR")) {
      auto right = ParseAnd();
      if (!right.ok()) return right;
      auto e = MakeExpr(ParseExpr::Kind::kBinary);
      e->op = "OR";
      e->args.push_back(std::move(left).value());
      e->args.push_back(std::move(right).value());
      left = std::move(e);
    }
    return left;
  }

  Result<ParseExprPtr> ParseAnd() {
    auto left = ParseNot();
    if (!left.ok()) return left;
    while (AcceptKeyword("AND")) {
      auto right = ParseNot();
      if (!right.ok()) return right;
      auto e = MakeExpr(ParseExpr::Kind::kBinary);
      e->op = "AND";
      e->args.push_back(std::move(left).value());
      e->args.push_back(std::move(right).value());
      left = std::move(e);
    }
    return left;
  }

  Result<ParseExprPtr> ParseNot() {
    if (AcceptKeyword("NOT")) {
      auto inner = ParseNot();
      if (!inner.ok()) return inner;
      auto e = MakeExpr(ParseExpr::Kind::kUnaryNot);
      e->args.push_back(std::move(inner).value());
      return Result<ParseExprPtr>(std::move(e));
    }
    return ParseComparison();
  }

  Result<ParseExprPtr> ParseComparison() {
    auto left = ParseAdditive();
    if (!left.ok()) return left;
    // [NOT] BETWEEN lo AND hi  — rewritten to (l >= lo AND l <= hi).
    bool negated = false;
    if (Peek().IsKeyword("NOT") && Peek(1).IsKeyword("BETWEEN")) {
      Advance();
      negated = true;
    }
    if (AcceptKeyword("BETWEEN")) {
      auto lo = ParseAdditive();
      if (!lo.ok()) return lo;
      OLTAP_RETURN_NOT_OK(ExpectKeyword("AND"));
      auto hi = ParseAdditive();
      if (!hi.ok()) return hi;
      ParseExprPtr subject = std::move(left).value();
      auto ge = MakeExpr(ParseExpr::Kind::kBinary);
      ge->op = ">=";
      ge->args.push_back(CloneExpr(*subject));
      ge->args.push_back(std::move(lo).value());
      auto le = MakeExpr(ParseExpr::Kind::kBinary);
      le->op = "<=";
      le->args.push_back(std::move(subject));
      le->args.push_back(std::move(hi).value());
      auto both = MakeExpr(ParseExpr::Kind::kBinary);
      both->op = "AND";
      both->args.push_back(std::move(ge));
      both->args.push_back(std::move(le));
      if (negated) {
        auto n = MakeExpr(ParseExpr::Kind::kUnaryNot);
        n->args.push_back(std::move(both));
        return Result<ParseExprPtr>(std::move(n));
      }
      return Result<ParseExprPtr>(std::move(both));
    }
    if (negated) return Err("expected BETWEEN after NOT");
    // [NOT] IN (e1, e2, ...)  — rewritten to an OR chain of equalities.
    bool in_negated = false;
    if (Peek().IsKeyword("NOT") && Peek(1).IsKeyword("IN")) {
      Advance();
      in_negated = true;
    }
    if (AcceptKeyword("IN")) {
      OLTAP_RETURN_NOT_OK(ExpectSymbol("("));
      ParseExprPtr subject = std::move(left).value();
      ParseExprPtr chain;
      while (true) {
        auto item = ParseExprTop();
        if (!item.ok()) return item;
        auto eq = MakeExpr(ParseExpr::Kind::kBinary);
        eq->op = "=";
        eq->args.push_back(CloneExpr(*subject));
        eq->args.push_back(std::move(item).value());
        if (chain == nullptr) {
          chain = std::move(eq);
        } else {
          auto both = MakeExpr(ParseExpr::Kind::kBinary);
          both->op = "OR";
          both->args.push_back(std::move(chain));
          both->args.push_back(std::move(eq));
          chain = std::move(both);
        }
        if (!AcceptSymbol(",")) break;
      }
      OLTAP_RETURN_NOT_OK(ExpectSymbol(")"));
      if (in_negated) {
        auto n = MakeExpr(ParseExpr::Kind::kUnaryNot);
        n->args.push_back(std::move(chain));
        return Result<ParseExprPtr>(std::move(n));
      }
      return Result<ParseExprPtr>(std::move(chain));
    }
    if (in_negated) return Err("expected IN after NOT");
    if (Peek().IsKeyword("IS")) {
      Advance();
      bool negated = AcceptKeyword("NOT");
      OLTAP_RETURN_NOT_OK(ExpectKeyword("NULL"));
      auto e = MakeExpr(ParseExpr::Kind::kIsNull);
      e->args.push_back(std::move(left).value());
      if (negated) {
        auto n = MakeExpr(ParseExpr::Kind::kUnaryNot);
        n->args.push_back(std::move(e));
        return Result<ParseExprPtr>(std::move(n));
      }
      return Result<ParseExprPtr>(std::move(e));
    }
    static const char* kOps[] = {"=", "<>", "<=", ">=", "<", ">"};
    for (const char* op : kOps) {
      if (Peek().IsSymbol(op)) {
        Advance();
        auto right = ParseAdditive();
        if (!right.ok()) return right;
        auto e = MakeExpr(ParseExpr::Kind::kBinary);
        e->op = op;
        e->args.push_back(std::move(left).value());
        e->args.push_back(std::move(right).value());
        return Result<ParseExprPtr>(std::move(e));
      }
    }
    return left;
  }

  Result<ParseExprPtr> ParseAdditive() {
    auto left = ParseMultiplicative();
    if (!left.ok()) return left;
    while (Peek().IsSymbol("+") || Peek().IsSymbol("-")) {
      std::string op = Advance().text;
      auto right = ParseMultiplicative();
      if (!right.ok()) return right;
      auto e = MakeExpr(ParseExpr::Kind::kBinary);
      e->op = op;
      e->args.push_back(std::move(left).value());
      e->args.push_back(std::move(right).value());
      left = std::move(e);
    }
    return left;
  }

  Result<ParseExprPtr> ParseMultiplicative() {
    auto left = ParseUnary();
    if (!left.ok()) return left;
    while (Peek().IsSymbol("*") || Peek().IsSymbol("/")) {
      std::string op = Advance().text;
      auto right = ParseUnary();
      if (!right.ok()) return right;
      auto e = MakeExpr(ParseExpr::Kind::kBinary);
      e->op = op;
      e->args.push_back(std::move(left).value());
      e->args.push_back(std::move(right).value());
      left = std::move(e);
    }
    return left;
  }

  Result<ParseExprPtr> ParseUnary() {
    if (AcceptSymbol("-")) {
      auto inner = ParseUnary();
      if (!inner.ok()) return inner;
      auto e = MakeExpr(ParseExpr::Kind::kUnaryMinus);
      e->args.push_back(std::move(inner).value());
      return Result<ParseExprPtr>(std::move(e));
    }
    return ParsePrimary();
  }

  Result<ParseExprPtr> ParsePrimary() {
    const Token& t = Peek();
    switch (t.kind) {
      case Token::Kind::kInt: {
        Advance();
        auto e = MakeExpr(ParseExpr::Kind::kIntLit);
        e->int_val = t.int_val;
        return Result<ParseExprPtr>(std::move(e));
      }
      case Token::Kind::kDouble: {
        Advance();
        auto e = MakeExpr(ParseExpr::Kind::kDoubleLit);
        e->double_val = t.double_val;
        return Result<ParseExprPtr>(std::move(e));
      }
      case Token::Kind::kString: {
        Advance();
        auto e = MakeExpr(ParseExpr::Kind::kStringLit);
        e->str_val = t.text;
        return Result<ParseExprPtr>(std::move(e));
      }
      case Token::Kind::kSymbol:
        if (t.text == "(") {
          Advance();
          auto inner = ParseExprTop();
          if (!inner.ok()) return inner;
          OLTAP_RETURN_NOT_OK(ExpectSymbol(")"));
          return inner;
        }
        if (t.text == "*") {
          Advance();
          return Result<ParseExprPtr>(MakeExpr(ParseExpr::Kind::kStar));
        }
        return Err("unexpected symbol in expression");
      case Token::Kind::kIdent: {
        if (t.upper == "NULL") {
          Advance();
          return Result<ParseExprPtr>(MakeExpr(ParseExpr::Kind::kNullLit));
        }
        // Function call?
        if (Peek(1).IsSymbol("(")) {
          std::string fn = t.upper;
          Advance();
          Advance();  // '('
          auto e = MakeExpr(ParseExpr::Kind::kCall);
          e->name = fn;
          if (!Peek().IsSymbol(")")) {
            while (true) {
              auto arg = ParseExprTop();
              if (!arg.ok()) return arg;
              e->args.push_back(std::move(arg).value());
              if (!AcceptSymbol(",")) break;
            }
          }
          OLTAP_RETURN_NOT_OK(ExpectSymbol(")"));
          return Result<ParseExprPtr>(std::move(e));
        }
        // [qualifier.]column
        Advance();
        auto e = MakeExpr(ParseExpr::Kind::kIdent);
        e->name = t.text;
        if (AcceptSymbol(".")) {
          auto col = ExpectIdent();
          if (!col.ok()) return col.status();
          e->qualifier = e->name;
          e->name = std::move(col).value();
        }
        return Result<ParseExprPtr>(std::move(e));
      }
      case Token::Kind::kEnd:
        return Err("unexpected end of input in expression");
    }
    return Err("unexpected token");
  }

  // ---- Statements ----

  Result<std::unique_ptr<SelectStmt>> ParseSelect() {
    OLTAP_RETURN_NOT_OK(ExpectKeyword("SELECT"));
    auto stmt = std::make_unique<SelectStmt>();
    if (AcceptKeyword("DISTINCT")) stmt->distinct = true;
    while (true) {
      SelectItem item;
      auto e = ParseExprTop();
      if (!e.ok()) return e.status();
      item.expr = std::move(e).value();
      if (AcceptKeyword("AS")) {
        auto alias = ExpectIdent();
        if (!alias.ok()) return alias.status();
        item.alias = std::move(alias).value();
      } else if (Peek().kind == Token::Kind::kIdent &&
                 !Peek().IsKeyword("FROM")) {
        item.alias = Advance().text;
      }
      stmt->items.push_back(std::move(item));
      if (!AcceptSymbol(",")) break;
    }
    OLTAP_RETURN_NOT_OK(ExpectKeyword("FROM"));
    {
      auto tr = ParseTableRef();
      if (!tr.ok()) return tr.status();
      stmt->tables.push_back(std::move(tr).value());
    }
    while (Peek().IsKeyword("JOIN") || Peek().IsKeyword("INNER")) {
      AcceptKeyword("INNER");
      OLTAP_RETURN_NOT_OK(ExpectKeyword("JOIN"));
      auto tr = ParseTableRef();
      if (!tr.ok()) return tr.status();
      TableRef ref = std::move(tr).value();
      OLTAP_RETURN_NOT_OK(ExpectKeyword("ON"));
      auto on = ParseExprTop();
      if (!on.ok()) return on.status();
      ref.join_on = std::move(on).value();
      stmt->tables.push_back(std::move(ref));
    }
    if (AcceptKeyword("WHERE")) {
      auto w = ParseExprTop();
      if (!w.ok()) return w.status();
      stmt->where = std::move(w).value();
    }
    if (AcceptKeyword("GROUP")) {
      OLTAP_RETURN_NOT_OK(ExpectKeyword("BY"));
      while (true) {
        auto g = ParseExprTop();
        if (!g.ok()) return g.status();
        stmt->group_by.push_back(std::move(g).value());
        if (!AcceptSymbol(",")) break;
      }
    }
    if (AcceptKeyword("HAVING")) {
      auto h = ParseExprTop();
      if (!h.ok()) return h.status();
      stmt->having = std::move(h).value();
    }
    if (AcceptKeyword("ORDER")) {
      OLTAP_RETURN_NOT_OK(ExpectKeyword("BY"));
      while (true) {
        OrderItem item;
        auto o = ParseExprTop();
        if (!o.ok()) return o.status();
        item.expr = std::move(o).value();
        if (AcceptKeyword("DESC")) {
          item.descending = true;
        } else {
          AcceptKeyword("ASC");
        }
        stmt->order_by.push_back(std::move(item));
        if (!AcceptSymbol(",")) break;
      }
    }
    if (AcceptKeyword("LIMIT")) {
      if (Peek().kind != Token::Kind::kInt) return Err("expected LIMIT count");
      stmt->limit = Advance().int_val;
    }
    return stmt;
  }

  Result<TableRef> ParseTableRef() {
    auto name = ExpectIdent();
    if (!name.ok()) return name.status();
    TableRef ref;
    ref.name = std::move(name).value();
    ref.alias = ref.name;
    if (AcceptKeyword("AS")) {
      auto alias = ExpectIdent();
      if (!alias.ok()) return alias.status();
      ref.alias = std::move(alias).value();
    } else if (Peek().kind == Token::Kind::kIdent && !IsClauseKeyword(Peek())) {
      ref.alias = Advance().text;
    }
    return ref;
  }

  static bool IsClauseKeyword(const Token& t) {
    static const char* kClauses[] = {"JOIN",  "INNER", "ON",    "WHERE",
                                     "GROUP", "ORDER", "LIMIT", "SET"};
    for (const char* kw : kClauses) {
      if (t.IsKeyword(kw)) return true;
    }
    return false;
  }

  Result<std::unique_ptr<InsertStmt>> ParseInsert() {
    OLTAP_RETURN_NOT_OK(ExpectKeyword("INSERT"));
    OLTAP_RETURN_NOT_OK(ExpectKeyword("INTO"));
    auto stmt = std::make_unique<InsertStmt>();
    auto name = ExpectIdent();
    if (!name.ok()) return name.status();
    stmt->table = std::move(name).value();
    OLTAP_RETURN_NOT_OK(ExpectKeyword("VALUES"));
    while (true) {
      OLTAP_RETURN_NOT_OK(ExpectSymbol("("));
      std::vector<ParseExprPtr> row;
      while (true) {
        auto e = ParseExprTop();
        if (!e.ok()) return e.status();
        row.push_back(std::move(e).value());
        if (!AcceptSymbol(",")) break;
      }
      OLTAP_RETURN_NOT_OK(ExpectSymbol(")"));
      stmt->rows.push_back(std::move(row));
      if (!AcceptSymbol(",")) break;
    }
    return stmt;
  }

  Result<std::unique_ptr<UpdateStmt>> ParseUpdate() {
    OLTAP_RETURN_NOT_OK(ExpectKeyword("UPDATE"));
    auto stmt = std::make_unique<UpdateStmt>();
    auto name = ExpectIdent();
    if (!name.ok()) return name.status();
    stmt->table = std::move(name).value();
    OLTAP_RETURN_NOT_OK(ExpectKeyword("SET"));
    while (true) {
      auto col = ExpectIdent();
      if (!col.ok()) return col.status();
      OLTAP_RETURN_NOT_OK(ExpectSymbol("="));
      auto e = ParseExprTop();
      if (!e.ok()) return e.status();
      stmt->sets.emplace_back(std::move(col).value(), std::move(e).value());
      if (!AcceptSymbol(",")) break;
    }
    if (AcceptKeyword("WHERE")) {
      auto w = ParseExprTop();
      if (!w.ok()) return w.status();
      stmt->where = std::move(w).value();
    }
    return stmt;
  }

  Result<std::unique_ptr<DeleteStmt>> ParseDelete() {
    OLTAP_RETURN_NOT_OK(ExpectKeyword("DELETE"));
    OLTAP_RETURN_NOT_OK(ExpectKeyword("FROM"));
    auto stmt = std::make_unique<DeleteStmt>();
    auto name = ExpectIdent();
    if (!name.ok()) return name.status();
    stmt->table = std::move(name).value();
    if (AcceptKeyword("WHERE")) {
      auto w = ParseExprTop();
      if (!w.ok()) return w.status();
      stmt->where = std::move(w).value();
    }
    return stmt;
  }

  Result<std::unique_ptr<CreateTableStmt>> ParseCreate() {
    OLTAP_RETURN_NOT_OK(ExpectKeyword("CREATE"));
    OLTAP_RETURN_NOT_OK(ExpectKeyword("TABLE"));
    auto stmt = std::make_unique<CreateTableStmt>();
    auto name = ExpectIdent();
    if (!name.ok()) return name.status();
    stmt->name = std::move(name).value();
    OLTAP_RETURN_NOT_OK(ExpectSymbol("("));
    while (true) {
      if (Peek().IsKeyword("PRIMARY")) {
        Advance();
        OLTAP_RETURN_NOT_OK(ExpectKeyword("KEY"));
        OLTAP_RETURN_NOT_OK(ExpectSymbol("("));
        while (true) {
          auto col = ExpectIdent();
          if (!col.ok()) return col.status();
          stmt->key_columns.push_back(std::move(col).value());
          if (!AcceptSymbol(",")) break;
        }
        OLTAP_RETURN_NOT_OK(ExpectSymbol(")"));
      } else {
        auto col = ExpectIdent();
        if (!col.ok()) return col.status();
        auto type = ExpectIdent();
        if (!type.ok()) return type.status();
        std::string ty;
        for (char c : *type) {
          ty += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
        }
        ColumnDef def;
        def.name = std::move(col).value();
        if (ty == "BIGINT" || ty == "INT" || ty == "INTEGER") {
          def.type = ValueType::kInt64;
        } else if (ty == "DOUBLE" || ty == "FLOAT" || ty == "REAL" ||
                   ty == "DECIMAL" || ty == "NUMERIC") {
          def.type = ValueType::kDouble;
        } else if (ty == "TEXT" || ty == "STRING" || ty == "VARCHAR" ||
                   ty == "CHAR") {
          def.type = ValueType::kString;
        } else {
          return Err("unknown type: " + ty);
        }
        // Optional length: VARCHAR(16) — parsed and ignored.
        if (AcceptSymbol("(")) {
          if (Peek().kind != Token::Kind::kInt) return Err("expected length");
          Advance();
          OLTAP_RETURN_NOT_OK(ExpectSymbol(")"));
        }
        if (AcceptKeyword("NOT")) {
          OLTAP_RETURN_NOT_OK(ExpectKeyword("NULL"));
          def.nullable = false;
        }
        stmt->columns.push_back(std::move(def));
      }
      if (!AcceptSymbol(",")) break;
    }
    OLTAP_RETURN_NOT_OK(ExpectSymbol(")"));
    if (AcceptKeyword("FORMAT")) {
      auto fmt = ExpectIdent();
      if (!fmt.ok()) return fmt.status();
      std::string f;
      for (char c : *fmt) {
        f += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
      }
      if (f == "ROW") {
        stmt->format = TableFormat::kRow;
      } else if (f == "COLUMN") {
        stmt->format = TableFormat::kColumn;
      } else if (f == "DUAL") {
        stmt->format = TableFormat::kDual;
      } else {
        return Err("unknown format: " + f);
      }
    }
    return stmt;
  }

  // CREATE MATERIALIZED VIEW <name> [SYNC | DEFERRED [STALENESS <us>]]
  // AS SELECT ...
  Result<std::unique_ptr<CreateViewStmt>> ParseCreateView() {
    OLTAP_RETURN_NOT_OK(ExpectKeyword("CREATE"));
    OLTAP_RETURN_NOT_OK(ExpectKeyword("MATERIALIZED"));
    OLTAP_RETURN_NOT_OK(ExpectKeyword("VIEW"));
    auto stmt = std::make_unique<CreateViewStmt>();
    auto name = ExpectIdent();
    if (!name.ok()) return name.status();
    stmt->name = std::move(name).value();
    if (AcceptKeyword("SYNC")) {
      stmt->sync = true;
    } else if (AcceptKeyword("DEFERRED")) {
      stmt->sync = false;
      if (AcceptKeyword("STALENESS")) {
        if (Peek().kind != Token::Kind::kInt) {
          return Err("STALENESS expects microseconds");
        }
        stmt->max_staleness_us = Advance().int_val;
      }
    }
    OLTAP_RETURN_NOT_OK(ExpectKeyword("AS"));
    if (!Peek().IsKeyword("SELECT")) {
      return Err("materialized view definition must be a SELECT");
    }
    const size_t begin = Peek().offset;
    auto sel = ParseSelect();
    if (!sel.ok()) return sel.status();
    stmt->select = std::move(sel).value();
    size_t end = Peek().offset;
    while (end > begin && std::isspace(static_cast<unsigned char>(
                              text_[end - 1]))) {
      --end;
    }
    stmt->definition = text_.substr(begin, end - begin);
    return stmt;
  }

  std::vector<Token> tokens_;
  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

Result<Statement> Parse(const std::string& text) {
  auto tokens = Lex(text);
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(tokens).value(), text);
  return parser.ParseStatement();
}

Result<ParseExprPtr> ParseExpression(const std::string& text) {
  auto tokens = Lex(text);
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(tokens).value(), text);
  return parser.ParseStandaloneExpr();
}

}  // namespace sql
}  // namespace oltap
