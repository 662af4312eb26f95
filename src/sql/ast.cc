#include "sql/ast.h"

namespace oltap {
namespace sql {

std::string ParseExpr::ToString() const {
  switch (kind) {
    case Kind::kIdent:
      return qualifier.empty() ? name : qualifier + "." + name;
    case Kind::kIntLit:
      return std::to_string(int_val);
    case Kind::kDoubleLit:
      return std::to_string(double_val);
    case Kind::kStringLit:
      return "'" + str_val + "'";
    case Kind::kNullLit:
      return "NULL";
    case Kind::kStar:
      return "*";
    // Appends, not "literal" + std::string: GCC 12 reports a false
    // -Wrestrict overlap on those temporaries.
    case Kind::kBinary:
      return std::string("(").append(args[0]->ToString()).append(" ")
          .append(op).append(" ").append(args[1]->ToString()).append(")");
    case Kind::kUnaryNot:
      return std::string("NOT ").append(args[0]->ToString());
    case Kind::kUnaryMinus:
      return std::string("-").append(args[0]->ToString());
    case Kind::kCall: {
      std::string out = name + "(";
      for (size_t i = 0; i < args.size(); ++i) {
        if (i > 0) out += ", ";
        out += args[i]->ToString();
      }
      return out + ")";
    }
    case Kind::kIsNull:
      return args[0]->ToString() + " IS NULL";
  }
  return "?";
}

}  // namespace sql
}  // namespace oltap
