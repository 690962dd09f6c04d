#include "sql/evaluator.h"

#include <cmath>

#include "common/strings.h"
#include "sql/bound_expr.h"

namespace explainit::sql {

using table::DataType;
using table::Value;

bool SqlLikeMatch(const std::string& pattern, const std::string& text) {
  return GlobMatch(LikeToGlob(pattern), text);
}

Result<size_t> Evaluator::ResolveColumn(const Expr& expr) const {
  return sql::ResolveColumn(*schema_, expr);
}

Result<Value> Evaluator::Eval(const Expr& expr, size_t row) const {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal;
    case ExprKind::kStar:
      return Status::InvalidArgument("'*' is only valid in COUNT(*)");
    case ExprKind::kColumnRef: {
      EXPLAINIT_ASSIGN_OR_RETURN(size_t idx, ResolveColumn(expr));
      return Cell(row, idx);
    }
    case ExprKind::kSubscript: {
      EXPLAINIT_ASSIGN_OR_RETURN(Value base, Eval(*expr.left, row));
      EXPLAINIT_ASSIGN_OR_RETURN(Value index, Eval(*expr.right, row));
      const table::ValueMap* map = base.AsMap();
      if (map == nullptr) {
        if (base.is_null()) return Value::Null();
        return Status::InvalidArgument("subscript on non-map value");
      }
      const std::string key = index.type() == DataType::kString
                                  ? index.AsString()
                                  : std::to_string(index.AsInt());
      auto it = map->find(key);
      return it == map->end() ? Value::Null() : it->second;
    }
    case ExprKind::kFunction: {
      if (IsAggregateFunction(expr.function_name)) {
        return Status::InvalidArgument("aggregate " + expr.function_name +
                                       " in a scalar context");
      }
      if (expr.function_name == "LAG") {
        // LAG(expr [, offset]) over the table's current row order.
        if (expr.args.empty() || expr.args.size() > 2) {
          return Status::InvalidArgument("LAG expects 1 or 2 arguments");
        }
        int64_t offset = 1;
        if (expr.args.size() == 2) {
          EXPLAINIT_ASSIGN_OR_RETURN(Value off, Eval(*expr.args[1], row));
          offset = off.AsInt();
        }
        const int64_t target = static_cast<int64_t>(row) - offset;
        if (target < 0 || target >= static_cast<int64_t>(num_rows())) {
          return Value::Null();
        }
        return Eval(*expr.args[0], static_cast<size_t>(target));
      }
      const ScalarFn* fn = functions_->Find(expr.function_name);
      if (fn == nullptr) {
        return Status::NotFound("unknown function: " + expr.function_name);
      }
      std::vector<Value> args;
      args.reserve(expr.args.size());
      for (const ExprPtr& a : expr.args) {
        EXPLAINIT_ASSIGN_OR_RETURN(Value v, Eval(*a, row));
        args.push_back(std::move(v));
      }
      return (*fn)(args);
    }
    case ExprKind::kUnary: {
      EXPLAINIT_ASSIGN_OR_RETURN(Value v, Eval(*expr.left, row));
      if (expr.unary_op == UnaryOp::kNegate) {
        if (v.is_null()) return Value::Null();
        return Value::Double(-v.AsDouble());
      }
      if (v.is_null()) return Value::Null();
      return Value::Bool(!v.AsBool());
    }
    case ExprKind::kBinary: {
      // AND/OR need lazy-ish null handling; arithmetic propagates null.
      EXPLAINIT_ASSIGN_OR_RETURN(Value l, Eval(*expr.left, row));
      if (expr.binary_op == BinaryOp::kAnd && !l.is_null() && !l.AsBool()) {
        return Value::Bool(false);
      }
      if (expr.binary_op == BinaryOp::kOr && !l.is_null() && l.AsBool()) {
        return Value::Bool(true);
      }
      EXPLAINIT_ASSIGN_OR_RETURN(Value r, Eval(*expr.right, row));
      switch (expr.binary_op) {
        case BinaryOp::kAnd:
          if (l.is_null() || r.is_null()) return Value::Null();
          return Value::Bool(l.AsBool() && r.AsBool());
        case BinaryOp::kOr:
          if (l.is_null() || r.is_null()) return Value::Null();
          return Value::Bool(l.AsBool() || r.AsBool());
        case BinaryOp::kEq:
          if (l.is_null() || r.is_null()) return Value::Null();
          return Value::Bool(l.Equals(r));
        case BinaryOp::kNe:
          if (l.is_null() || r.is_null()) return Value::Null();
          return Value::Bool(!l.Equals(r));
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe: {
          if (l.is_null() || r.is_null()) return Value::Null();
          const int cmp = l.Compare(r);
          switch (expr.binary_op) {
            case BinaryOp::kLt:
              return Value::Bool(cmp < 0);
            case BinaryOp::kLe:
              return Value::Bool(cmp <= 0);
            case BinaryOp::kGt:
              return Value::Bool(cmp > 0);
            default:
              return Value::Bool(cmp >= 0);
          }
        }
        case BinaryOp::kLike:
          if (l.is_null() || r.is_null()) return Value::Null();
          return Value::Bool(SqlLikeMatch(r.AsString(), l.AsString()));
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
        case BinaryOp::kMod: {
          if (l.is_null() || r.is_null()) return Value::Null();
          const double a = l.AsDouble(), b = r.AsDouble();
          switch (expr.binary_op) {
            case BinaryOp::kAdd:
              return Value::Double(a + b);
            case BinaryOp::kSub:
              return Value::Double(a - b);
            case BinaryOp::kMul:
              return Value::Double(a * b);
            case BinaryOp::kDiv:
              if (b == 0.0) return Value::Null();
              return Value::Double(a / b);
            default:
              if (b == 0.0) return Value::Null();
              return Value::Double(std::fmod(a, b));
          }
        }
      }
      return Status::Internal("unhandled binary op");
    }
    case ExprKind::kInList: {
      EXPLAINIT_ASSIGN_OR_RETURN(Value subject, Eval(*expr.left, row));
      if (subject.is_null()) return Value::Null();
      bool found = false;
      for (const ExprPtr& item : expr.list) {
        EXPLAINIT_ASSIGN_OR_RETURN(Value v, Eval(*item, row));
        if (subject.Equals(v)) {
          found = true;
          break;
        }
      }
      return Value::Bool(expr.negated ? !found : found);
    }
    case ExprKind::kBetween: {
      EXPLAINIT_ASSIGN_OR_RETURN(Value subject, Eval(*expr.left, row));
      EXPLAINIT_ASSIGN_OR_RETURN(Value lo, Eval(*expr.between_lo, row));
      EXPLAINIT_ASSIGN_OR_RETURN(Value hi, Eval(*expr.between_hi, row));
      if (subject.is_null() || lo.is_null() || hi.is_null()) {
        return Value::Null();
      }
      const bool in =
          subject.Compare(lo) >= 0 && subject.Compare(hi) <= 0;
      return Value::Bool(expr.negated ? !in : in);
    }
    case ExprKind::kIsNull: {
      EXPLAINIT_ASSIGN_OR_RETURN(Value v, Eval(*expr.left, row));
      return Value::Bool(expr.negated ? !v.is_null() : v.is_null());
    }
    case ExprKind::kCase: {
      for (const CaseBranch& b : expr.case_branches) {
        EXPLAINIT_ASSIGN_OR_RETURN(Value cond, Eval(*b.condition, row));
        if (!cond.is_null() && cond.AsBool()) {
          return Eval(*b.result, row);
        }
      }
      if (expr.case_else) return Eval(*expr.case_else, row);
      return Value::Null();
    }
  }
  return Status::Internal("unhandled expression kind");
}

}  // namespace explainit::sql
