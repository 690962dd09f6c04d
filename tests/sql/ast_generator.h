// Deterministic-seed random SQL AST generator shared by the fuzz suites.
// Statements are built level-by-level along the parser's precedence
// grammar, so printed text is unambiguous; the expression factories
// (Arith, Bool, Aggregate, Literal) also serve on their own. Generated
// trees are not type-checked: column names and types are random picks.
#pragma once

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "sql/ast.h"

namespace explainit::sql {

class AstGenerator {
 public:
  using Value = table::Value;

  explicit AstGenerator(uint64_t seed) : rng_(seed) {}

  std::unique_ptr<SelectStatement> Statement(int depth) {
    auto stmt = std::make_unique<SelectStatement>();
    const size_t items = 1 + Pick(3);
    for (size_t i = 0; i < items; ++i) {
      SelectItem item;
      if (i == 0 && Chance(10)) {
        item.is_star = true;
      } else {
        item.expr = Chance(25) ? Aggregate(depth) : Arith(depth);
        if (Chance(50)) item.alias = Identifier();
      }
      stmt->items.push_back(std::move(item));
    }
    if (Chance(90)) {
      stmt->from = TableRefNode(depth);
      const size_t joins = depth > 0 ? Pick(3) : 0;
      for (size_t j = 0; j < joins; ++j) {
        JoinClause join;
        join.type = static_cast<JoinType>(Pick(4));
        join.right = TableRefNode(depth - 1);
        if (join.type != JoinType::kCross) join.condition = Bool(depth);
        stmt->joins.push_back(std::move(join));
      }
    }
    if (Chance(60)) stmt->where = Bool(depth);
    const size_t groups = Chance(40) ? 1 + Pick(2) : 0;
    for (size_t g = 0; g < groups; ++g) stmt->group_by.push_back(Arith(depth));
    if (groups > 0 && Chance(40)) stmt->having = Bool(depth);
    const size_t orders = Chance(40) ? 1 + Pick(2) : 0;
    for (size_t o = 0; o < orders; ++o) {
      OrderByItem item;
      item.expr = Arith(depth);
      item.ascending = Chance(50);
      stmt->order_by.push_back(std::move(item));
    }
    if (Chance(30)) stmt->limit = static_cast<int64_t>(Pick(20));
    if (depth > 0 && Chance(20)) {
      stmt->union_all.push_back(Statement(depth - 1));
    }
    return stmt;
  }

  std::unique_ptr<ExplainStatement> Explain(int depth) {
    auto e = std::make_unique<ExplainStatement>();
    e->target = Statement(depth);
    if (Chance(25)) {
      e->given_pseudocause = true;
    } else if (Chance(40)) {
      e->given = Statement(depth);
    }
    e->search_space = Statement(depth);
    if (Chance(50)) {
      static const char* const kScorers[] = {"CorrMax", "CorrMean", "L2",
                                             "L2-P50"};
      e->scorer = kScorers[Pick(4)];
    }
    if (Chance(40)) e->top_k = static_cast<int64_t>(1 + Pick(20));
    if (Chance(40)) {
      const int64_t lo = static_cast<int64_t>(Pick(500));
      e->between_start = lo;
      e->between_end = lo + static_cast<int64_t>(Pick(500));
    }
    return e;
  }

  bool Chance(int percent) {
    return static_cast<int>(Pick(100)) < percent;
  }
  size_t Pick(size_t n) { return rng_() % n; }

  std::string Identifier() {
    static const char* const kNames[] = {"a", "b", "c", "d", "m",
                                         "v0", "v1", "x", "y"};
    return kNames[Pick(sizeof(kNames) / sizeof(kNames[0]))];
  }
  std::string TableName() {
    static const char* const kTables[] = {"t0", "t1"};
    return kTables[Pick(2)];
  }

  TableRef TableRefNode(int depth) {
    TableRef ref;
    if (depth > 0 && Chance(20)) {
      ref.subquery = Statement(depth - 1);
      ref.alias = Identifier();  // subqueries need a name to be useful
    } else {
      ref.table_name = TableName();
      if (Chance(40)) ref.alias = Identifier();
    }
    return ref;
  }

  /// Literal whose printed form reparses to an identical print (%.6g on
  /// one- or two-decimal values is textually stable).
  ExprPtr Literal() {
    switch (Pick(4)) {
      case 0:
        return MakeLiteral(Value::Int(static_cast<int64_t>(Pick(1000))));
      case 1:
        return MakeLiteral(
            Value::Double(static_cast<double>(Pick(100)) * 0.25));
      case 2: {
        static const char* const kStrings[] = {"cpu", "mem", "h0", "h1",
                                               "edge", "core"};
        return MakeLiteral(Value::String(kStrings[Pick(6)]));
      }
      default:
        return MakeLiteral(Value::Null());
    }
  }

  /// Primary-level expression (never starts with NOT or a bare '-').
  ExprPtr Primary(int depth) {
    if (depth <= 0 || Chance(40)) {
      return Chance(50) ? Literal() : MakeColumnRef("", Identifier());
    }
    switch (Pick(4)) {
      case 0: {  // scalar function call
        std::vector<ExprPtr> args;
        args.push_back(Arith(depth - 1));
        args.push_back(Arith(depth - 1));
        return MakeFunction(Chance(50) ? "CONCAT" : "GREATEST",
                            std::move(args));
      }
      case 1:  // map subscript m['k']
        return MakeSubscript(MakeColumnRef("", "m"),
                             MakeLiteral(Value::String("k")));
      case 2: {  // CASE WHEN ... THEN ... [ELSE ...] END
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::kCase;
        const size_t branches = 1 + Pick(2);
        for (size_t i = 0; i < branches; ++i) {
          CaseBranch b;
          b.condition = Bool(depth - 1);
          b.result = Arith(depth - 1);
          e->case_branches.push_back(std::move(b));
        }
        if (Chance(60)) e->case_else = Arith(depth - 1);
        return e;
      }
      default:
        return MakeColumnRef(Chance(30) ? TableName() : "", Identifier());
    }
  }

  /// Arithmetic expression: additive/multiplicative over unary/postfix,
  /// mirroring the parser's precedence exactly.
  ExprPtr Arith(int depth) {
    ExprPtr e = Chance(25) && depth > 0
                    ? MakeUnary(UnaryOp::kNegate, Primary(depth))
                    : Primary(depth);
    const size_t ops = depth > 0 ? Pick(3) : 0;
    for (size_t i = 0; i < ops; ++i) {
      static const BinaryOp kOps[] = {BinaryOp::kAdd, BinaryOp::kSub,
                                      BinaryOp::kMul, BinaryOp::kDiv,
                                      BinaryOp::kMod};
      e = MakeBinary(kOps[Pick(5)], std::move(e), Primary(depth - 1));
    }
    return e;
  }

  ExprPtr Aggregate(int depth) {
    static const char* const kAggs[] = {"COUNT", "SUM", "AVG",
                                        "MIN", "MAX", "STDDEV"};
    const char* name = kAggs[Pick(6)];
    std::vector<ExprPtr> args;
    if (std::string(name) == "COUNT" && Chance(40)) {
      args.push_back(MakeStar());
    } else {
      args.push_back(Arith(depth > 0 ? depth - 1 : 0));
    }
    return MakeFunction(name, std::move(args));
  }

  /// Comparison-level boolean atom.
  ExprPtr BoolAtom(int depth) {
    ExprPtr lhs = Arith(depth);
    switch (Pick(5)) {
      case 0: {
        static const BinaryOp kCmps[] = {BinaryOp::kEq, BinaryOp::kNe,
                                         BinaryOp::kLt, BinaryOp::kLe,
                                         BinaryOp::kGt, BinaryOp::kGe};
        return MakeBinary(kCmps[Pick(6)], std::move(lhs), Arith(depth));
      }
      case 1: {  // [NOT] BETWEEN
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::kBetween;
        e->negated = Chance(25);
        e->left = std::move(lhs);
        e->between_lo = Arith(depth > 0 ? depth - 1 : 0);
        e->between_hi = Arith(depth > 0 ? depth - 1 : 0);
        return e;
      }
      case 2: {  // [NOT] IN (literals)
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::kInList;
        e->negated = Chance(25);
        e->left = std::move(lhs);
        const size_t n = 1 + Pick(3);
        for (size_t i = 0; i < n; ++i) e->list.push_back(Literal());
        return e;
      }
      case 3: {  // IS [NOT] NULL
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::kIsNull;
        e->negated = Chance(50);
        e->left = std::move(lhs);
        return e;
      }
      default:  // LIKE
        return MakeBinary(BinaryOp::kLike, std::move(lhs),
                          MakeLiteral(Value::String(Chance(50) ? "c%"
                                                               : "h_")));
    }
  }

  /// Boolean expression: OR of ANDs of optionally negated atoms.
  ExprPtr Bool(int depth) {
    auto term = [&] {
      ExprPtr atom = BoolAtom(depth > 0 ? depth - 1 : 0);
      return Chance(15) ? MakeUnary(UnaryOp::kNot, std::move(atom))
                        : std::move(atom);
    };
    ExprPtr e = term();
    const size_t ops = depth > 0 ? Pick(3) : 0;
    for (size_t i = 0; i < ops; ++i) {
      e = MakeBinary(Chance(70) ? BinaryOp::kAnd : BinaryOp::kOr,
                     std::move(e), term());
    }
    return e;
  }

 private:
  std::mt19937_64 rng_;
};

}  // namespace explainit::sql
