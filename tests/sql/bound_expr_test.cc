// Differential test of the bound expression evaluator against the
// reference sql::Evaluator.
//
// Thousands of random expressions (the fuzz suites' generator) evaluate
// row by row over a fixture shaped like the differential corpus's tables.
// Bound evaluation must return the same Value, or the same Status code
// and message, as Evaluator::Eval on every row; the batch entry point
// must stop at the same first error. Group-context binding is checked
// against the seed interpreter's EvalInGroup. Fixed cases pin down the
// deferred bind failures, LIKE and LAG.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "bench/seed_executor.h"
#include "sql/bound_expr.h"
#include "sql/evaluator.h"
#include "sql/parser.h"
#include "tests/sql/ast_generator.h"

namespace explainit::sql {
namespace {

using table::ColumnBatch;
using table::DataType;
using table::Table;
using table::Value;

/// Columns the generator names (a, b, c, d, m, x), with the differential
/// fixtures' values: dims-like `b = 0.5 + i`, nums-like `d` in {1.0,
/// NULL, 3.0}, host strings `h0…`. v0, v1 and y resolve nowhere.
Table Fixture() {
  Table t(table::Schema{{{"a", DataType::kInt64},
                         {"b", DataType::kDouble},
                         {"c", DataType::kString},
                         {"d", DataType::kDouble},
                         {"m", DataType::kMap},
                         {"x", DataType::kTimestamp}}});
  for (int i = 0; i < 12; ++i) {
    table::ValueMap m;
    m["k"] = Value::String(i % 2 == 0 ? "even" : "odd");
    const Value d = i % 3 == 0   ? Value::Double(1.0)
                    : i % 3 == 1 ? Value::Null()
                                 : Value::Double(3.0);
    t.AppendRow({Value::Int(i), Value::Double(0.5 + i),
                 Value::String(i % 4 == 0 ? "cpu" : "h" + std::to_string(i)),
                 d, i == 5 ? Value::Null() : Value::Map(std::move(m)),
                 Value::Timestamp(i * 60)});
  }
  return t;
}

/// Exact value identity: same type, bit-identical doubles (NaN matches
/// NaN), equal payloads otherwise.
bool SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case DataType::kNull:
      return true;
    case DataType::kDouble: {
      const double x = a.AsDouble(), y = b.AsDouble();
      return (std::isnan(x) && std::isnan(y)) ||
             std::memcmp(&x, &y, sizeof(x)) == 0;
    }
    default:
      return a.ToString() == b.ToString();
  }
}

void ExpectSame(const Result<Value>& want, const Result<Value>& got,
                const std::string& where) {
  ASSERT_EQ(want.ok(), got.ok())
      << where << ": "
      << (want.ok() ? got.status().ToString() : want.status().ToString());
  if (!want.ok()) {
    EXPECT_EQ(want.status().code(), got.status().code()) << where;
    EXPECT_EQ(want.status().message(), got.status().message()) << where;
    return;
  }
  EXPECT_TRUE(SameValue(*want, *got))
      << where << ": " << want->ToString() << " vs " << got->ToString();
}

class BoundExprTest : public ::testing::Test {
 protected:
  BoundExprTest()
      : table_(Fixture()),
        view_(ColumnBatch::View(table_, 0, table_.num_rows())),
        functions_(FunctionRegistry::Builtins()) {}

  /// Compares bound against reference evaluation on every row, and the
  /// batch entry point against the first error in row order.
  void CheckScalar(const Expr& e) {
    const std::string text = e.ToString();
    const Evaluator ev(&table_, &functions_);
    const BoundExpr bound = BoundExpr::Bind(e, table_.schema(), functions_);
    Status first_error;
    std::vector<Value> want_all;
    for (size_t r = 0; r < table_.num_rows(); ++r) {
      const Result<Value> want = ev.Eval(e, r);
      ExpectSame(want, bound.EvalRow(view_, r),
                 text + " @row " + std::to_string(r));
      if (want.ok()) {
        want_all.push_back(*want);
      } else if (first_error.ok()) {
        first_error = want.status();
      }
    }
    std::vector<Value> got_all;
    const Status batch = bound.Eval(view_, 0, view_.num_rows(), &got_all);
    EXPECT_EQ(first_error.ToString(), batch.ToString()) << text;
    if (batch.ok()) {
      ASSERT_EQ(want_all.size(), got_all.size()) << text;
      for (size_t r = 0; r < got_all.size(); ++r) {
        EXPECT_TRUE(SameValue(want_all[r], got_all[r])) << text;
      }
    }
  }

  Table table_;
  ColumnBatch view_;
  FunctionRegistry functions_;
};

TEST_F(BoundExprTest, RandomExpressionsMatchEvaluator) {
  AstGenerator gen(0xB0C7D);
  for (int i = 0; i < 3000; ++i) {
    const ExprPtr e = i % 2 == 0 ? gen.Bool(3) : gen.Arith(3);
    CheckScalar(*e);
    if (HasFatalFailure()) return;
  }
}

/// Collects the topmost aggregate calls, in HashAggregate's order.
void TopAggregates(const Expr& e, std::vector<const Expr*>* out) {
  if (e.kind == ExprKind::kFunction && IsAggregateFunction(e.function_name)) {
    out->push_back(&e);
    return;
  }
  auto walk = [&](const ExprPtr& c) {
    if (c != nullptr) TopAggregates(*c, out);
  };
  walk(e.left);
  walk(e.right);
  walk(e.between_lo);
  walk(e.between_hi);
  walk(e.case_else);
  for (const ExprPtr& a : e.args) walk(a);
  for (const ExprPtr& a : e.list) walk(a);
  for (const CaseBranch& b : e.case_branches) {
    walk(b.condition);
    walk(b.result);
  }
}

TEST_F(BoundExprTest, RandomGroupExpressionsMatchSeedInterpreter) {
  AstGenerator gen(0x6A0B);
  const Evaluator ev(&table_, &functions_);
  const std::vector<std::vector<size_t>> groups = {
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, {1, 4, 7}, {5}, {2, 3}};
  static const BinaryOp kOps[] = {BinaryOp::kAdd, BinaryOp::kMul,
                                  BinaryOp::kDiv, BinaryOp::kGt,
                                  BinaryOp::kAnd, BinaryOp::kOr};
  for (int i = 0; i < 1500; ++i) {
    // Aggregates mixed with row-level subtrees under one operator.
    ExprPtr agg = gen.Aggregate(2);
    ExprPtr other = i % 3 == 0 ? gen.Bool(2) : gen.Arith(2);
    if (i % 2 == 1) std::swap(agg, other);
    ExprPtr e;
    if (i % 5 == 4) {
      // CASE mixing both: every branch and the ELSE evaluate up front.
      e = std::make_unique<Expr>();
      e->kind = ExprKind::kCase;
      e->case_branches.push_back(CaseBranch{gen.Bool(1), std::move(agg)});
      e->case_else = std::move(other);
    } else {
      e = MakeBinary(kOps[(i / 2) % 6], std::move(agg), std::move(other));
    }
    const std::string text = e->ToString();
    std::vector<const Expr*> aggs;
    TopAggregates(*e, &aggs);
    const BoundExpr bound =
        BoundExpr::BindGroup(*e, table_.schema(), functions_, aggs);
    for (const std::vector<size_t>& rows : groups) {
      std::vector<Result<Value>> slots;
      for (const Expr* a : aggs) {
        slots.push_back(bench::seed_detail::ComputeAggregate(*a, ev, rows));
      }
      ExpectSame(bench::seed_detail::EvalInGroup(*e, ev, rows),
                 bound.EvalRow(view_, rows[0], slots.data()), text);
      if (HasFatalFailure()) return;
    }
  }
}

ExprPtr ParseOrDie(const std::string& text) {
  auto e = ParseExpression(text);
  EXPECT_TRUE(e.ok()) << e.status().ToString();
  return std::move(e).value();
}

TEST_F(BoundExprTest, GroupContextEvaluatesEveryChildFirst) {
  const Evaluator ev(&table_, &functions_);
  const std::vector<size_t> rows = {0, 1, 2};
  for (const char* text :
       {"CASE WHEN SUM(b) > 0 THEN nope1 ELSE nope2 END",
        "CASE WHEN SUM(b) > 0 THEN b ELSE nope2 END",
        "COUNT(*) > 100 AND nope = 1", "NOFN(MAX(b), nope)",
        "LAG(MAX(b), 1)", "LAG(MAX(b), 0)", "m[MIN(c)]",
        "MIN(b) BETWEEN nope AND 2", "AVG(b) IN (1, nope)"}) {
    const ExprPtr e = ParseOrDie(text);
    std::vector<const Expr*> aggs;
    TopAggregates(*e, &aggs);
    const BoundExpr bound =
        BoundExpr::BindGroup(*e, table_.schema(), functions_, aggs);
    std::vector<Result<Value>> slots;
    for (const Expr* a : aggs) {
      slots.push_back(bench::seed_detail::ComputeAggregate(*a, ev, rows));
    }
    ExpectSame(bench::seed_detail::EvalInGroup(*e, ev, rows),
               bound.EvalRow(view_, rows[0], slots.data()), text);
  }
}

TEST_F(BoundExprTest, UnknownColumnOnEmptyInputIsNoError) {
  const Table empty(table_.schema());
  const ColumnBatch view = ColumnBatch::View(empty, 0, 0);
  const ExprPtr e = ParseOrDie("nope + 1 > 2");
  const BoundExpr bound = BoundExpr::Bind(*e, empty.schema(), functions_);
  std::vector<Value> out;
  EXPECT_TRUE(bound.Eval(view, 0, 0, &out).ok());
  std::vector<BoundExpr> predicate;
  predicate.push_back(BoundExpr::Bind(*e, empty.schema(), functions_));
  std::vector<uint32_t> selected;
  EXPECT_TRUE(SelectRows(predicate, view, 0, 0, &selected).ok());
  // The failure surfaces, with the Evaluator's message, once a row runs.
  const Result<Value> r = bound.EvalRow(view_, 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "column not found: nope");
}

TEST_F(BoundExprTest, UnknownNamesInUntakenBranchesAreNoError) {
  CheckScalar(*ParseOrDie("CASE WHEN a >= 0 THEN b ELSE nope END"));
  CheckScalar(*ParseOrDie("CASE WHEN a < 0 THEN NOFN(b) ELSE c END"));
  CheckScalar(*ParseOrDie("a < 0 AND SUM(b) > 1"));
  CheckScalar(*ParseOrDie("a >= 0 OR nope = 1"));
  const ExprPtr e = ParseOrDie("CASE WHEN a >= 0 THEN b ELSE nope END");
  const BoundExpr bound = BoundExpr::Bind(*e, table_.schema(), functions_);
  std::vector<Value> out;
  EXPECT_TRUE(bound.Eval(view_, 0, view_.num_rows(), &out).ok());
  EXPECT_EQ(out.size(), table_.num_rows());
}

TEST_F(BoundExprTest, LikeMatchesTheSameRows) {
  for (const char* text :
       {"c LIKE 'h%'", "c LIKE 'h_'", "c LIKE '%1%'", "c LIKE '_p_'",
        "c LIKE 'cpu'", "c LIKE '%'", "c LIKE ''", "c LIKE NULL",
        "a LIKE '1%'", "m['k'] LIKE '%ve%'", "c LIKE CONCAT('h', '_')",
        "c LIKE c"}) {
    CheckScalar(*ParseOrDie(text));
  }
  const ExprPtr e = ParseOrDie("c LIKE 'h_'");
  std::vector<BoundExpr> pred;
  pred.push_back(BoundExpr::Bind(*e, table_.schema(), functions_));
  std::vector<uint32_t> selected;
  ASSERT_TRUE(SelectRows(pred, view_, 0, view_.num_rows(), &selected).ok());
  EXPECT_EQ(selected, (std::vector<uint32_t>{1, 2, 3, 5, 6, 7, 9}));
}

TEST_F(BoundExprTest, LagAtTheEdgesOfABatch) {
  for (const char* text : {"LAG(b)", "LAG(b, 2)", "LAG(b, 0)", "LAG(b, -1)",
                           "LAG(b, 12)", "LAG(b, 11)", "b - LAG(b, 1)",
                           "LAG(LAG(a, 1), 1)", "LAG()", "LAG(a, 1, 2)"}) {
    CheckScalar(*ParseOrDie(text));
  }
  // A batch view starting mid-table: LAG sees only the batch's rows.
  const ColumnBatch tail = ColumnBatch::View(table_, 8, 4);
  const ExprPtr e = ParseOrDie("LAG(a, 1)");
  const BoundExpr bound = BoundExpr::Bind(*e, table_.schema(), functions_);
  std::vector<Value> out;
  ASSERT_TRUE(bound.Eval(tail, 0, tail.num_rows(), &out).ok());
  ASSERT_EQ(out.size(), 4u);
  EXPECT_TRUE(out[0].is_null());
  EXPECT_EQ(out[1].AsInt(), 8);
  EXPECT_EQ(out[3].AsInt(), 10);
}

TEST_F(BoundExprTest, ColumnsAndConstantKeySubscriptsAreBorrowed) {
  const ExprPtr col = ParseOrDie("c");
  const ExprPtr key = ParseOrDie("m['k']");
  const BoundExpr bc = BoundExpr::Bind(*col, table_.schema(), functions_);
  const BoundExpr bk = BoundExpr::Bind(*key, table_.schema(), functions_);
  Value tmp;
  const Value* v = nullptr;
  ASSERT_TRUE(bc.EvalRef(view_, 3, &tmp, &v).ok());
  EXPECT_EQ(v, &table_.At(3, 2));
  ASSERT_TRUE(bk.EvalRef(view_, 3, &tmp, &v).ok());
  EXPECT_EQ(v, &table_.At(3, 4).AsMap()->at("k"));
}

TEST_F(BoundExprTest, RecordsReadColumnsAndRowLocality) {
  struct Case {
    const char* text;
    std::vector<size_t> columns;
    bool row_local;
    bool is_column;
  };
  for (const Case& c : std::vector<Case>{
           {"c", {2}, true, true},
           {"CONCAT(c, '@', m['k'])", {2, 4}, true, false},
           {"a + a * b", {0, 1}, true, false},
           {"1 + 2", {}, true, false},
           {"b - LAG(b)", {1}, false, false},
       }) {
    SCOPED_TRACE(c.text);
    const ExprPtr e = ParseOrDie(c.text);
    const BoundExpr bound = BoundExpr::Bind(*e, table_.schema(), functions_);
    EXPECT_EQ(bound.columns(), c.columns);
    EXPECT_EQ(bound.row_local(), c.row_local);
    EXPECT_EQ(bound.is_column(), c.is_column);
    EXPECT_EQ(RunMemo(bound).enabled(), c.row_local && !c.is_column);
  }
}

TEST_F(BoundExprTest, RunMemoHitsOnlyWhereTheResultRepeats) {
  // Every fixture row three times over (copies share their map objects),
  // then once more with fresh but equal maps: a memo hit must always
  // reproduce the row's own result.
  Table runs(table_.schema());
  for (size_t r = 0; r < table_.num_rows(); ++r) {
    for (int k = 0; k < 3; ++k) runs.AppendRow(table_.Row(r));
  }
  for (size_t r = 0; r < table_.num_rows(); ++r) {
    std::vector<Value> row = table_.Row(r);
    if (const table::ValueMap* m = row[4].AsMap(); m != nullptr) {
      row[4] = Value::Map(*m);
    }
    runs.AppendRow(std::move(row));
  }
  const ColumnBatch view = ColumnBatch::View(runs, 0, runs.num_rows());
  AstGenerator gen(0x3E30);
  size_t hits = 0;
  for (int i = 0; i < 2000; ++i) {
    const ExprPtr e = i % 2 == 0 ? gen.Bool(3) : gen.Arith(3);
    const BoundExpr bound = BoundExpr::Bind(*e, runs.schema(), functions_);
    RunMemo memo(bound);
    Value cached;
    for (size_t r = 0; r < runs.num_rows(); ++r) {
      const Result<Value> got = bound.EvalRow(view, r);
      if (memo.Hit(view, r)) {
        ++hits;
        ExpectSame(got, cached, e->ToString() + " @row " + std::to_string(r));
        continue;
      }
      if (got.ok()) {
        cached = *got;
        memo.Remember(r);
      }
    }
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(hits, 10000u);
}

}  // namespace
}  // namespace explainit::sql
