// Bound expressions: an Expr tree resolved once against an input schema
// and then evaluated many times, the only evaluator the physical
// operators call.
//
// Binding resolves column references to indices, functions to ScalarFn
// pointers, translates constant LIKE patterns once, turns constant-key
// subscripts (`tag['host']`) into one map lookup, and folds constant
// subtrees. Function calls are never folded: a registered function is
// pure (functions.h) but may be slow, so it runs only when evaluation
// reaches it. The binder also records which input columns an expression
// reads, so callers can reuse a result across rows with identical cells
// (RunMemo). Binding never fails: an unknown or
// ambiguous column, an unknown function or an aggregate in a scalar
// context binds to a node that returns the exact Status sql::Evaluator
// reports, when (and only when) evaluation reaches it — so empty inputs
// and untaken CASE branches behave as before.
//
// Evaluation is per row inside the batch loop, which keeps AND/OR/CASE
// short-circuiting and "first error in row order" identical to
// Evaluator::Eval. Column references and constant-key subscripts return
// borrowed cells instead of copies.
//
// Group context (BindGroup) follows the HashAggregate semantics: the
// topmost aggregate calls read slot i of the group, subtrees without
// aggregates evaluate at the group's representative row, and a node
// that mixes the two evaluates all of its children first (left, right,
// BETWEEN bounds, ELSE, arguments, IN list, CASE branches) before
// applying its operator to their values.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "sql/ast.h"
#include "sql/functions.h"
#include "table/column_batch.h"

namespace explainit::sql {

/// Resolves a column reference against `schema`:
///   - qualified a.b: field "a.b", else field "b" (single-relation case);
///   - unqualified b: field "b", else a unique field ending in ".b".
Result<size_t> ResolveColumn(const table::Schema& schema, const Expr& expr);

/// Translates a SQL LIKE pattern ('%', '_') into GlobMatch syntax.
std::string LikeToGlob(const std::string& pattern);

class BoundExpr {
 public:
  BoundExpr();
  ~BoundExpr();
  BoundExpr(BoundExpr&&) noexcept;
  BoundExpr& operator=(BoundExpr&&) noexcept;

  /// Binds `expr` in scalar context.
  static BoundExpr Bind(const Expr& expr, const table::Schema& schema,
                        const FunctionRegistry& functions);

  /// Binds a select item or HAVING in group context: each call in `aggs`
  /// (matched by node identity) reads slot i of the group.
  static BoundExpr BindGroup(const Expr& expr, const table::Schema& schema,
                             const FunctionRegistry& functions,
                             const std::vector<const Expr*>& aggs);

  /// Evaluates rows [begin, end) of `batch`, appending to `out`. Returns
  /// the first error in row order.
  Status Eval(const table::ColumnBatch& batch, size_t begin, size_t end,
              std::vector<table::Value>* out) const;

  /// Evaluates one row. `slots` holds the group's aggregate values (or
  /// their deferred errors) for group-bound expressions.
  Result<table::Value> EvalRow(
      const table::ColumnBatch& batch, size_t row,
      const Result<table::Value>* slots = nullptr) const;

  /// Evaluates one row without copying: *out points at a batch cell, a
  /// bound constant, or *tmp.
  Status EvalRef(const table::ColumnBatch& batch, size_t row,
                 table::Value* tmp, const table::Value** out) const;

  /// The input columns the expression reads, ascending and distinct.
  const std::vector<size_t>& columns() const { return columns_; }
  /// True when the value depends only on the evaluated row's cells in
  /// columns(): no LAG (which reads other rows) and no aggregate slot.
  bool row_local() const { return row_local_; }
  /// True for a bare column reference.
  bool is_column() const;

  struct Node;

 private:
  void Record();  // fills columns_ and row_local_ from root_

  std::unique_ptr<Node> root_;
  std::vector<size_t> columns_;
  bool row_local_ = true;
};

/// Reuse of an expression's result across a run of rows. A registered
/// ScalarFn is a pure mapping from argument values to a value
/// (functions.h), so a row-local expression yields the same result at
/// two rows whose cells in every column it reads are Identical. The memo
/// remembers the row the caller's cached result came from; Hit() costs
/// one comparison per referenced cell. It is per-caller state: never
/// share one across threads.
class RunMemo {
 public:
  /// A memo for `e`. It never hits for an expression that is not
  /// row-local, or for a bare column reference (cheaper to read again
  /// than to compare).
  explicit RunMemo(const BoundExpr& e)
      : columns_(e.row_local() && !e.is_column() ? &e.columns() : nullptr) {}

  bool enabled() const { return columns_ != nullptr; }
  /// True when row `row` of `batch` reads cells identical to the
  /// remembered row of the same batch.
  bool Hit(const table::ColumnBatch& batch, size_t row) const;
  void Remember(size_t row) {
    row_ = row;
    valid_ = columns_ != nullptr;
  }
  /// Drops the remembered row; call before moving to another batch.
  void Forget() { valid_ = false; }

 private:
  const std::vector<size_t>* columns_;
  size_t row_ = 0;
  bool valid_ = false;
};

/// Appends to *selected the rows in [begin, end) for which every
/// predicate is true (non-null and truthy). Per row the predicates run in
/// order and stop at the first that does not pass; the first error in row
/// order is returned.
Status SelectRows(const std::vector<BoundExpr>& predicates,
                  const table::ColumnBatch& batch, size_t begin, size_t end,
                  std::vector<uint32_t>* selected);

/// Expressions bound once per input schema object. A batch may carry a
/// different Schema object than the operator's input (a UnionAll branch,
/// a drained copy); each distinct object binds once, never per row.
/// For() is not thread-safe: bind every schema before fanning out.
class SchemaBoundExprs {
 public:
  SchemaBoundExprs() = default;
  SchemaBoundExprs(std::vector<const Expr*> exprs,
                   const FunctionRegistry* functions)
      : exprs_(std::move(exprs)), functions_(functions) {}

  const std::vector<BoundExpr>& For(const table::Schema& schema);

 private:
  struct Entry {
    const table::Schema* schema;
    std::vector<BoundExpr> bound;
  };
  std::vector<const Expr*> exprs_;
  const FunctionRegistry* functions_ = nullptr;
  std::vector<std::unique_ptr<Entry>> entries_;
};

}  // namespace explainit::sql
