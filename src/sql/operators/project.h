// Project: evaluates the select list over batches. `SELECT *` columns
// pass through as borrowed (zero-copy) columns; computed items become
// owned columns. Items containing LAG materialise the whole input first.
// When ORDER BY may reference unprojected columns, the operator also
// retains its input rows (1:1 with the output) for the sort to consult.
//
// With a parallel ExecContext the projection is morsel-parallel: the
// input is materialised once (borrowed from an already-materialised
// child when possible), row shards evaluate the computed columns across
// the pool, and per-shard batches are emitted in shard order with
// pass-through columns still borrowed from the source table.
#pragma once

#include "sql/bound_expr.h"
#include "sql/operators/operator.h"

namespace explainit::sql {

class ProjectOperator : public Operator {
 public:
  ProjectOperator(std::unique_ptr<Operator> input,
                  const SelectStatement* stmt,
                  const FunctionRegistry* functions, bool retain_input,
                  const ExecContext* ctx = nullptr);

  const table::Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "Project"; }
  bool StableBatches() const override { return materialize_ || parallel_; }

  /// The retained pre-projection rows (valid after execution, only when
  /// constructed with retain_input). Rows map 1:1 to output rows.
  const table::Table* retained_input() const override {
    return retain_input_ ? retained_ptr_ : nullptr;
  }

 protected:
  Status OpenImpl() override;
  Result<table::ColumnBatch> NextImpl(bool* eof) override;

 private:
  struct OutputColumn {
    const Expr* expr = nullptr;  // null = star pass-through
    size_t index = 0;  // input column (star) or bound item (computed)
  };

  /// Projects rows [begin, end) of `input`; star columns borrow from it.
  Result<table::ColumnBatch> ProjectRows(const table::ColumnBatch& input,
                                         size_t begin, size_t end);
  Result<table::ColumnBatch> ParallelNext(bool* eof);

  Operator* input_;
  const SelectStatement* stmt_;
  const FunctionRegistry* functions_;
  bool retain_input_;
  const ExecContext* ctx_;
  bool materialize_ = false;  // LAG in a select item
  bool parallel_ = false;     // sharded morsel path

  table::Schema schema_;
  std::vector<OutputColumn> columns_;
  SchemaBoundExprs bound_;  // computed items, per input schema
  table::ColumnBatch current_input_;  // keeps pass-through storage alive
  table::Table materialized_;
  table::Table retained_;
  const table::Table* retained_ptr_ = &retained_;
  bool done_ = false;

  std::vector<table::ColumnBatch> shard_output_;
  size_t emit_pos_ = 0;
};

}  // namespace explainit::sql
