// Project: evaluates the select list over batches. `SELECT *` columns
// pass through as borrowed (zero-copy) columns — the output batch takes
// over its input batch's owned storage, so they stay valid for the life
// of the tree — and computed items become owned columns. Each child batch
// is one morsel of the shared round loop (MorselRounds), so a round
// projects up to EffectiveParallelism(ctx) batches across the pool and
// emits them in pull order. Items containing LAG project the whole
// drained input as one morsel. When ORDER BY may reference unprojected
// columns, the operator also retains its input rows (1:1 with the output)
// for the sort to consult.
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

  /// The retained pre-projection rows (valid after execution, only when
  /// constructed with retain_input). Rows map 1:1 to output rows.
  const table::Table* retained_input() const override {
    if (!retain_input_) return nullptr;
    return lag_ ? &rounds_.drained() : &retained_;
  }

 protected:
  Status OpenImpl() override;
  Result<table::ColumnBatch> NextImpl(bool* eof) override;

 private:
  struct OutputColumn {
    const Expr* expr = nullptr;  // null = star pass-through
    size_t index = 0;  // input column (star) or bound item (computed)
  };

  /// Projects every row of `input`; star columns borrow from it.
  Result<table::ColumnBatch> ProjectBatch(table::ColumnBatch input);

  Operator* input_;
  const SelectStatement* stmt_;
  const FunctionRegistry* functions_;
  bool retain_input_;
  bool lag_;  // LAG in a select item: one whole-input morsel

  table::Schema schema_;
  std::vector<OutputColumn> columns_;
  SchemaBoundExprs bound_;  // computed items, per input schema
  table::Table retained_;
  MorselRounds rounds_;
};

}  // namespace explainit::sql
