// Filter: vectorised predicate evaluation over batches, compacting the
// survivors. Each child batch is one morsel of the shared round loop
// (MorselRounds): a round evaluates up to EffectiveParallelism(ctx)
// batches across the pool and emits their survivors in pull order —
// all-pass batches unchanged, partial ones as owned compactions — so the
// output is the same batch sequence at every parallelism level.
// Predicates containing LAG (which reads neighbouring rows) evaluate over
// the whole drained input as one morsel.
#pragma once

#include "sql/bound_expr.h"
#include "sql/operators/operator.h"

namespace explainit::sql {

class FilterOperator : public Operator {
 public:
  /// `predicate` is owned (the planner hands a clone or a rebuilt
  /// residual after pushdown). `ctx` may be null (one shard).
  FilterOperator(std::unique_ptr<Operator> input, ExprPtr predicate,
                 const FunctionRegistry* functions,
                 const ExecContext* ctx = nullptr);

  const table::Schema& output_schema() const override {
    return input_->output_schema();
  }
  std::string name() const override { return "Filter"; }

 protected:
  Status OpenImpl() override;
  Result<table::ColumnBatch> NextImpl(bool* eof) override;

 private:
  /// The survivors of one input batch.
  Result<table::ColumnBatch> Select(table::ColumnBatch batch);

  Operator* input_;
  ExprPtr predicate_;
  const FunctionRegistry* functions_;
  SchemaBoundExprs bound_;  // the predicate, per input schema
  MorselRounds rounds_;
};

}  // namespace explainit::sql
