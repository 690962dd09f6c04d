// Filter: vectorised predicate evaluation over batches, compacting the
// survivors. Predicates containing LAG (which reads neighbouring rows)
// first materialise the whole input so the window sees the full relation.
//
// With a parallel ExecContext the filter becomes morsel-parallel: the
// input is materialised once (borrowing the child's backing table when it
// is already materialised, e.g. a catalog scan), contiguous row shards
// are evaluated across the pool, and per-shard survivors are emitted in
// shard order — all-pass shards as zero-copy views, partial shards as
// owned compactions — so output order matches the serial pipeline.
#pragma once

#include "sql/bound_expr.h"
#include "sql/operators/operator.h"

namespace explainit::sql {

class FilterOperator : public Operator {
 public:
  /// `predicate` is owned (the planner hands a clone or a rebuilt
  /// residual after pushdown). `ctx` may be null (serial).
  FilterOperator(std::unique_ptr<Operator> input, ExprPtr predicate,
                 const FunctionRegistry* functions,
                 const ExecContext* ctx = nullptr);

  const table::Schema& output_schema() const override {
    return input_->output_schema();
  }
  std::string name() const override { return "Filter"; }
  bool StableBatches() const override {
    return materialize_ || parallel_ || input_->StableBatches();
  }

 protected:
  Status OpenImpl() override;
  Result<table::ColumnBatch> NextImpl(bool* eof) override;

 private:
  Result<table::ColumnBatch> ParallelNext(bool* eof);
  /// The rows of [begin, end) that pass the predicate.
  Result<std::vector<uint32_t>> Select(const table::ColumnBatch& batch,
                                       size_t begin, size_t end);

  Operator* input_;
  ExprPtr predicate_;
  const FunctionRegistry* functions_;
  const ExecContext* ctx_;
  bool materialize_ = false;  // LAG present: evaluate over the whole input
  bool parallel_ = false;     // sharded morsel path
  SchemaBoundExprs bound_;    // the predicate, per input schema

  table::Table materialized_;
  bool materialized_done_ = false;

  // Parallel path state: the morsel source (borrowed child table or the
  // drained copy), per-shard survivor batches, and the emit cursor.
  table::Table drained_;
  std::vector<table::ColumnBatch> shard_output_;
  size_t emit_pos_ = 0;
  bool sharded_done_ = false;
};

}  // namespace explainit::sql
