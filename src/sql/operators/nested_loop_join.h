// NestedLoopJoin: the fallback for non-equi conditions (and CROSS JOIN).
// The right side is materialised; the left streams through, one probe row
// per output batch (bounding candidate memory to |right| rows), with the
// condition evaluated vectorised over the candidate batch.
#pragma once

#include <vector>

#include "sql/bound_expr.h"
#include "sql/operators/operator.h"

namespace explainit::sql {

class NestedLoopJoinOperator : public Operator {
 public:
  NestedLoopJoinOperator(std::unique_ptr<Operator> left,
                         std::unique_ptr<Operator> right,
                         const JoinClause* join,
                         const FunctionRegistry* functions);

  const table::Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "NestedLoopJoin"; }
  void AccumulateExecStats(ExecStats* stats) const override {
    if (join_->type != JoinType::kCross) ++stats->nested_loop_joins;
  }

 protected:
  Status OpenImpl() override;
  Result<table::ColumnBatch> NextImpl(bool* eof) override;

 private:
  Result<table::ColumnBatch> FinishFullOuter(bool* eof);

  Operator* left_;
  Operator* right_;
  const JoinClause* join_;
  const FunctionRegistry* functions_;

  table::Schema schema_;
  std::vector<BoundExpr> condition_;  // bound to schema_; empty for CROSS
  table::Table right_table_;
  std::vector<bool> right_matched_;
  size_t left_width_ = 0;
  size_t right_width_ = 0;

  table::ColumnBatch left_batch_;
  size_t left_row_ = 0;
  bool left_active_ = false;
  bool left_done_ = false;
  bool outer_emitted_ = false;
};

}  // namespace explainit::sql
