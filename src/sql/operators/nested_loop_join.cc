#include "sql/operators/nested_loop_join.h"

namespace explainit::sql {

using table::ColumnBatch;
using table::Field;
using table::Schema;
using table::Value;

NestedLoopJoinOperator::NestedLoopJoinOperator(
    std::unique_ptr<Operator> left, std::unique_ptr<Operator> right,
    const JoinClause* join, const FunctionRegistry* functions)
    : join_(join), functions_(functions) {
  left_ = AddChild(std::move(left));
  right_ = AddChild(std::move(right));
}

Status NestedLoopJoinOperator::OpenImpl() {
  EXPLAINIT_RETURN_IF_ERROR(left_->Open());
  EXPLAINIT_RETURN_IF_ERROR(right_->Open());
  const Schema& ls = left_->output_schema();
  const Schema& rs = right_->output_schema();
  left_width_ = ls.num_fields();
  right_width_ = rs.num_fields();
  for (const Field& f : ls.fields()) schema_.AddField(f);
  for (const Field& f : rs.fields()) schema_.AddField(f);
  if (join_->condition != nullptr) {
    condition_.push_back(
        BoundExpr::Bind(*join_->condition, schema_, *functions_));
  }
  right_table_ = table::Table(rs);
  EXPLAINIT_RETURN_IF_ERROR(Drain(right_, &right_table_));
  right_matched_.assign(right_table_.num_rows(), false);
  stats_.detail = "right rows=" + std::to_string(right_table_.num_rows());
  return Status::OK();
}

Result<ColumnBatch> NestedLoopJoinOperator::FinishFullOuter(bool* eof) {
  outer_emitted_ = true;
  std::vector<std::vector<Value>> cols(schema_.num_fields());
  size_t rows = 0;
  for (size_t j = 0; j < right_table_.num_rows(); ++j) {
    if (right_matched_[j]) continue;
    for (size_t c = 0; c < left_width_; ++c) cols[c].push_back(Value::Null());
    for (size_t c = 0; c < right_width_; ++c) {
      cols[left_width_ + c].push_back(right_table_.At(j, c));
    }
    ++rows;
  }
  ColumnBatch out(&schema_, rows);
  for (auto& col : cols) out.AddOwnedColumn(std::move(col));
  *eof = false;
  return out;
}

Result<ColumnBatch> NestedLoopJoinOperator::NextImpl(bool* eof) {
  while (true) {
    if (!left_active_) {
      if (left_done_) {
        if (join_->type == JoinType::kFullOuter && !outer_emitted_) {
          return FinishFullOuter(eof);
        }
        *eof = true;
        return ColumnBatch{};
      }
      bool child_eof = false;
      EXPLAINIT_ASSIGN_OR_RETURN(ColumnBatch batch, left_->Next(&child_eof));
      if (child_eof) {
        left_done_ = true;
        continue;
      }
      if (batch.num_rows() == 0) continue;
      left_batch_ = std::move(batch);
      left_row_ = 0;
      left_active_ = true;
    }

    // One left row per output batch: pair it with every right row.
    const size_t i = left_row_;
    const size_t rn = right_table_.num_rows();
    std::vector<std::vector<Value>> cand(schema_.num_fields());
    for (size_t c = 0; c < left_width_; ++c) {
      cand[c].assign(rn, left_batch_.At(i, c));
    }
    for (size_t c = 0; c < right_width_; ++c) {
      cand[left_width_ + c].reserve(rn);
      for (size_t j = 0; j < rn; ++j) {
        cand[left_width_ + c].push_back(right_table_.At(j, c));
      }
    }
    ColumnBatch cand_batch(&schema_, rn);
    for (auto& col : cand) cand_batch.AddOwnedColumn(std::move(col));

    // No condition (CROSS JOIN) selects every pair.
    std::vector<uint32_t> kept;
    EXPLAINIT_RETURN_IF_ERROR(
        SelectRows(condition_, cand_batch, 0, rn, &kept));
    const bool matched = !kept.empty();
    for (const uint32_t j : kept) right_matched_[j] = true;
    ColumnBatch out = cand_batch.Gather(kept);
    out.set_schema(&schema_);
    if (!matched && (join_->type == JoinType::kLeft ||
                     join_->type == JoinType::kFullOuter)) {
      std::vector<std::vector<Value>> pad(schema_.num_fields());
      for (size_t c = 0; c < left_width_; ++c) {
        pad[c].push_back(left_batch_.At(i, c));
      }
      for (size_t c = 0; c < right_width_; ++c) {
        pad[left_width_ + c].push_back(Value::Null());
      }
      ColumnBatch padded(&schema_, 1);
      for (auto& col : pad) padded.AddOwnedColumn(std::move(col));
      out = std::move(padded);
    }

    ++left_row_;
    if (left_row_ >= left_batch_.num_rows()) left_active_ = false;
    if (out.num_rows() == 0) continue;
    *eof = false;
    return out;
  }
}

}  // namespace explainit::sql
