#include "sql/operators/project.h"

namespace explainit::sql {

using table::ColumnBatch;
using table::DataType;
using table::Field;
using table::Value;

ProjectOperator::ProjectOperator(std::unique_ptr<Operator> input,
                                 const SelectStatement* stmt,
                                 const FunctionRegistry* functions,
                                 bool retain_input, const ExecContext* ctx)
    : stmt_(stmt),
      functions_(functions),
      retain_input_(retain_input),
      ctx_(ctx) {
  input_ = AddChild(std::move(input));
}

Status ProjectOperator::OpenImpl() {
  EXPLAINIT_RETURN_IF_ERROR(input_->Open());
  const table::Schema& in = input_->output_schema();
  std::vector<const Expr*> computed;
  for (const SelectItem& item : stmt_->items) {
    if (item.is_star) {
      for (size_t c = 0; c < in.num_fields(); ++c) {
        schema_.AddField(in.field(c));
        columns_.push_back(OutputColumn{nullptr, c});
      }
      continue;
    }
    schema_.AddField(Field{ItemName(item), DataType::kNull});
    columns_.push_back(OutputColumn{item.expr.get(), computed.size()});
    computed.push_back(item.expr.get());
    if (ContainsLag(*item.expr)) materialize_ = true;
  }
  bound_ = SchemaBoundExprs(std::move(computed), functions_);
  bound_.For(in);
  parallel_ = !materialize_ && ctx_ != nullptr && ctx_->parallel();
  // The parallel path may also drain into retained_ (its fallback morsel
  // source when the child's storage is not borrowable).
  if (retain_input_ || materialize_ || parallel_) {
    retained_ = table::Table(in);
  }
  return Status::OK();
}

Result<ColumnBatch> ProjectOperator::ProjectRows(const ColumnBatch& input,
                                                 size_t begin, size_t end) {
  const std::vector<BoundExpr>& items = bound_.For(input.schema());
  ColumnBatch out(&schema_, end - begin);
  for (const OutputColumn& col : columns_) {
    if (col.expr == nullptr) {
      out.AddBorrowedColumn(input.column(col.index) + begin);
      continue;
    }
    std::vector<Value> values;
    EXPLAINIT_RETURN_IF_ERROR(
        items[col.index].Eval(input, begin, end, &values));
    out.AddOwnedColumn(std::move(values));
  }
  return out;
}

Result<ColumnBatch> ProjectOperator::ParallelNext(bool* eof) {
  if (!done_) {
    done_ = true;
    // Morsel source: borrow the child's materialised table when its
    // schema object is the child's output schema, else drain once. The
    // source doubles as the retained pre-projection rows (1:1).
    const table::Table* source = input_->MaterializedTable();
    if (source == nullptr ||
        &source->schema() != &input_->output_schema()) {
      EXPLAINIT_RETURN_IF_ERROR(Drain(input_, &retained_));
      source = &retained_;
    }
    retained_ptr_ = source;
    const std::vector<RowRange> shards =
        ShardRows(source->num_rows(), ctx_->parallelism);
    const ColumnBatch view = ColumnBatch::View(*source, 0, source->num_rows());
    bound_.For(view.schema());  // bind before the fan-out
    std::vector<ColumnBatch> outputs(shards.size());
    EXPLAINIT_RETURN_IF_ERROR(RunSharded(
        ctx_, shards.size(), [&](size_t s) -> Status {
          EXPLAINIT_ASSIGN_OR_RETURN(
              outputs[s], ProjectRows(view, shards[s].begin, shards[s].end));
          return Status::OK();
        }));
    shard_output_ = std::move(outputs);
    stats_.detail = std::to_string(shards.size()) + " shards";
  }
  while (emit_pos_ < shard_output_.size()) {
    ColumnBatch batch = std::move(shard_output_[emit_pos_]);
    ++emit_pos_;
    if (batch.num_rows() == 0) continue;
    *eof = false;
    return batch;
  }
  *eof = true;
  return ColumnBatch{};
}

Result<ColumnBatch> ProjectOperator::NextImpl(bool* eof) {
  if (parallel_) return ParallelNext(eof);
  if (materialize_) {
    // LAG window: evaluate over the whole input at once. The retained
    // table doubles as the materialised input.
    if (done_) {
      *eof = true;
      return ColumnBatch{};
    }
    done_ = true;
    EXPLAINIT_RETURN_IF_ERROR(Drain(input_, &retained_));
    current_input_ = ColumnBatch::View(retained_, 0, retained_.num_rows());
    *eof = false;
    return ProjectRows(current_input_, 0, retained_.num_rows());
  }
  bool child_eof = false;
  EXPLAINIT_ASSIGN_OR_RETURN(ColumnBatch batch, input_->Next(&child_eof));
  if (child_eof) {
    *eof = true;
    return ColumnBatch{};
  }
  if (retain_input_) batch.AppendTo(&retained_);
  current_input_ = std::move(batch);
  *eof = false;
  return ProjectRows(current_input_, 0, current_input_.num_rows());
}

}  // namespace explainit::sql
