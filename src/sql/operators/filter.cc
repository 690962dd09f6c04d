#include "sql/operators/filter.h"

namespace explainit::sql {

using table::ColumnBatch;

FilterOperator::FilterOperator(std::unique_ptr<Operator> input,
                               ExprPtr predicate,
                               const FunctionRegistry* functions,
                               const ExecContext* ctx)
    : predicate_(std::move(predicate)), functions_(functions), ctx_(ctx) {
  input_ = AddChild(std::move(input));
  materialize_ = predicate_ != nullptr && ContainsLag(*predicate_);
  parallel_ = !materialize_ && ctx_ != nullptr && ctx_->parallel();
}

Status FilterOperator::OpenImpl() {
  EXPLAINIT_RETURN_IF_ERROR(input_->Open());
  bound_ = SchemaBoundExprs({predicate_.get()}, functions_);
  bound_.For(input_->output_schema());
  return Status::OK();
}

Result<std::vector<uint32_t>> FilterOperator::Select(const ColumnBatch& batch,
                                                     size_t begin,
                                                     size_t end) {
  std::vector<uint32_t> selected;
  selected.reserve(end - begin);
  EXPLAINIT_RETURN_IF_ERROR(
      SelectRows(bound_.For(batch.schema()), batch, begin, end, &selected));
  return selected;
}

Result<ColumnBatch> FilterOperator::ParallelNext(bool* eof) {
  if (!sharded_done_) {
    sharded_done_ = true;
    // Morsel source: the child's backing table when it is already
    // materialised with the same schema object (a catalog scan outside a
    // join), else a one-time drain.
    const table::Table* source = input_->MaterializedTable();
    if (source == nullptr ||
        &source->schema() != &input_->output_schema()) {
      drained_ = table::Table(input_->output_schema());
      EXPLAINIT_RETURN_IF_ERROR(Drain(input_, &drained_));
      source = &drained_;
    }
    const ColumnBatch view = ColumnBatch::View(*source, 0, source->num_rows());
    bound_.For(view.schema());  // bind before the fan-out
    const std::vector<RowRange> shards =
        ShardRows(source->num_rows(), ctx_->parallelism);
    std::vector<ColumnBatch> outputs(shards.size());
    EXPLAINIT_RETURN_IF_ERROR(RunSharded(
        ctx_, shards.size(), [&](size_t s) -> Status {
          const RowRange& range = shards[s];
          EXPLAINIT_ASSIGN_OR_RETURN(std::vector<uint32_t> selected,
                                     Select(view, range.begin, range.end));
          if (selected.empty()) return Status::OK();
          if (selected.size() == range.size()) {
            // All pass: a zero-copy view over the shard's rows.
            outputs[s] = ColumnBatch::View(*source, range.begin,
                                           range.size());
          } else {
            outputs[s] = view.Gather(selected);
          }
          return Status::OK();
        }));
    shard_output_ = std::move(outputs);
    stats_.detail = std::to_string(shards.size()) + " shards";
  }
  while (emit_pos_ < shard_output_.size()) {
    ColumnBatch batch = std::move(shard_output_[emit_pos_]);
    ++emit_pos_;
    if (batch.num_rows() == 0) continue;  // empty or fully filtered shard
    *eof = false;
    return batch;
  }
  *eof = true;
  return ColumnBatch{};
}

Result<ColumnBatch> FilterOperator::NextImpl(bool* eof) {
  if (parallel_) return ParallelNext(eof);
  if (materialize_) {
    // LAG window: one pass over the fully materialised input.
    if (materialized_done_) {
      *eof = true;
      return ColumnBatch{};
    }
    materialized_ = table::Table(input_->output_schema());
    EXPLAINIT_RETURN_IF_ERROR(Drain(input_, &materialized_));
    materialized_done_ = true;
    const ColumnBatch view =
        ColumnBatch::View(materialized_, 0, materialized_.num_rows());
    EXPLAINIT_ASSIGN_OR_RETURN(std::vector<uint32_t> selected,
                               Select(view, 0, view.num_rows()));
    *eof = false;
    return view.Gather(selected);
  }
  // Vectorised path: evaluate the predicate over each pulled batch and
  // gather the surviving rows; fully filtered batches are skipped.
  while (true) {
    bool child_eof = false;
    EXPLAINIT_ASSIGN_OR_RETURN(ColumnBatch batch, input_->Next(&child_eof));
    if (child_eof) {
      *eof = true;
      return ColumnBatch{};
    }
    EXPLAINIT_ASSIGN_OR_RETURN(std::vector<uint32_t> selected,
                               Select(batch, 0, batch.num_rows()));
    if (selected.empty()) continue;
    *eof = false;
    if (selected.size() == batch.num_rows()) return batch;  // all pass
    return batch.Gather(selected);
  }
}

}  // namespace explainit::sql
