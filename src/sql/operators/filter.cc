#include "sql/operators/filter.h"

namespace explainit::sql {

using table::ColumnBatch;

FilterOperator::FilterOperator(std::unique_ptr<Operator> input,
                               ExprPtr predicate,
                               const FunctionRegistry* functions,
                               const ExecContext* ctx)
    : input_(AddChild(std::move(input))),
      predicate_(std::move(predicate)),
      functions_(functions),
      rounds_(input_, ctx,
              predicate_ != nullptr && ContainsLag(*predicate_),
              [this](const ColumnBatch& b) { bound_.For(b.schema()); },
              [this](ColumnBatch b) { return Select(std::move(b)); }) {}

Status FilterOperator::OpenImpl() {
  EXPLAINIT_RETURN_IF_ERROR(input_->Open());
  bound_ = SchemaBoundExprs({predicate_.get()}, functions_);
  bound_.For(input_->output_schema());
  return Status::OK();
}

Result<ColumnBatch> FilterOperator::Select(ColumnBatch batch) {
  std::vector<uint32_t> selected;
  selected.reserve(batch.num_rows());
  // The round's prepare step bound this schema: For() is a lookup here.
  EXPLAINIT_RETURN_IF_ERROR(SelectRows(bound_.For(batch.schema()), batch, 0,
                                       batch.num_rows(), &selected));
  if (selected.size() == batch.num_rows()) return batch;  // all pass
  return batch.Gather(selected);
}

Result<ColumnBatch> FilterOperator::NextImpl(bool* eof) {
  return rounds_.Next(eof);
}

}  // namespace explainit::sql
