#include "sql/operators/project.h"

#include <algorithm>

namespace explainit::sql {

using table::ColumnBatch;
using table::DataType;
using table::Field;
using table::Value;

namespace {
bool AnyItemContainsLag(const SelectStatement& stmt) {
  return std::any_of(stmt.items.begin(), stmt.items.end(),
                     [](const SelectItem& item) {
                       return !item.is_star && ContainsLag(*item.expr);
                     });
}
}  // namespace

ProjectOperator::ProjectOperator(std::unique_ptr<Operator> input,
                                 const SelectStatement* stmt,
                                 const FunctionRegistry* functions,
                                 bool retain_input, const ExecContext* ctx)
    : input_(AddChild(std::move(input))),
      stmt_(stmt),
      functions_(functions),
      retain_input_(retain_input),
      lag_(AnyItemContainsLag(*stmt)),
      rounds_(input_, ctx, lag_,
              [this](const ColumnBatch& b) {
                bound_.For(b.schema());
                if (retain_input_ && !lag_) b.AppendTo(&retained_);
              },
              [this](ColumnBatch b) { return ProjectBatch(std::move(b)); }) {}

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
  }
  bound_ = SchemaBoundExprs(std::move(computed), functions_);
  bound_.For(in);
  retained_ = table::Table(in);
  return Status::OK();
}

Result<ColumnBatch> ProjectOperator::ProjectBatch(ColumnBatch input) {
  // The round's prepare step bound this schema: For() is a lookup here.
  const std::vector<BoundExpr>& items = bound_.For(input.schema());
  const size_t rows = input.num_rows();
  ColumnBatch out(&schema_, rows);
  for (const OutputColumn& col : columns_) {
    if (col.expr == nullptr) {
      out.AddBorrowedColumn(input.column(col.index));
      continue;
    }
    std::vector<Value> values;
    EXPLAINIT_RETURN_IF_ERROR(items[col.index].Eval(input, 0, rows, &values));
    out.AddOwnedColumn(std::move(values));
  }
  out.AdoptStorage(std::move(input));
  return out;
}

Result<ColumnBatch> ProjectOperator::NextImpl(bool* eof) {
  return rounds_.Next(eof);
}

}  // namespace explainit::sql
