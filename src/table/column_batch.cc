#include "table/column_batch.h"

#include "common/logging.h"

namespace explainit::table {

ColumnBatch ColumnBatch::View(const Table& t, size_t row_begin, size_t rows,
                              const Schema* schema_override) {
  const Schema* schema =
      schema_override != nullptr ? schema_override : &t.schema();
  EXPLAINIT_CHECK(schema->num_fields() == t.num_columns(),
                  "schema override width " << schema->num_fields()
                                           << " != table width "
                                           << t.num_columns());
  EXPLAINIT_CHECK(row_begin + rows <= t.num_rows(),
                  "batch window [" << row_begin << ", " << row_begin + rows
                                   << ") exceeds " << t.num_rows()
                                   << " rows");
  ColumnBatch batch(schema, rows);
  for (size_t c = 0; c < t.num_columns(); ++c) {
    batch.AddBorrowedColumn(t.column(c).data() + row_begin);
  }
  return batch;
}

void ColumnBatch::AddOwnedColumn(std::vector<Value> data) {
  EXPLAINIT_CHECK(data.size() == num_rows_,
                  "owned column size " << data.size() << " != batch rows "
                                       << num_rows_);
  owned_.push_back(std::move(data));
  cols_.push_back(owned_.back().data());
}

void ColumnBatch::AdoptStorage(ColumnBatch&& other) {
  // Moving a vector keeps its buffer, so pointers into it stay valid.
  for (std::vector<Value>& col : other.owned_) {
    owned_.push_back(std::move(col));
  }
  other.owned_.clear();
  other.cols_.clear();
}

ColumnBatch ColumnBatch::Gather(const std::vector<uint32_t>& indices) const {
  ColumnBatch out(schema_, indices.size());
  for (size_t c = 0; c < cols_.size(); ++c) {
    std::vector<Value> col;
    col.reserve(indices.size());
    const Value* src = cols_[c];
    for (uint32_t i : indices) col.push_back(src[i]);
    out.AddOwnedColumn(std::move(col));
  }
  return out;
}

void ColumnBatch::Truncate(size_t n) {
  if (n < num_rows_) num_rows_ = n;
}

void ColumnBatch::AppendTo(Table* out) const {
  out->AppendColumns(cols_, num_rows_);
}

}  // namespace explainit::table
