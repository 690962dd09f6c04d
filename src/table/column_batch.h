// ColumnBatch: the fixed-size unit of exchange between physical SQL
// operators. A batch is a columnar *view*: each column is a contiguous
// Value array that is either borrowed (zero-copy slices of a backing
// Table, star pass-through in projections) or owned by the batch
// (filter compaction, computed projections, join/aggregate outputs).
//
// Lifetime contract: a borrowed column (and the borrowed schema pointer)
// must outlive the batch. In the operator pipeline every borrowed column
// points into storage its producer's tree keeps for its whole life (a
// scan's table, a drained input, owned storage a projection took over),
// so a batch stays valid for the life of the tree that produced it.
#pragma once

#include <cstdint>
#include <vector>

#include "table/table.h"

namespace explainit::table {

/// A lightweight columnar view over a run of rows. Move-only: owned
/// columns carry heap buffers whose addresses must stay stable.
class ColumnBatch {
 public:
  ColumnBatch() = default;
  /// An empty batch with `num_rows` rows and no columns yet (columns are
  /// attached with AddBorrowedColumn / AddOwnedColumn). `num_rows` may be
  /// non-zero with zero columns: SELECT without FROM has one such row.
  ColumnBatch(const Schema* schema, size_t num_rows)
      : schema_(schema), num_rows_(num_rows) {}

  ColumnBatch(ColumnBatch&&) = default;
  ColumnBatch& operator=(ColumnBatch&&) = default;
  ColumnBatch(const ColumnBatch&) = delete;
  ColumnBatch& operator=(const ColumnBatch&) = delete;

  /// Zero-copy view over rows [row_begin, row_begin + rows) of `t`.
  /// `schema_override` substitutes a different schema of equal width
  /// (column qualification in joins renames without copying).
  static ColumnBatch View(const Table& t, size_t row_begin, size_t rows,
                          const Schema* schema_override = nullptr);

  const Schema& schema() const { return *schema_; }
  void set_schema(const Schema* schema) { schema_ = schema; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return cols_.size(); }

  const Value& At(size_t row, size_t col) const { return cols_[col][row]; }
  /// Raw contiguous cell array for one column (num_rows() cells).
  const Value* column(size_t col) const { return cols_[col]; }

  /// Attaches a column borrowed from external storage (caller keeps it
  /// alive; must hold at least num_rows() cells).
  void AddBorrowedColumn(const Value* data) { cols_.push_back(data); }

  /// Attaches a column owned by this batch (size must equal num_rows()).
  void AddOwnedColumn(std::vector<Value> data);

  /// Takes over `other`'s owned columns, so columns this batch borrows
  /// from them (a projection's pass-through) stay valid as long as this
  /// batch. `other` is left with no columns.
  void AdoptStorage(ColumnBatch&& other);

  /// New batch (same schema) holding only the rows at `indices`; all
  /// columns become owned. The filter compaction step.
  ColumnBatch Gather(const std::vector<uint32_t>& indices) const;

  /// Keeps rows [0, n). Borrowed/owned storage is untouched; only the
  /// visible row count shrinks (LIMIT).
  void Truncate(size_t n);

  /// Bulk-appends every row of this batch to `out` (schema widths must
  /// match; column-wise, no per-row vectors).
  void AppendTo(Table* out) const;

 private:
  const Schema* schema_ = nullptr;
  std::vector<const Value*> cols_;
  std::vector<std::vector<Value>> owned_;  // backing for owned columns
  size_t num_rows_ = 0;
};

/// Default number of rows exchanged per batch.
inline constexpr size_t kDefaultBatchRows = 1024;

}  // namespace explainit::table
