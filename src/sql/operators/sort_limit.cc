#include "sql/operators/sort_limit.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <queue>
#include <utility>

namespace explainit::sql {

using table::ColumnBatch;
using table::Table;
using table::Value;

SortLimitOperator::SortLimitOperator(std::unique_ptr<Operator> input,
                                     const SelectStatement* stmt,
                                     const FunctionRegistry* functions,
                                     bool aggregated, const ExecContext* ctx)
    : stmt_(stmt), functions_(functions), aggregated_(aggregated),
      ctx_(ctx) {
  input_ = AddChild(std::move(input));
}

Status SortLimitOperator::OpenImpl() { return input_->Open(); }

Status SortLimitOperator::BuildSortKeys(
    const Table& output, std::vector<std::vector<Value>>* keys) const {
  // Each item resolves its evaluation side once: the output schema
  // (alias or expression name, and always for aggregated inputs where
  // pre-projection rows are not 1:1) or the retained pre-projection
  // rows. A primary-side failure on *any* row switches the whole item
  // to the other side, so one item never mixes values from two schemas
  // across rows.
  const size_t n = output.num_rows();
  const ColumnBatch out_view = ColumnBatch::View(output, 0, n);
  const Table empty_pre;
  const Table* preprojection = input_->retained_input();
  const Table* pre = preprojection != nullptr ? preprojection : &empty_pre;
  const ColumnBatch pre_view = ColumnBatch::View(*pre, 0, pre->num_rows());
  const std::vector<RowRange> shards =
      ShardRows(n, EffectiveParallelism(ctx_));
  keys->resize(stmt_->order_by.size());
  for (size_t k = 0; k < stmt_->order_by.size(); ++k) {
    const OrderByItem& item = stmt_->order_by[k];
    const bool resolved_on_output =
        item.expr->kind == ExprKind::kColumnRef &&
        ResolveColumn(output.schema(), *item.expr).ok();
    const bool output_first = resolved_on_output || aggregated_;
    const ColumnBatch& primary = output_first ? out_view : pre_view;
    const ColumnBatch& fallback = output_first ? pre_view : out_view;
    const BoundExpr primary_expr =
        BoundExpr::Bind(*item.expr, primary.schema(), *functions_);
    std::vector<Value>& col = (*keys)[k];
    col.assign(n, Value());
    // Pass 1: the primary side for every row. Whether any row fails is
    // a property of the data, not of the shard layout, so the side
    // choice is identical at every parallelism level.
    std::atomic<bool> failed{false};
    Status first_pass = RunSharded(
        ctx_, shards.size(), [&](size_t s) -> Status {
          for (size_t r = shards[s].begin; r < shards[s].end; ++r) {
            if (failed.load(std::memory_order_relaxed)) break;
            Result<Value> v = primary_expr.EvalRow(primary, r);
            if (!v.ok()) {
              failed.store(true, std::memory_order_relaxed);
              break;
            }
            col[r] = std::move(v).value();
          }
          return Status::OK();
        });
    EXPLAINIT_RETURN_IF_ERROR(std::move(first_pass));
    if (failed.load(std::memory_order_relaxed)) {
      const BoundExpr fallback_expr =
          BoundExpr::Bind(*item.expr, fallback.schema(), *functions_);
      EXPLAINIT_RETURN_IF_ERROR(RunSharded(
          ctx_, shards.size(), [&](size_t s) -> Status {
            for (size_t r = shards[s].begin; r < shards[s].end; ++r) {
              EXPLAINIT_ASSIGN_OR_RETURN(Value v,
                                         fallback_expr.EvalRow(fallback, r));
              col[r] = std::move(v);
            }
            return Status::OK();
          }));
    }
  }
  return Status::OK();
}

Status SortLimitOperator::GatherSorted(const Table& output,
                                       const std::vector<size_t>& order) {
  const size_t m = order.size();
  const size_t width = output.num_columns();
  if (width == 0) {
    // Zero-column relations cannot round-trip through FromColumns (the
    // row count would be lost); appending empty rows is trivial anyway.
    sorted_ = Table(output.schema());
    for (size_t r = 0; r < m; ++r) sorted_.AppendRow({});
    return Status::OK();
  }
  std::vector<std::vector<Value>> cols(width);
  for (auto& c : cols) c.resize(m);
  const std::vector<RowRange> shards =
      ShardRows(m, EffectiveParallelism(ctx_));
  EXPLAINIT_RETURN_IF_ERROR(RunSharded(
      ctx_, shards.size(), [&](size_t s) -> Status {
        for (size_t c = 0; c < width; ++c) {
          const std::vector<Value>& src = output.column(c);
          std::vector<Value>& dst = cols[c];
          for (size_t r = shards[s].begin; r < shards[s].end; ++r) {
            dst[r] = src[order[r]];
          }
        }
        return Status::OK();
      }));
  EXPLAINIT_ASSIGN_OR_RETURN(
      sorted_, Table::FromColumns(output.schema(), std::move(cols)));
  return Status::OK();
}

Result<ColumnBatch> SortLimitOperator::NextImpl(bool* eof) {
  if (stmt_->order_by.empty()) {
    // Streaming LIMIT: stop pulling once enough rows arrived.
    const size_t limit = stmt_->limit.has_value() && *stmt_->limit >= 0
                             ? static_cast<size_t>(*stmt_->limit)
                             : static_cast<size_t>(-1);
    if (emitted_ >= limit) {
      *eof = true;
      return ColumnBatch{};
    }
    bool child_eof = false;
    EXPLAINIT_ASSIGN_OR_RETURN(ColumnBatch batch, input_->Next(&child_eof));
    if (child_eof) {
      *eof = true;
      return ColumnBatch{};
    }
    if (emitted_ + batch.num_rows() > limit) {
      batch.Truncate(limit - emitted_);
    }
    emitted_ += batch.num_rows();
    *eof = false;
    return batch;
  }

  if (!sorted_done_) {
    sorted_done_ = true;
    Table output(input_->output_schema());
    EXPLAINIT_RETURN_IF_ERROR(Drain(input_, &output));
    const size_t n = output.num_rows();
    std::vector<std::vector<Value>> sort_keys;
    EXPLAINIT_RETURN_IF_ERROR(BuildSortKeys(output, &sort_keys));

    // Strict total order: sort keys in ORDER BY sequence, then the input
    // row index — exactly the order a stable sort produces, but usable
    // by per-shard plain sorts, heaps and the merge alike.
    auto less = [&](size_t a, size_t b) {
      for (size_t k = 0; k < stmt_->order_by.size(); ++k) {
        const int cmp = sort_keys[k][a].Compare(sort_keys[k][b]);
        if (cmp != 0) return stmt_->order_by[k].ascending ? cmp < 0
                                                          : cmp > 0;
      }
      return a < b;
    };
    const bool has_limit =
        stmt_->limit.has_value() && *stmt_->limit >= 0;
    const size_t limit =
        has_limit ? std::min<size_t>(static_cast<size_t>(*stmt_->limit), n)
                  : n;
    const std::vector<RowRange> shards =
        ShardRows(n, EffectiveParallelism(ctx_));
    sort_shards_ = shards.size();
    // Per-shard sort — a bounded top-K heap when LIMIT keeps fewer rows
    // than the shard holds (the heap root is the worst kept row) — then
    // a k-way merge over the shard fronts.
    std::vector<std::vector<size_t>> local(shards.size());
    EXPLAINIT_RETURN_IF_ERROR(RunSharded(
        ctx_, shards.size(), [&](size_t s) -> Status {
          std::vector<size_t>& idx = local[s];
          const RowRange& range = shards[s];
          if (has_limit && limit < range.size()) {
            idx.reserve(limit + 1);
            for (size_t r = range.begin; r < range.end; ++r) {
              if (idx.size() < limit) {
                idx.push_back(r);
                std::push_heap(idx.begin(), idx.end(), less);
              } else if (limit > 0 && less(r, idx.front())) {
                std::pop_heap(idx.begin(), idx.end(), less);
                idx.back() = r;
                std::push_heap(idx.begin(), idx.end(), less);
              }
            }
            std::sort_heap(idx.begin(), idx.end(), less);
          } else {
            idx.resize(range.size());
            std::iota(idx.begin(), idx.end(), range.begin);
            std::sort(idx.begin(), idx.end(), less);
          }
          return Status::OK();
        }));
    using HeapItem = std::pair<size_t, size_t>;  // (row, shard)
    auto heap_greater = [&](const HeapItem& a, const HeapItem& b) {
      return less(b.first, a.first);
    };
    std::priority_queue<HeapItem, std::vector<HeapItem>,
                        decltype(heap_greater)>
        heap(heap_greater);
    std::vector<size_t> cursor(local.size(), 0);
    for (size_t s = 0; s < local.size(); ++s) {
      if (!local[s].empty()) heap.emplace(local[s][0], s);
    }
    std::vector<size_t> order;
    order.reserve(limit);
    while (!heap.empty() && order.size() < limit) {
      const auto [row, s] = heap.top();
      heap.pop();
      order.push_back(row);
      if (++cursor[s] < local[s].size()) {
        heap.emplace(local[s][cursor[s]], s);
      }
    }
    EXPLAINIT_RETURN_IF_ERROR(GatherSorted(output, order));
    stats_.detail = "rows=" + std::to_string(n) +
                    " shards=" + std::to_string(sort_shards_) +
                    (has_limit && limit < n ? " top-k" : "");
  }
  if (pos_ >= sorted_.num_rows()) {
    *eof = true;
    return ColumnBatch{};
  }
  const size_t n = std::min(table::kDefaultBatchRows,
                            sorted_.num_rows() - pos_);
  ColumnBatch batch = ColumnBatch::View(sorted_, pos_, n);
  pos_ += n;
  *eof = false;
  return batch;
}

}  // namespace explainit::sql
