#include "sql/executor.h"

#include <algorithm>
#include <thread>

#include "sql/parser.h"
#include "sql/planner.h"

namespace explainit::sql {

using table::Table;

void Executor::set_parallelism(size_t parallelism) {
  if (parallelism == 0) {
    parallelism = std::max(1u, std::thread::hardware_concurrency());
  }
  parallelism_ = parallelism;
  last_stats_.parallelism = parallelism_;
  ctx_.parallelism = parallelism_;
  ctx_.pool = parallelism_ > 1 ? pool_ : nullptr;
}

void Executor::EnsurePool() {
  if (parallelism_ > 1 && pool_ == nullptr) {
    // Borrow the process-wide pool: parallel operators shard to
    // parallelism_ tasks but execute on the shared workers, so N
    // concurrent executors never oversubscribe the box.
    pool_ = &exec::WorkerPool::Global();
  }
  ctx_.pool = parallelism_ > 1 ? pool_ : nullptr;
}

Result<table::Table> Executor::Query(std::string_view sql) {
  EXPLAINIT_ASSIGN_OR_RETURN(auto stmt, Parse(sql));
  return Execute(*stmt);
}

Result<std::unique_ptr<Operator>> Executor::PlanSelect(
    const SelectStatement& stmt) {
  EnsurePool();
  Planner planner(catalog_, functions_, &ctx_, optimizer_);
  auto root = planner.Plan(stmt);
  pending_plan_ = root.ok() ? planner.last_plan() : nullptr;
  return root;
}

Result<table::Table> Executor::ExecuteTree(Operator* root) {
  EnsurePool();
  // Thread the context through the subtree so every operator checks the
  // cancellation token at its batch boundaries, then fail fast on a
  // deadline that already expired before doing any work.
  root->BindExecContext(&ctx_);
  EXPLAINIT_RETURN_IF_ERROR(ctx_.CheckCancel());
  EXPLAINIT_RETURN_IF_ERROR(root->Open());
  Table out(root->output_schema());
  bool eof = false;
  size_t materialize_chunks = 1;
  const size_t width = out.num_columns();
  if (parallelism_ > 1 && width > 0) {
    // Parallel result materialisation: batches stay valid for the life
    // of the tree, so the drain buffers them and the final table
    // assembles column-wise across the pool — per-batch chunks copy into
    // disjoint row ranges of preallocated columns, replacing the
    // per-batch AppendTo copy. Trade-off: batches with owned storage are
    // all held until assembly, so peak transient memory can approach
    // twice the result set; at parallelism 1 the AppendTo drain below
    // frees each batch right after appending it.
    std::vector<table::ColumnBatch> batches;
    std::vector<size_t> offsets;
    size_t total = 0;
    while (true) {
      EXPLAINIT_ASSIGN_OR_RETURN(table::ColumnBatch batch,
                                 root->Next(&eof));
      if (eof) break;
      if (batch.num_rows() == 0) continue;
      offsets.push_back(total);
      total += batch.num_rows();
      batches.push_back(std::move(batch));
    }
    std::vector<std::vector<table::Value>> cols(width);
    for (auto& c : cols) c.resize(total);
    EXPLAINIT_RETURN_IF_ERROR(RunSharded(
        &ctx_, batches.size(), [&](size_t b) -> Status {
          const table::ColumnBatch& batch = batches[b];
          const size_t base = offsets[b];
          for (size_t c = 0; c < width; ++c) {
            const table::Value* src = batch.column(c);
            std::vector<table::Value>& dst = cols[c];
            for (size_t r = 0; r < batch.num_rows(); ++r) {
              dst[base + r] = src[r];
            }
          }
          return Status::OK();
        }));
    EXPLAINIT_ASSIGN_OR_RETURN(
        out, Table::FromColumns(root->output_schema(), std::move(cols)));
    materialize_chunks = std::max<size_t>(1, batches.size());
  } else {
    while (true) {
      EXPLAINIT_ASSIGN_OR_RETURN(table::ColumnBatch batch,
                                 root->Next(&eof));
      if (eof) break;
      batch.AppendTo(&out);
    }
  }

  last_stats_ = ExecStats{};
  last_stats_.parallelism = parallelism_;
  last_stats_.materialize_chunks = materialize_chunks;
  root->AccumulateExecStatsTree(&last_stats_);
  last_stats_.rows_output = out.num_rows();
  root->CollectStats(&last_stats_.operators);
  if (pending_plan_ != nullptr) {
    last_stats_.plan_text = pending_plan_->ToString();
    last_stats_.joins_reordered = pending_plan_->joins_reordered;
    last_stats_.agg_pushdowns = pending_plan_->agg_pushdowns;
    last_stats_.count_rollup_rewrites = pending_plan_->count_rollup_rewrites;
    pending_plan_ = nullptr;
  }

  return out;
}

Result<table::Table> Executor::Execute(const SelectStatement& stmt) {
  EXPLAINIT_ASSIGN_OR_RETURN(auto root, PlanSelect(stmt));
  return ExecuteTree(root.get());
}

}  // namespace explainit::sql
