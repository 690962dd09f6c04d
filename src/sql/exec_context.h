// Shared execution context for one query pipeline: the degree of
// parallelism the executor was configured with, the worker pool that
// the operators (Filter/Project morsel rounds, HashAggregate shards,
// HashJoin's partitioned build/probe, SortLimit's sharded sort) and the
// executor's chunked result assembly fan out over, and the query's
// cancellation token.
//
// Parallelism is a shard count, not a mode: every operator runs the same
// code path at every level and only splits its work into
// EffectiveParallelism(ctx) shards. parallelism == 1 (or a null
// context/pool) is the one-shard case, run inline on the calling thread.
// Shard boundaries depend only on (row count, parallelism), never on
// scheduling, so a given parallelism level is deterministic.
//
// The pool is *borrowed* — by default the process-wide
// exec::WorkerPool::Global(), shared with every other session, the
// store's scans and the ranking fan-out — never owned by the pipeline.
#pragma once

#include <cstddef>

#include "common/status.h"
#include "exec/cancel.h"
#include "exec/worker_pool.h"

namespace explainit::sql {

struct ExecContext {
  /// Degree of parallelism operators shard to. 1 = one shard, inline.
  size_t parallelism = 1;
  /// Shared worker pool for sharded execution (borrowed, typically
  /// exec::WorkerPool::Global()). Non-null whenever parallelism > 1.
  exec::WorkerPool* pool = nullptr;
  /// Cooperative cancellation/deadline for the current query; null when
  /// the caller imposes none. Checked at batch boundaries.
  const exec::CancelToken* cancel = nullptr;

  bool parallel() const { return parallelism > 1 && pool != nullptr; }

  /// OK while the current query may keep running.
  Status CheckCancel() const {
    return cancel != nullptr ? cancel->Check() : Status::OK();
  }
};

}  // namespace explainit::sql
