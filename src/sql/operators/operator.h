// The physical operator interface of the vectorised SQL pipeline.
//
// Operators form a tree (children owned by parents) and exchange
// table::ColumnBatch chunks through a pull interface:
//
//   Open()  — recursively prepares the subtree: resolves catalog tables,
//             finalises output schemas, builds join hash tables. Schemas
//             are only known after Open (catalog tables materialise
//             lazily), so parents derive their schema from children here.
//   Next()  — produces the next batch; sets *eof instead when exhausted.
//
// A produced batch may borrow column storage from its operator's subtree;
// it stays valid for the life of the tree (see ColumnBatch), so consumers
// may buffer batches without copying them.
//
// Parallelism is a shard count, not a mode: every operator runs one code
// path and splits its work into EffectiveParallelism(ctx) shards, so a
// serial pipeline is the one-shard case of the same algorithm.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/time_util.h"
#include "sql/ast.h"
#include "sql/bound_expr.h"
#include "sql/exec_context.h"
#include "table/column_batch.h"
#include "table/table.h"

namespace explainit::sql {

/// Per-operator execution counters (ISSUE: rows/batches/ns).
struct OperatorStats {
  std::string name;    // operator kind, e.g. "Scan", "HashJoin"
  std::string detail;  // instance detail, e.g. "tsdb cols=2/4", "build=left"
  size_t rows_output = 0;
  size_t batches_output = 0;
  /// Wall time spent inside Open()+Next(), *inclusive* of children (a
  /// pull-based operator's clock runs while its input produces).
  int64_t elapsed_ns = 0;
};

/// Execution statistics of one query, for observability and the
/// scalability benches: scalar counters plus the per-operator breakdown.
struct ExecStats {
  size_t tables_scanned = 0;
  size_t rows_scanned = 0;
  /// Scans that carried a rollup resolution hint (min_step_seconds set by
  /// the planner's grid-shape detection) to a hint-aware provider.
  size_t rollup_hinted_scans = 0;
  size_t hash_joins = 0;
  size_t nested_loop_joins = 0;
  size_t rows_output = 0;
  /// Degree of parallelism the query executed with (the executor knob).
  size_t parallelism = 1;
  /// Shard/partition fan-out of the join and sort in the last query
  /// (maximum across operator instances; 1 at one shard, 0 when the
  /// operator did not appear in the plan).
  size_t join_build_partitions = 0;
  size_t sort_shards = 0;
  /// Chunks the executor assembled the final result table from (1 = the
  /// drain-and-append path of parallelism 1).
  size_t materialize_chunks = 0;
  /// The logical plan (LogicalPlan::ToString) behind the last query, and
  /// the optimiser rewrites that fired: statements whose join order left
  /// statement order, partial aggregates placed below joins, and
  /// COUNT -> count-rollup-tier rewrites.
  std::string plan_text;
  size_t joins_reordered = 0;
  size_t agg_pushdowns = 0;
  size_t count_rollup_rewrites = 0;
  std::vector<OperatorStats> operators;
};

/// Base class of every physical operator.
class Operator {
 public:
  virtual ~Operator() = default;

  /// Prepares the subtree; after a successful Open, output_schema() is
  /// valid. Must be called exactly once, before the first Next().
  Status Open();

  /// Pulls the next batch. On end of stream sets *eof = true and returns
  /// an empty batch. Operators may emit empty (0-row) batches mid-stream;
  /// consumers must tolerate them.
  Result<table::ColumnBatch> Next(bool* eof);

  virtual const table::Schema& output_schema() const = 0;
  virtual std::string name() const = 0;

  /// Pre-projection input rows retained 1:1 with this operator's output
  /// (Project) or the accumulated aggregate input (HashAggregate); the
  /// ORDER BY resolution fallback reads them. Null when not retained.
  /// The pointed-to table fills during execution; callers dereference
  /// only after the operator has been drained.
  virtual const table::Table* retained_input() const { return nullptr; }

  /// Adds this operator's contribution to the scalar ExecStats counters
  /// (scans report tables/rows scanned, joins their strategy). Self only.
  virtual void AccumulateExecStats(ExecStats* stats) const { (void)stats; }

  /// Depth-first collection over the subtree.
  void CollectStats(std::vector<OperatorStats>* out) const;
  void AccumulateExecStatsTree(ExecStats* stats) const;

  /// Threads the executor's context through the subtree (called by
  /// ExecuteTree before Open). Every Next() then checks the context's
  /// cancellation token at its batch boundary, so a cancelled or
  /// deadline-expired query unwinds through the normal Status path
  /// within one batch of work per pipeline stage.
  void BindExecContext(const ExecContext* ctx);

  const OperatorStats& stats() const { return stats_; }

  /// Pulls everything `op` has into `out` (appending column-wise). The
  /// materialisation step of pipeline breakers (sort, join build) and of
  /// LAG stages.
  static Status Drain(Operator* op, table::Table* out);

  /// Ties an external object's lifetime to this operator. The planner
  /// uses it to keep optimiser-synthesised AST (owned by the LogicalPlan)
  /// alive exactly as long as the operators that reference it.
  void RetainArtifact(std::shared_ptr<const void> artifact) {
    artifacts_.push_back(std::move(artifact));
  }

 protected:
  virtual Status OpenImpl() = 0;
  virtual Result<table::ColumnBatch> NextImpl(bool* eof) = 0;

  Operator* AddChild(std::unique_ptr<Operator> child) {
    children_.push_back(std::move(child));
    return children_.back().get();
  }
  Operator* child(size_t i) const { return children_[i].get(); }
  size_t num_children() const { return children_.size(); }

  mutable OperatorStats stats_;

 private:
  // Declared before children_ so children (which may reference retained
  // artifacts, e.g. synthesised AST) are destroyed first.
  std::vector<std::shared_ptr<const void>> artifacts_;
  std::vector<std::unique_ptr<Operator>> children_;
  const ExecContext* bound_ctx_ = nullptr;  // set by BindExecContext
};

/// Appends the group/join key encoding of `v` to *key: a tag per type
/// class, every numeric type as its AsDouble() bits (-0.0 as 0.0), and
/// strings and map keys length-prefixed, so composite keys concatenate
/// without separators. Two non-null values encode equal exactly when
/// Value::Equals holds; NULL has its own tag (it groups only with NULL).
/// Returns false when `v` never equals anything (NULL, NaN, or a map
/// holding one): join keys skip such rows.
bool EncodeKey(const table::Value& v, std::string* key);

/// Encodes the key of rows of one batch: the EncodeKey parts of `exprs`,
/// concatenated. A part whose expression RunMemo can serve is evaluated
/// once per run of rows with identical input cells: while consecutive
/// rows repeat those cells, its previous encoding is reused (on a store
/// scan, a function of metric_name and tags runs once per series, not
/// once per row). Per-caller state; not thread-safe.
class RowKeyEncoder {
 public:
  /// `exprs` must outlive the encoder.
  explicit RowKeyEncoder(const std::vector<BoundExpr>& exprs);

  /// Starts on the rows of `batch`, which must outlive the calls to
  /// Encode that follow (drops every remembered run).
  void Start(const table::ColumnBatch& batch);

  /// Replaces *key with the encoding of row `row`; *matchable turns false
  /// when a part never matches (see EncodeKey).
  Status Encode(size_t row, std::string* key, bool* matchable);

 private:
  struct Part {
    const BoundExpr* expr;
    RunMemo memo;
    std::string bytes;  // the last evaluated row's encoding
    bool matchable = true;
  };
  const table::ColumnBatch* batch_ = nullptr;
  std::vector<Part> parts_;
};

/// A contiguous run of input rows processed by one worker.
struct RowRange {
  size_t begin = 0;
  size_t end = 0;
  size_t size() const { return end - begin; }
};

/// Splits [0, num_rows) into at most `parallelism` contiguous shards of at
/// least `min_shard_rows` rows (one shard when the input is small).
/// Boundaries depend only on the arguments so a parallelism level is
/// deterministic regardless of scheduling. The default grain suits
/// morsel stages over materialised inputs; per-batch stages (join
/// probing) pass a smaller grain, since a batch is at most
/// table::kDefaultBatchRows rows to begin with.
std::vector<RowRange> ShardRows(size_t num_rows, size_t parallelism,
                                size_t min_shard_rows = 1024);

/// Runs fn(shard_index) for every shard over ctx->pool (inline when the
/// context has no pool or there is a single shard). Statuses are collected
/// per shard and the first failure *in shard order* is returned, keeping
/// error reporting deterministic under concurrency.
Status RunSharded(const ExecContext* ctx, size_t num_shards,
                  const std::function<Status(size_t)>& fn);

/// Parallelism the context actually provides: ctx->parallelism when a
/// live pool backs it, 1 for null or pool-less contexts. The shard count
/// every operator derives its fan-out from.
inline size_t EffectiveParallelism(const ExecContext* ctx) {
  return ctx != nullptr && ctx->parallel() ? ctx->parallelism : 1;
}

/// The round loop of the streaming operators (Filter, Project): each child
/// batch is one morsel, and parallelism is how many morsels a round
/// evaluates at once. A round pulls up to EffectiveParallelism(ctx) child
/// batches, shows each to `prepare` in pull order (schema binding, input
/// retention), evaluates one batch per RunSharded task (inline when the
/// round holds one batch) and hands the results out in pull order,
/// skipping empty ones.
///
/// A failed evaluation, or a failed child Next() while a round is being
/// pulled, keeps the batches before it: its Status surfaces only when the
/// consumer reaches that position. So a LIMIT above stops at the same row,
/// and surfaces the same error, at every parallelism level.
///
/// With `whole_input` (a stage whose expressions contain LAG, which reads
/// neighbouring rows) there is one round: the whole drained input as one
/// morsel, viewed over drained().
class MorselRounds {
 public:
  using Prepare = std::function<void(const table::ColumnBatch&)>;
  /// Turns one input batch into one output batch; runs concurrently with
  /// the round's other morsels.
  using Eval =
      std::function<Result<table::ColumnBatch>(table::ColumnBatch input)>;

  MorselRounds(Operator* input, const ExecContext* ctx, bool whole_input,
               Prepare prepare, Eval eval);

  Result<table::ColumnBatch> Next(bool* eof);

  /// The drained input of a whole-input stage (empty otherwise). It lives
  /// as long as this object, and so do the views over it.
  const table::Table& drained() const { return drained_; }

 private:
  void PullRound();

  Operator* input_;
  const ExecContext* ctx_;
  bool whole_input_;
  Prepare prepare_;
  Eval eval_;
  table::Table drained_;
  std::vector<Result<table::ColumnBatch>> results_;  // in pull order
  size_t pos_ = 0;  // next result to hand out
  Status pull_error_;  // the child's failure, due after results_
  bool input_done_ = false;
};

/// True when the expression tree contains a LAG call (which must see the
/// whole input, so that stage runs one shard over its drained input).
bool ContainsLag(const Expr& e);

/// Flattens an AND tree into its conjuncts (any other node is one
/// conjunct). Order is evaluation (left-to-right) order.
void CollectConjuncts(const Expr* e, std::vector<const Expr*>* out);

/// True when any top-level conjunct is an equality — the hash-join
/// eligibility test.
bool HasEqualityConjunct(const Expr* condition);

/// Output column name for a select item: alias, else the expression text.
std::string ItemName(const SelectItem& item);

}  // namespace explainit::sql
