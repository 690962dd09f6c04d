// HashAggregate: hash grouping over input morsels, then per-group
// evaluation of the select list / HAVING. A pipeline breaker: groups can
// only close once the input is exhausted.
//
// The aggregate shape alone picks the algorithm; the parallelism level
// only sets the shard count (EffectiveParallelism(ctx), or 1 when LAG
// appears anywhere), and one shard is the serial case of the same code:
//
//  * partial mode — every aggregate call decomposes (COUNT/SUM/MIN/MAX/
//    AVG): each shard builds a hash table of flat partial states (sum,
//    non-null count, min, max, row count) over a contiguous run of
//    morsels, a merge stage combines partials in shard order (so a given
//    shard count is deterministic), and finalisation substitutes merged
//    values for the aggregate nodes. Morsels are the child's own batches
//    (valid for the life of the tree, so buffered without copying), or
//    row shards of acc_ when the input must be retained or LAG reads it
//    as one relation.
//  * index mode — non-decomposable aggregates (STDDEV, PERCENTILE, or
//    malformed calls whose error messages ComputeAggregate owns): the
//    input drains into acc_, shards group row indices, the merge
//    concatenates them in shard order (preserving ascending row order),
//    and the per-group evaluation fans out across groups.
#pragma once

#include <algorithm>
#include <unordered_map>

#include "sql/bound_expr.h"
#include "sql/operators/operator.h"

namespace explainit::sql {

class HashAggregateOperator : public Operator {
 public:
  HashAggregateOperator(std::unique_ptr<Operator> input,
                        const SelectStatement* stmt,
                        const FunctionRegistry* functions,
                        const ExecContext* ctx = nullptr,
                        bool retain_input = true);

  const table::Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "HashAggregate"; }

  /// The accumulated input rows; ORDER BY's last-resort resolution path
  /// reads them. Always set when constructed with retain_input; null when
  /// partial mode buffered the child's batches instead.
  const table::Table* retained_input() const override {
    return retained_ptr_;
  }

 protected:
  Status OpenImpl() override;
  Result<table::ColumnBatch> NextImpl(bool* eof) override;

 private:
  /// Flat partial state of one decomposable aggregate in one group.
  /// Argument-evaluation errors are captured per slot instead of failing
  /// the whole phase: they surface only when the group survives HAVING
  /// and the slot is consulted, as in index mode.
  struct PartialState {
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    int64_t non_null = 0;
    Status error;

    /// Folds one non-null argument value in.
    void Accumulate(double d) {
      if (non_null == 0) {
        min = d;
        max = d;
      } else {
        min = std::min(min, d);
        max = std::max(max, d);
      }
      sum += d;
      ++non_null;
    }
  };
  struct GroupPartial {
    uint32_t first_batch = 0;  // representative row for non-aggregate parts
    uint32_t first_row = 0;
    size_t rows = 0;
  };
  /// One worker's hash table plus first-seen key order. Groups and their
  /// flat slot states live in contiguous arrays (groups[i]'s slot j is
  /// slots[i * num_slots + j]) — no per-group heap allocation — and the
  /// order vector borrows the map's node-stable key storage.
  struct ShardGroups {
    std::unordered_map<std::string, size_t> index;
    std::vector<const std::string*> order;  // keys in first-seen order
    std::vector<GroupPartial> groups;       // parallel to `order`
    std::vector<PartialState> slots;        // groups.size() * num_slots
  };

  /// Every expression of the statement bound to one input schema.
  struct Bindings {
    std::vector<BoundExpr> keys;
    std::vector<std::vector<BoundExpr>> agg_args;  // per aggregate slot
    std::vector<BoundExpr> items;                  // group context
    BoundExpr having;                              // group context
  };
  /// Binds once per input schema object (not thread-safe: bind before
  /// fanning out).
  const Bindings& BindFor(const table::Schema& schema);
  Result<table::ColumnBatch> PartialNext();
  Result<table::ColumnBatch> IndexNext();
  /// Folds one batch into a shard's partial states.
  Status PartialAccumulate(const table::ColumnBatch& batch,
                           const Bindings& b, uint32_t batch_index,
                           ShardGroups* local) const;
  /// Fills morsels_ with partial mode's input: the child's batches, or
  /// one view of acc_ per row shard when the input drains into acc_.
  Status CollectMorsels();
  /// Evaluates HAVING, then (if the group survives) every select item of
  /// group `gi`, whose representative row is `rep` of `input`.
  /// fill(begin, end, &slots) computes aggregate slots [begin, end).
  template <typename Fill>
  Status EvalGroup(const Bindings& b, const table::ColumnBatch& input,
                   size_t rep, const Fill& fill, size_t gi,
                   std::vector<char>* keep,
                   std::vector<std::vector<table::Value>>* values) const;
  /// Index mode's per-group evaluation over groups_.
  Result<table::ColumnBatch> FinishGroups(const table::ColumnBatch& input);
  /// The single row of a global aggregate over an empty input.
  table::ColumnBatch EmptyGlobalRow();
  /// Builds the output batch from per-group values, dropping groups
  /// HAVING rejected.
  table::ColumnBatch EmitRows(std::vector<std::vector<table::Value>> cols,
                              const std::vector<char>& keep);

  Operator* input_;
  const SelectStatement* stmt_;
  const FunctionRegistry* functions_;
  const ExecContext* ctx_;
  bool retain_input_;

  table::Schema schema_;
  table::Table acc_;  // all input rows, grouped by row index
  const table::Table* retained_ptr_ = nullptr;
  std::unordered_map<std::string, std::vector<size_t>> groups_;
  std::vector<std::string> group_order_;
  bool done_ = false;
  size_t shards_ = 1;  // set by NextImpl

  // Resolved at Open().
  bool lag_anywhere_ = false;
  bool partial_ok_ = false;
  std::vector<const Expr*> agg_nodes_;  // topmost aggregate calls
  size_t having_slots_ = 0;  // slots [having_slots_, end) are HAVING's
  std::vector<char> count_star_;  // per slot: COUNT(*)
  std::vector<std::unique_ptr<Bindings>> bindings_;
  std::vector<const table::Schema*> bound_schemas_;  // parallel to bindings_
  std::vector<table::ColumnBatch> morsels_;  // partial mode's input
};

}  // namespace explainit::sql
