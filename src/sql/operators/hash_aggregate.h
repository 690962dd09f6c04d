// HashAggregate: hash grouping over input morsels, then per-group
// evaluation of the select list / HAVING. A pipeline breaker: groups can
// only close once the input is exhausted.
//
// The aggregate shape alone picks the algorithm; the parallelism level
// only sets the shard count (EffectiveParallelism(ctx), or 1 when LAG
// appears anywhere), and one shard is the serial case of the same code:
//
//  * partial mode — every aggregate call decomposes (COUNT/SUM/MIN/MAX/
//    AVG): each shard builds a GroupTable with flat partial states (sum,
//    non-null count, min, max, row count) over a contiguous run of
//    morsels, a merge stage combines partials in shard order (so a given
//    shard count is deterministic), and finalisation substitutes merged
//    values for the aggregate nodes. Morsels are the child's own batches
//    (valid for the life of the tree, so buffered without copying), or
//    row shards of acc_ when the input must be retained or LAG reads it
//    as one relation.
//  * index mode — non-decomposable aggregates (STDDEV, PERCENTILE, or
//    malformed calls whose error messages ComputeAggregate owns): the
//    input drains into acc_, shards map each row to a group of their
//    GroupTable, the merge renumbers the groups in shard order, one
//    counting pass lays every group's rows out contiguously (ascending),
//    and the per-group evaluation fans out across groups.
//
// Either way, the GROUP BY key is encoded by a RowKeyEncoder (a computed
// key runs once per run of identical input cells), the merge probes with
// the hashes the shards stored and copies a key only for a group new to
// the merged table, and finalisation reuses one slot buffer per group
// shard and an item's value across groups whose representative rows
// repeat its input cells. Nothing is allocated per group.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <utility>

#include "sql/bound_expr.h"
#include "sql/operators/operator.h"

namespace explainit::sql {

/// Open-addressing hash table from encoded group keys to dense group
/// indices 0, 1, 2, ... in first-insertion order. A slot holds the key's
/// stored 64-bit hash and its group index; every key is appended to one
/// byte arena and addressed by (offset, length). Capacity is a power of
/// two that doubles at half load, and growth rehashes stored hashes,
/// never keys, so nothing is allocated per group.
class GroupTable {
 public:
  static uint64_t Hash(std::string_view key);

  /// The group of `key`, whose Hash is `hash`; a new key becomes group
  /// size(). Returns {group, inserted}.
  std::pair<uint32_t, bool> FindOrInsert(std::string_view key, uint64_t hash);

  /// Sizes the slot array for `groups` groups without growth.
  void Reserve(size_t groups);

  size_t size() const { return keys_.size(); }
  std::string_view key(uint32_t group) const {
    const KeyRef& k = keys_[group];
    return std::string_view(arena_).substr(k.offset, k.length);
  }
  uint64_t hash(uint32_t group) const { return keys_[group].hash; }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;
  struct Slot {
    uint64_t hash = 0;
    uint32_t group = kEmpty;
  };
  struct KeyRef {
    uint64_t hash;
    size_t offset;
    size_t length;
  };
  void Rehash(size_t capacity);

  std::vector<Slot> slots_;  // capacity: a power of two, or empty
  std::vector<KeyRef> keys_;  // per group
  std::string arena_;
};

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
    uint32_t error = 0;  // 1 + index into ShardGroups::errors; 0 if none

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
  /// One worker's groups: a GroupTable plus, per group, its
  /// representative row and flat slot states in contiguous arrays
  /// (group i's slot j is slots[i * num_slots + j]).
  struct ShardGroups {
    GroupTable table;
    std::vector<GroupPartial> groups;  // parallel to the table's groups
    std::vector<PartialState> slots;   // groups.size() * num_slots
    std::vector<Status> errors;        // the slots' deferred errors
  };
  class ItemRuns;

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
  /// fill(begin, end, slots) computes aggregate slots [begin, end) into
  /// *slots, a buffer the caller reuses across groups.
  template <typename Fill>
  Status EvalGroup(const Bindings& b, const table::ColumnBatch& input,
                   size_t rep, const Fill& fill, size_t gi,
                   std::vector<Result<table::Value>>* slots, ItemRuns* runs,
                   std::vector<char>* keep,
                   std::vector<std::vector<table::Value>>* values) const;
  /// Index mode's per-group evaluation: group gi's rows are
  /// rows[offsets[gi], offsets[gi + 1]).
  Result<table::ColumnBatch> FinishGroups(const table::ColumnBatch& input,
                                          const std::vector<size_t>& offsets,
                                          const std::vector<size_t>& rows);
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
