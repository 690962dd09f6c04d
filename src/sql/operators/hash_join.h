// HashJoin: §4.2's "broadcast join". The build side (chosen by the
// planner: the smaller input when row counts are known) is fully
// materialised into a partitioned hash index; the probe side streams
// through batch-wise. Equi conjuncts become hash keys; the remaining
// conjuncts evaluate as a residual over candidate rows. A condition
// whose equality conjuncts turn out not to split across the inputs
// degenerates to a single-key cross product with the full condition as
// residual (the nested-loop equivalent).
//
// Parallelism sets the shard count (1 when LAG is in the condition): the
// build side is partitioned by key hash, per-partition indexes are built
// across the pool, and each probe batch is sharded into contiguous row
// ranges that probe concurrently. Per-shard candidates and build-side
// match sets are merged in shard order, so output row order and match
// bookkeeping are identical at every shard count (matches enumerate in
// ascending build-row order).
//
// Outer joins pad by the *actual* build side: unmatched probe rows pad
// per batch (nulls on the build side's columns), unmatched build rows
// pad once after the probe is exhausted (nulls on the probe side's
// columns). Either input may be the build side for LEFT / FULL OUTER.
#pragma once

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "sql/bound_expr.h"
#include "sql/operators/operator.h"

namespace explainit::sql {

/// A join condition split into equi-conjunct key pairs and a residual.
/// (CollectConjuncts / HasEqualityConjunct live in operator.h.)
struct EquiKeys {
  std::vector<const Expr*> left_exprs;
  std::vector<const Expr*> right_exprs;
  std::vector<const Expr*> residual;
};

/// Splits `condition` by resolving each equality's sides against the two
/// input schemas.
EquiKeys SplitJoinCondition(const Expr* condition, const table::Schema& left,
                            const table::Schema& right);

class HashJoinOperator : public Operator {
 public:
  /// `build_left` builds the hash index on the left input (planner picks
  /// the smaller side). Output columns are always left fields then right
  /// fields regardless of orientation.
  HashJoinOperator(std::unique_ptr<Operator> left,
                   std::unique_ptr<Operator> right, const JoinClause* join,
                   const FunctionRegistry* functions, bool build_left,
                   const ExecContext* ctx = nullptr);

  const table::Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "HashJoin"; }
  void AccumulateExecStats(ExecStats* stats) const override {
    ++stats->hash_joins;
    stats->join_build_partitions =
        std::max(stats->join_build_partitions, num_partitions_);
  }

 protected:
  Status OpenImpl() override;
  Result<table::ColumnBatch> NextImpl(bool* eof) override;

 private:
  /// Rows of one hash partition, keyed by encoded join key. Row vectors
  /// are ascending build-row order, so match enumeration is deterministic.
  struct BuildPartition {
    std::unordered_map<std::string, std::vector<size_t>> index;
  };

  /// True when unmatched build rows must be emitted after the probe
  /// (FULL OUTER, or LEFT when the left input is the build side).
  bool NeedsBuildPads() const;
  /// Build partitions and probe shards: 1 when LAG is in the condition.
  size_t Parallelism() const {
    return lag_in_condition_ ? 1 : EffectiveParallelism(ctx_);
  }
  /// True when unmatched probe rows pad per batch (FULL OUTER, or LEFT
  /// when the left input is the probe side).
  bool NeedsProbePads() const;
  /// Appends one combined output row built from a probe row (i) and a
  /// build row (j) to `cols`, honouring the orientation.
  void AppendCandidate(std::vector<std::vector<table::Value>>* cols,
                       const table::ColumnBatch& batch, size_t i,
                       size_t j) const;
  Result<table::ColumnBatch> FinishBuildPads(bool* eof);

  Operator* left_;
  Operator* right_;
  const JoinClause* join_;
  const FunctionRegistry* functions_;
  const bool build_left_;
  const ExecContext* ctx_;

  table::Schema schema_;          // left fields + right fields
  table::Table build_table_;      // materialised build side
  EquiKeys keys_;
  std::vector<BuildPartition> partitions_;
  size_t num_partitions_ = 1;
  SchemaBoundExprs probe_keys_;     // key exprs of the probe side
  std::vector<BoundExpr> residual_;  // bound to the output schema
  std::vector<char> build_matched_;       // for outer pads
  size_t left_width_ = 0;
  size_t right_width_ = 0;
  size_t build_offset_ = 0;  // column offset of the build side's fields
  size_t probe_offset_ = 0;  // column offset of the probe side's fields
  size_t build_width_ = 0;
  size_t probe_width_ = 0;
  bool lag_in_condition_ = false;  // LAG reads neighbours: one shard
  bool probe_done_ = false;
  size_t pad_pos_ = 0;  // build-row cursor of the chunked pad emission
  bool pads_emitted_ = false;
};

}  // namespace explainit::sql
