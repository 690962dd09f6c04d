#include "sql/operators/hash_join.h"

#include <functional>

namespace explainit::sql {

using table::ColumnBatch;
using table::Field;
using table::Schema;
using table::Value;

namespace {

/// Probe batches are at most table::kDefaultBatchRows rows, so the
/// morsel default grain (1024) would never split them.
constexpr size_t kProbeShardMinRows = 128;

bool ResolvesAgainst(const Expr& e, const Schema& schema) {
  // An expression "belongs" to a side when every column it references
  // resolves there.
  switch (e.kind) {
    case ExprKind::kColumnRef:
      return ResolveColumn(schema, e).ok();
    case ExprKind::kLiteral:
    case ExprKind::kStar:
      return true;
    default: {
      auto check = [&](const ExprPtr& c) {
        return c == nullptr || ResolvesAgainst(*c, schema);
      };
      if (!check(e.left) || !check(e.right) || !check(e.between_lo) ||
          !check(e.between_hi) || !check(e.case_else)) {
        return false;
      }
      for (const ExprPtr& a : e.args) {
        if (!check(a)) return false;
      }
      for (const ExprPtr& a : e.list) {
        if (!check(a)) return false;
      }
      for (const CaseBranch& b : e.case_branches) {
        if (!check(b.condition) || !check(b.result)) return false;
      }
      return true;
    }
  }
}

}  // namespace

EquiKeys SplitJoinCondition(const Expr* condition, const Schema& left,
                            const Schema& right) {
  EquiKeys keys;
  if (condition == nullptr) return keys;
  std::vector<const Expr*> conjuncts;
  CollectConjuncts(condition, &conjuncts);
  for (const Expr* c : conjuncts) {
    if (c->kind == ExprKind::kBinary && c->binary_op == BinaryOp::kEq) {
      const Expr* l = c->left.get();
      const Expr* r = c->right.get();
      if (ResolvesAgainst(*l, left) && ResolvesAgainst(*r, right)) {
        keys.left_exprs.push_back(l);
        keys.right_exprs.push_back(r);
        continue;
      }
      if (ResolvesAgainst(*r, left) && ResolvesAgainst(*l, right)) {
        keys.left_exprs.push_back(r);
        keys.right_exprs.push_back(l);
        continue;
      }
    }
    keys.residual.push_back(c);
  }
  return keys;
}

HashJoinOperator::HashJoinOperator(std::unique_ptr<Operator> left,
                                   std::unique_ptr<Operator> right,
                                   const JoinClause* join,
                                   const FunctionRegistry* functions,
                                   bool build_left, const ExecContext* ctx)
    : join_(join), functions_(functions), build_left_(build_left),
      ctx_(ctx) {
  left_ = AddChild(std::move(left));
  right_ = AddChild(std::move(right));
}

bool HashJoinOperator::NeedsBuildPads() const {
  return join_->type == JoinType::kFullOuter ||
         (join_->type == JoinType::kLeft && build_left_);
}

bool HashJoinOperator::NeedsProbePads() const {
  return join_->type == JoinType::kFullOuter ||
         (join_->type == JoinType::kLeft && !build_left_);
}

void HashJoinOperator::AppendCandidate(
    std::vector<std::vector<Value>>* cols, const ColumnBatch& batch,
    size_t i, size_t j) const {
  for (size_t c = 0; c < build_width_; ++c) {
    (*cols)[build_offset_ + c].push_back(build_table_.At(j, c));
  }
  for (size_t c = 0; c < probe_width_; ++c) {
    (*cols)[probe_offset_ + c].push_back(batch.At(i, c));
  }
}

Status HashJoinOperator::OpenImpl() {
  EXPLAINIT_RETURN_IF_ERROR(left_->Open());
  EXPLAINIT_RETURN_IF_ERROR(right_->Open());
  const Schema& ls = left_->output_schema();
  const Schema& rs = right_->output_schema();
  left_width_ = ls.num_fields();
  right_width_ = rs.num_fields();
  for (const Field& f : ls.fields()) schema_.AddField(f);
  for (const Field& f : rs.fields()) schema_.AddField(f);
  build_offset_ = build_left_ ? 0 : left_width_;
  probe_offset_ = build_left_ ? left_width_ : 0;
  build_width_ = build_left_ ? left_width_ : right_width_;
  probe_width_ = build_left_ ? right_width_ : left_width_;

  keys_ = SplitJoinCondition(join_->condition.get(), ls, rs);
  for (const Expr* e : keys_.residual) {
    if (ContainsLag(*e)) lag_in_condition_ = true;
  }
  for (const Expr* e : keys_.left_exprs) {
    if (ContainsLag(*e)) lag_in_condition_ = true;
  }
  for (const Expr* e : keys_.right_exprs) {
    if (ContainsLag(*e)) lag_in_condition_ = true;
  }

  // Materialise and index the build side. Empty key lists (no resolvable
  // equi conjunct) hash everything under one key: a cross product with
  // the whole condition as residual.
  Operator* build = build_left_ ? left_ : right_;
  build_table_ = table::Table(build->output_schema());
  EXPLAINIT_RETURN_IF_ERROR(Drain(build, &build_table_));
  const ColumnBatch build_view =
      ColumnBatch::View(build_table_, 0, build_table_.num_rows());
  std::vector<BoundExpr> build_keys;
  for (const Expr* e : build_left_ ? keys_.left_exprs : keys_.right_exprs) {
    build_keys.push_back(
        BoundExpr::Bind(*e, build_table_.schema(), *functions_));
  }
  probe_keys_ = SchemaBoundExprs(
      build_left_ ? keys_.right_exprs : keys_.left_exprs, functions_);
  for (const Expr* e : keys_.residual) {
    residual_.push_back(BoundExpr::Bind(*e, schema_, *functions_));
  }

  const size_t n = build_table_.num_rows();
  const size_t parallelism = Parallelism();
  num_partitions_ = std::max<size_t>(
      1, std::min(parallelism, std::max<size_t>(1, n / 1024)));

  // Phase 1: encode every build row's key (sharded; shards write
  // disjoint ranges) and bucket non-null rows by partition per shard.
  // The hash only routes rows to partitions, so it never affects
  // results.
  std::vector<std::string> keys(n);
  std::vector<char> null_key(n, 0);
  const std::vector<RowRange> shards = ShardRows(n, parallelism);
  // buckets[s][p]: this shard's rows for partition p, ascending.
  std::vector<std::vector<std::vector<size_t>>> buckets(
      num_partitions_ > 1 ? shards.size() : 0);
  EXPLAINIT_RETURN_IF_ERROR(RunSharded(
      ctx_, shards.size(), [&](size_t s) -> Status {
        if (num_partitions_ > 1) buckets[s].resize(num_partitions_);
        RowKeyEncoder encoder(build_keys);
        encoder.Start(build_view);
        for (size_t j = shards[s].begin; j < shards[s].end; ++j) {
          bool matchable = true;
          EXPLAINIT_RETURN_IF_ERROR(encoder.Encode(j, &keys[j], &matchable));
          null_key[j] = matchable ? 0 : 1;
          if (num_partitions_ > 1 && matchable) {
            buckets[s][std::hash<std::string>{}(keys[j]) % num_partitions_]
                .push_back(j);
          }
        }
        return Status::OK();
      }));

  // Phase 2: build per-partition indexes, one task per partition; each
  // task walks only its own buckets (O(n) total across partitions).
  // Shards are contiguous ascending ranges, so visiting them in order
  // keeps rows inserting ascending: equal-key matches enumerate in
  // build order at every parallelism level (the serial path is the
  // single partition, which scans rows directly).
  partitions_.assign(num_partitions_, BuildPartition{});
  EXPLAINIT_RETURN_IF_ERROR(RunSharded(
      ctx_, num_partitions_, [&](size_t p) -> Status {
        BuildPartition& partition = partitions_[p];
        partition.index.reserve(n / num_partitions_ + 1);
        if (num_partitions_ == 1) {
          for (size_t j = 0; j < n; ++j) {
            if (!null_key[j]) partition.index[keys[j]].push_back(j);
          }
          return Status::OK();
        }
        for (const auto& shard_buckets : buckets) {
          for (const size_t j : shard_buckets[p]) {
            partition.index[keys[j]].push_back(j);
          }
        }
        return Status::OK();
      }));

  build_matched_.assign(n, 0);
  stats_.detail = std::string("build=") + (build_left_ ? "left" : "right") +
                  " rows=" + std::to_string(n) +
                  " parts=" + std::to_string(num_partitions_);
  return Status::OK();
}

Result<ColumnBatch> HashJoinOperator::FinishBuildPads(bool* eof) {
  // Build-side rows that never matched, padded with nulls on the probe
  // side's columns and emitted in batch-sized chunks — a large build side
  // with few matches would otherwise materialise one giant batch and
  // undo the pipeline's bounded-memory batching. Pads follow the actual
  // build orientation: the build side's values land on its own columns
  // whichever input it is. pad_pos_ persists the scan cursor between
  // calls; pads_emitted_ flips once the cursor exhausts the build table.
  const size_t total = build_table_.num_rows();
  std::vector<std::vector<Value>> cols(schema_.num_fields());
  size_t rows = 0;
  while (pad_pos_ < total && rows < table::kDefaultBatchRows) {
    const size_t j = pad_pos_++;
    if (build_matched_[j]) continue;
    for (size_t c = 0; c < build_width_; ++c) {
      cols[build_offset_ + c].push_back(build_table_.At(j, c));
    }
    for (size_t c = 0; c < probe_width_; ++c) {
      cols[probe_offset_ + c].push_back(Value::Null());
    }
    ++rows;
  }
  if (pad_pos_ >= total) pads_emitted_ = true;
  if (rows == 0) {
    // Every remaining build row matched: report end of stream directly
    // instead of burning a Next() round-trip on an empty non-eof batch.
    *eof = true;
    return ColumnBatch{};
  }
  ColumnBatch out(&schema_, rows);
  for (auto& col : cols) out.AddOwnedColumn(std::move(col));
  *eof = false;
  return out;
}

Result<ColumnBatch> HashJoinOperator::NextImpl(bool* eof) {
  if (probe_done_) {
    if (NeedsBuildPads() && !pads_emitted_) {
      return FinishBuildPads(eof);
    }
    *eof = true;
    return ColumnBatch{};
  }
  Operator* probe = build_left_ ? right_ : left_;
  while (true) {
    bool probe_eof = false;
    EXPLAINIT_ASSIGN_OR_RETURN(ColumnBatch batch, probe->Next(&probe_eof));
    if (probe_eof) {
      probe_done_ = true;
      if (NeedsBuildPads() && !pads_emitted_) {
        return FinishBuildPads(eof);
      }
      *eof = true;
      return ColumnBatch{};
    }

    // Shard the probe batch into contiguous row ranges. Each shard
    // assembles its candidate rows, applies the residual, and records
    // its matches locally; shard-order merge then reproduces the serial
    // order (ascending probe row, matches ascending by build row).
    const size_t rows = batch.num_rows();
    const std::vector<RowRange> shards =
        ShardRows(rows, Parallelism(), kProbeShardMinRows);
    struct ProbeShard {
      ColumnBatch out;                    // kept candidates, owned
      std::vector<size_t> matched_build;  // build rows kept by residual
    };
    std::vector<ProbeShard> locals(shards.size());
    std::vector<char> probe_matched(rows, 0);  // disjoint writes per shard
    const std::vector<BoundExpr>& probe_keys = probe_keys_.For(batch.schema());
    EXPLAINIT_RETURN_IF_ERROR(RunSharded(
        ctx_, shards.size(), [&](size_t s) -> Status {
          ProbeShard& local = locals[s];
          std::vector<std::vector<Value>> cand(schema_.num_fields());
          std::vector<uint32_t> cand_probe;
          std::vector<size_t> cand_build;
          std::string key;
          RowKeyEncoder encoder(probe_keys);
          encoder.Start(batch);
          for (size_t i = shards[s].begin; i < shards[s].end; ++i) {
            bool matchable = true;
            EXPLAINIT_RETURN_IF_ERROR(encoder.Encode(i, &key, &matchable));
            if (!matchable) continue;
            const size_t p =
                num_partitions_ > 1
                    ? std::hash<std::string>{}(key) % num_partitions_
                    : 0;
            const auto it = partitions_[p].index.find(key);
            if (it == partitions_[p].index.end()) continue;
            for (const size_t j : it->second) {
              AppendCandidate(&cand, batch, i, j);
              cand_probe.push_back(static_cast<uint32_t>(i));
              cand_build.push_back(j);
            }
          }
          ColumnBatch cand_batch(&schema_, cand_probe.size());
          for (auto& col : cand) cand_batch.AddOwnedColumn(std::move(col));

          // Residual conjuncts filter the candidates; only passing rows
          // count as matches.
          if (residual_.empty()) {
            for (size_t k = 0; k < cand_probe.size(); ++k) {
              probe_matched[cand_probe[k]] = 1;
              local.matched_build.push_back(cand_build[k]);
            }
            local.out = std::move(cand_batch);
            return Status::OK();
          }
          std::vector<uint32_t> kept;
          EXPLAINIT_RETURN_IF_ERROR(SelectRows(
              residual_, cand_batch, 0, cand_batch.num_rows(), &kept));
          for (const uint32_t k : kept) {
            probe_matched[cand_probe[k]] = 1;
            local.matched_build.push_back(cand_build[k]);
          }
          local.out = cand_batch.Gather(kept);
          local.out.set_schema(&schema_);
          return Status::OK();
        }));

    // Merge match bookkeeping in shard order (deterministic, and the
    // only writer of build_matched_ once the shards have joined).
    size_t match_rows = 0;
    for (ProbeShard& local : locals) {
      for (const size_t j : local.matched_build) build_matched_[j] = 1;
      match_rows += local.out.num_rows();
    }

    // Pad unmatched probe rows for LEFT (probe = left) / FULL OUTER:
    // probe values on the probe side's columns, nulls on the build
    // side's.
    std::vector<std::vector<Value>> pad(schema_.num_fields());
    size_t pad_rows = 0;
    if (NeedsProbePads()) {
      for (size_t i = 0; i < rows; ++i) {
        if (probe_matched[i]) continue;
        for (size_t c = 0; c < probe_width_; ++c) {
          pad[probe_offset_ + c].push_back(batch.At(i, c));
        }
        for (size_t c = 0; c < build_width_; ++c) {
          pad[build_offset_ + c].push_back(Value::Null());
        }
        ++pad_rows;
      }
    }

    const size_t out_rows = match_rows + pad_rows;
    if (out_rows == 0) continue;  // fully filtered batch: pull more
    if (locals.size() == 1 && pad_rows == 0) {
      *eof = false;
      return std::move(locals[0].out);
    }
    std::vector<std::vector<Value>> merged(schema_.num_fields());
    for (size_t c = 0; c < schema_.num_fields(); ++c) {
      merged[c].reserve(out_rows);
      for (const ProbeShard& local : locals) {
        if (local.out.num_rows() == 0) continue;
        const Value* src = local.out.column(c);
        merged[c].insert(merged[c].end(), src,
                         src + local.out.num_rows());
      }
      for (auto& v : pad[c]) merged[c].push_back(std::move(v));
    }
    ColumnBatch out(&schema_, out_rows);
    for (auto& col : merged) out.AddOwnedColumn(std::move(col));
    *eof = false;
    return out;
  }
}

}  // namespace explainit::sql
