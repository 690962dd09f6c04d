#include "sql/operators/hash_aggregate.h"

#include <algorithm>
#include <cmath>

namespace explainit::sql {

using table::ColumnBatch;
using table::DataType;
using table::Field;
using table::Value;

namespace {

// Computes one aggregate over a set of row indices; `args` are the call's
// arguments bound to `input`.
Result<Value> ComputeAggregate(const Expr& agg,
                               const std::vector<BoundExpr>& args,
                               const ColumnBatch& input,
                               const std::vector<size_t>& rows) {
  const std::string& name = agg.function_name;
  if (name == "COUNT") {
    if (agg.args.size() != 1) {
      return Status::InvalidArgument("COUNT expects 1 argument");
    }
    if (agg.args[0]->kind == ExprKind::kStar) {
      return Value::Int(static_cast<int64_t>(rows.size()));
    }
    int64_t n = 0;
    for (size_t r : rows) {
      EXPLAINIT_ASSIGN_OR_RETURN(Value v, args[0].EvalRow(input, r));
      if (!v.is_null()) ++n;
    }
    return Value::Int(n);
  }
  if (name == "__SUM_COUNT") {
    // COUNT partial: sums pre-counted values (rollup bucket counts, or
    // partial-aggregate counts), finalising with COUNT's integer type.
    if (agg.args.size() != 1 || agg.args[0] == nullptr ||
        agg.args[0]->kind == ExprKind::kStar) {
      return Status::InvalidArgument("__SUM_COUNT expects 1 argument");
    }
    double acc = 0.0;
    for (size_t r : rows) {
      EXPLAINIT_ASSIGN_OR_RETURN(Value v, args[0].EvalRow(input, r));
      if (!v.is_null()) acc += v.AsDouble();
    }
    return Value::Int(std::llround(acc));
  }
  if (agg.args.empty()) {
    return Status::InvalidArgument(name + " expects an argument");
  }
  std::vector<double> values;
  values.reserve(rows.size());
  for (size_t r : rows) {
    EXPLAINIT_ASSIGN_OR_RETURN(Value v, args[0].EvalRow(input, r));
    if (!v.is_null()) values.push_back(v.AsDouble());
  }
  if (values.empty()) return Value::Null();
  if (name == "SUM" || name == "AVG") {
    double acc = 0.0;
    for (double v : values) acc += v;
    if (name == "SUM") return Value::Double(acc);
    return Value::Double(acc / static_cast<double>(values.size()));
  }
  if (name == "MIN") {
    return Value::Double(*std::min_element(values.begin(), values.end()));
  }
  if (name == "MAX") {
    return Value::Double(*std::max_element(values.begin(), values.end()));
  }
  if (name == "STDDEV") {
    double mean = 0.0;
    for (double v : values) mean += v;
    mean /= static_cast<double>(values.size());
    double var = 0.0;
    for (double v : values) var += (v - mean) * (v - mean);
    var /= static_cast<double>(values.size());
    return Value::Double(std::sqrt(var));
  }
  if (name == "PERCENTILE") {
    if (agg.args.size() != 2) {
      return Status::InvalidArgument("PERCENTILE expects (expr, p)");
    }
    EXPLAINIT_ASSIGN_OR_RETURN(Value pv, args[1].EvalRow(input, rows[0]));
    double p = pv.AsDouble();
    if (p > 1.0) p /= 100.0;  // accept both 0.99 and 99
    p = std::clamp(p, 0.0, 1.0);
    std::sort(values.begin(), values.end());
    const double idx = p * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(idx);
    const size_t hi = std::min(values.size() - 1, lo + 1);
    const double frac = idx - static_cast<double>(lo);
    return Value::Double(values[lo] * (1.0 - frac) + values[hi] * frac);
  }
  return Status::Unimplemented("aggregate not implemented: " + name);
}

/// Collects the topmost aggregate call nodes of an expression tree (the
/// granularity group evaluation substitutes at; nested aggregates inside
/// an argument are a scalar-context error when evaluated).
void CollectTopAggregates(const Expr& e, std::vector<const Expr*>* out) {
  if (e.kind == ExprKind::kFunction && IsAggregateFunction(e.function_name)) {
    out->push_back(&e);
    return;
  }
  auto walk = [&](const ExprPtr& c) {
    if (c != nullptr) CollectTopAggregates(*c, out);
  };
  walk(e.left);
  walk(e.right);
  walk(e.between_lo);
  walk(e.between_hi);
  walk(e.case_else);
  for (const ExprPtr& a : e.args) walk(a);
  for (const ExprPtr& a : e.list) walk(a);
  for (const CaseBranch& b : e.case_branches) {
    walk(b.condition);
    walk(b.result);
  }
}

/// True when the aggregate call decomposes into flat partial states whose
/// merged finalisation matches ComputeAggregate exactly.
bool IsDecomposable(const Expr& agg) {
  const std::string& n = agg.function_name;
  if (n == "COUNT") {
    return agg.args.size() == 1 && agg.args[0] != nullptr;
  }
  if (n == "SUM" || n == "AVG" || n == "MIN" || n == "MAX" ||
      n == "__SUM_COUNT") {
    return !agg.args.empty() && agg.args[0] != nullptr &&
           agg.args[0]->kind != ExprKind::kStar;
  }
  return false;
}

}  // namespace

HashAggregateOperator::HashAggregateOperator(
    std::unique_ptr<Operator> input, const SelectStatement* stmt,
    const FunctionRegistry* functions, const ExecContext* ctx,
    bool retain_input)
    : stmt_(stmt), functions_(functions), ctx_(ctx),
      retain_input_(retain_input) {
  input_ = AddChild(std::move(input));
}

Status HashAggregateOperator::OpenImpl() {
  EXPLAINIT_RETURN_IF_ERROR(input_->Open());
  for (const SelectItem& item : stmt_->items) {
    if (item.is_star) {
      return Status::InvalidArgument("SELECT * with GROUP BY is not allowed");
    }
    schema_.AddField(Field{ItemName(item), DataType::kNull});
    if (ContainsLag(*item.expr)) lag_anywhere_ = true;
    CollectTopAggregates(*item.expr, &agg_nodes_);
  }
  having_slots_ = agg_nodes_.size();
  for (const ExprPtr& g : stmt_->group_by) {
    if (ContainsLag(*g)) lag_anywhere_ = true;
  }
  if (stmt_->having != nullptr) {
    if (ContainsLag(*stmt_->having)) lag_anywhere_ = true;
    CollectTopAggregates(*stmt_->having, &agg_nodes_);
  }
  partial_ok_ = std::all_of(
      agg_nodes_.begin(), agg_nodes_.end(),
      [](const Expr* a) { return IsDecomposable(*a); });
  for (const Expr* a : agg_nodes_) {
    count_star_.push_back(!a->args.empty() && a->args[0] != nullptr &&
                          a->args[0]->kind == ExprKind::kStar);
  }
  acc_ = table::Table(input_->output_schema());
  BindFor(input_->output_schema());
  return Status::OK();
}

const HashAggregateOperator::Bindings& HashAggregateOperator::BindFor(
    const table::Schema& schema) {
  for (size_t i = 0; i < bound_schemas_.size(); ++i) {
    if (bound_schemas_[i] == &schema) return *bindings_[i];
  }
  auto b = std::make_unique<Bindings>();
  for (const ExprPtr& g : stmt_->group_by) {
    b->keys.push_back(BoundExpr::Bind(*g, schema, *functions_));
  }
  for (const Expr* agg : agg_nodes_) {
    std::vector<BoundExpr> args;
    for (const ExprPtr& a : agg->args) {
      args.push_back(BoundExpr::Bind(*a, schema, *functions_));
    }
    b->agg_args.push_back(std::move(args));
  }
  for (const SelectItem& item : stmt_->items) {
    b->items.push_back(
        BoundExpr::BindGroup(*item.expr, schema, *functions_, agg_nodes_));
  }
  if (stmt_->having != nullptr) {
    b->having =
        BoundExpr::BindGroup(*stmt_->having, schema, *functions_, agg_nodes_);
  }
  bound_schemas_.push_back(&schema);
  bindings_.push_back(std::move(b));
  return *bindings_.back();
}

Result<ColumnBatch> HashAggregateOperator::NextImpl(bool* eof) {
  if (done_) {
    *eof = true;
    return ColumnBatch{};
  }
  done_ = true;
  *eof = false;
  // LAG reads neighbouring rows of the whole relation: one shard.
  shards_ = lag_anywhere_ ? 1 : EffectiveParallelism(ctx_);
  return partial_ok_ ? PartialNext() : IndexNext();
}

ColumnBatch HashAggregateOperator::EmitRows(
    std::vector<std::vector<Value>> cols, const std::vector<char>& keep) {
  const size_t num_groups = keep.size();
  size_t rows = 0;
  for (char k : keep) rows += k != 0;
  if (rows != num_groups) {
    // Compact kept groups in first-appearance order.
    for (auto& col : cols) {
      size_t out = 0;
      for (size_t gi = 0; gi < num_groups; ++gi) {
        if (!keep[gi]) continue;
        if (out != gi) col[out] = std::move(col[gi]);
        ++out;
      }
      col.resize(rows);
    }
  }
  ColumnBatch out(&schema_, rows);
  for (auto& col : cols) out.AddOwnedColumn(std::move(col));
  return out;
}

ColumnBatch HashAggregateOperator::EmptyGlobalRow() {
  // Aggregates over no rows yield NULL, COUNT yields 0.
  std::vector<std::vector<Value>> cols(schema_.num_fields());
  for (size_t i = 0; i < stmt_->items.size(); ++i) {
    const Expr& e = *stmt_->items[i].expr;
    cols[i].push_back(e.kind == ExprKind::kFunction &&
                              (e.function_name == "COUNT" ||
                               e.function_name == "__SUM_COUNT")
                          ? Value::Int(0)
                          : Value::Null());
  }
  return EmitRows(std::move(cols), std::vector<char>(1, 1));
}

Status HashAggregateOperator::CollectMorsels() {
  if (!lag_anywhere_ && !retain_input_) {
    // The child's batches stay valid for the life of the tree: buffer
    // them as morsels without copying.
    bool child_eof = false;
    while (true) {
      EXPLAINIT_ASSIGN_OR_RETURN(ColumnBatch batch, input_->Next(&child_eof));
      if (child_eof) return Status::OK();
      if (batch.num_rows() > 0) morsels_.push_back(std::move(batch));
    }
  }
  EXPLAINIT_RETURN_IF_ERROR(Drain(input_, &acc_));
  retained_ptr_ = &acc_;
  for (const RowRange& range : ShardRows(acc_.num_rows(), shards_)) {
    if (range.size() == 0) continue;
    morsels_.push_back(ColumnBatch::View(acc_, range.begin, range.size()));
  }
  return Status::OK();
}

template <typename Fill>
Status HashAggregateOperator::EvalGroup(
    const Bindings& b, const ColumnBatch& input, size_t rep,
    const Fill& fill, size_t gi, std::vector<char>* keep,
    std::vector<std::vector<Value>>* values) const {
  // HAVING's aggregates first; the select list's only for survivors.
  std::vector<Result<Value>> slots(agg_nodes_.size(), Value());
  if (stmt_->having != nullptr) {
    fill(having_slots_, agg_nodes_.size(), &slots);
    EXPLAINIT_ASSIGN_OR_RETURN(Value v,
                               b.having.EvalRow(input, rep, slots.data()));
    if (v.is_null() || !v.AsBool()) {
      (*keep)[gi] = 0;
      return Status::OK();
    }
  }
  fill(0, having_slots_, &slots);
  for (size_t i = 0; i < b.items.size(); ++i) {
    EXPLAINIT_ASSIGN_OR_RETURN((*values)[i][gi],
                               b.items[i].EvalRow(input, rep, slots.data()));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Partial mode: per-shard flat partial states, merged in shard order
// ---------------------------------------------------------------------------

Status HashAggregateOperator::PartialAccumulate(const ColumnBatch& batch,
                                                const Bindings& b,
                                                uint32_t batch_index,
                                                ShardGroups* local) const {
  const size_t num_slots = agg_nodes_.size();
  std::string key;
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    // The key lives in a reused buffer; only a first-seen key is copied.
    bool matchable = true;
    EXPLAINIT_RETURN_IF_ERROR(EncodeRowKey(b.keys, batch, r, &key, &matchable));
    auto [it, inserted] = local->index.try_emplace(key, local->groups.size());
    if (inserted) {
      local->order.push_back(&it->first);
      GroupPartial g;
      g.first_batch = batch_index;
      g.first_row = static_cast<uint32_t>(r);
      local->groups.push_back(g);
      local->slots.resize(local->slots.size() + num_slots);
    }
    ++local->groups[it->second].rows;
    PartialState* slots = local->slots.data() + it->second * num_slots;
    for (size_t i = 0; i < num_slots; ++i) {
      PartialState& st = slots[i];
      if (count_star_[i] || !st.error.ok()) continue;
      Value tmp;
      const Value* v = nullptr;
      Status s = b.agg_args[i][0].EvalRef(batch, r, &tmp, &v);
      if (!s.ok()) {
        // Deferred like index mode: only surfaces if the group
        // survives HAVING and the slot is consulted.
        st.error = std::move(s);
        continue;
      }
      if (!v->is_null()) st.Accumulate(v->AsDouble());
    }
  }
  return Status::OK();
}

Result<ColumnBatch> HashAggregateOperator::PartialNext() {
  EXPLAINIT_RETURN_IF_ERROR(CollectMorsels());
  size_t total_rows = 0;
  for (const ColumnBatch& m : morsels_) total_rows += m.num_rows();

  if (total_rows == 0) {
    stats_.detail = stmt_->group_by.empty() ? "1 group (partial)"
                                            : "0 groups (partial)";
    if (stmt_->group_by.empty()) return EmptyGlobalRow();
    return EmitRows(std::vector<std::vector<Value>>(schema_.num_fields()),
                    {});
  }

  // Bind once per distinct morsel schema, before the fan-out.
  std::vector<const Bindings*> morsel_bindings;
  for (const ColumnBatch& m : morsels_) {
    morsel_bindings.push_back(&BindFor(m.schema()));
  }

  // Assign contiguous batch runs to shards, balancing by row count. The
  // assignment depends only on the batch layout and the shard count, so
  // merges happen in a deterministic order.
  const size_t want_shards = std::max<size_t>(
      1, std::min<size_t>(shards_, std::max<size_t>(1, total_rows / 1024)));
  std::vector<std::pair<size_t, size_t>> runs;  // [batch_begin, batch_end)
  {
    size_t cum = 0;
    size_t start = 0;
    for (size_t b = 0; b < morsels_.size(); ++b) {
      cum += morsels_[b].num_rows();
      if (cum * want_shards >= total_rows * (runs.size() + 1) ||
          b + 1 == morsels_.size()) {
        runs.emplace_back(start, b + 1);
        start = b + 1;
      }
    }
  }

  // Phase 1: per-shard grouping with flat partial states.
  std::vector<ShardGroups> shards(runs.size());
  EXPLAINIT_RETURN_IF_ERROR(RunSharded(
      ctx_, runs.size(), [&](size_t s) -> Status {
        ShardGroups& local = shards[s];
        size_t run_rows = 0;
        for (size_t b = runs[s].first; b < runs[s].second; ++b) {
          run_rows += morsels_[b].num_rows();
        }
        // Upper bound on this shard's group count: no rehash mid-shard.
        local.index.reserve(run_rows);
        for (size_t b = runs[s].first; b < runs[s].second; ++b) {
          EXPLAINIT_RETURN_IF_ERROR(
              PartialAccumulate(morsels_[b], *morsel_bindings[b],
                                static_cast<uint32_t>(b), &local));
        }
        return Status::OK();
      }));

  // Merge stage: combine per-shard partials in shard order (shard order
  // is row order, so first-appearance order and first-error-wins do not
  // depend on the shard count).
  const size_t num_slots = agg_nodes_.size();
  size_t total_groups = 0;
  for (const ShardGroups& local : shards) total_groups += local.groups.size();
  ShardGroups merged;
  for (ShardGroups& local : shards) {
    if (merged.groups.empty()) {
      merged = std::move(local);
      merged.index.reserve(total_groups);
      continue;
    }
    for (size_t li = 0; li < local.groups.size(); ++li) {
      const GroupPartial& lg = local.groups[li];
      const PartialState* lslots = local.slots.data() + li * num_slots;
      auto [it, inserted] =
          merged.index.try_emplace(*local.order[li], merged.groups.size());
      if (inserted) {
        merged.order.push_back(&it->first);
        merged.groups.push_back(lg);
        merged.slots.insert(merged.slots.end(), lslots,
                            lslots + num_slots);
        continue;
      }
      GroupPartial& g = merged.groups[it->second];
      PartialState* slots = merged.slots.data() + it->second * num_slots;
      g.rows += lg.rows;
      for (size_t i = 0; i < num_slots; ++i) {
        const PartialState& a = lslots[i];
        PartialState& st = slots[i];
        if (st.error.ok() && !a.error.ok()) st.error = a.error;
        if (a.non_null == 0) continue;
        if (st.non_null == 0) {
          st.min = a.min;
          st.max = a.max;
        } else {
          st.min = std::min(st.min, a.min);
          st.max = std::max(st.max, a.max);
        }
        st.sum += a.sum;
        st.non_null += a.non_null;
      }
    }
  }

  // Finalisation: merged partials fill the aggregate slots; HAVING and
  // the select list evaluate per group, in parallel over groups.
  const size_t num_groups = merged.groups.size();
  std::vector<char> keep(num_groups, 1);
  std::vector<std::vector<Value>> values(schema_.num_fields());
  for (auto& col : values) col.resize(num_groups);
  const std::vector<RowRange> group_shards = ShardRows(num_groups, shards_);
  EXPLAINIT_RETURN_IF_ERROR(RunSharded(
      ctx_, group_shards.size(), [&](size_t s) -> Status {
        for (size_t gi = group_shards[s].begin; gi < group_shards[s].end;
             ++gi) {
          const GroupPartial& g = merged.groups[gi];
          const PartialState* states = merged.slots.data() + gi * num_slots;
          auto fill = [&](size_t begin, size_t end,
                          std::vector<Result<Value>>* slots) {
            for (size_t i = begin; i < end; ++i) {
              const PartialState& st = states[i];
              const std::string& n = agg_nodes_[i]->function_name;
              Result<Value>& out = (*slots)[i];
              if (!st.error.ok()) {
                out = st.error;
              } else if (n == "COUNT") {
                out = Value::Int(count_star_[i]
                                     ? static_cast<int64_t>(g.rows)
                                     : st.non_null);
              } else if (n == "__SUM_COUNT") {
                out = Value::Int(st.non_null == 0 ? 0 : std::llround(st.sum));
              } else if (st.non_null == 0) {
                out = Value::Null();
              } else if (n == "SUM") {
                out = Value::Double(st.sum);
              } else if (n == "AVG") {
                out = Value::Double(st.sum / static_cast<double>(st.non_null));
              } else {
                out = Value::Double(n == "MIN" ? st.min : st.max);
              }
            }
          };
          EXPLAINIT_RETURN_IF_ERROR(
              EvalGroup(*morsel_bindings[g.first_batch],
                        morsels_[g.first_batch], g.first_row, fill, gi,
                        &keep, &values));
        }
        return Status::OK();
      }));

  stats_.detail = std::to_string(num_groups) + " groups (partial, " +
                  std::to_string(runs.size()) + " shards)";
  return EmitRows(std::move(values), keep);
}

// ---------------------------------------------------------------------------
// Index mode: row-index groups, per-group evaluation
// ---------------------------------------------------------------------------

Result<ColumnBatch> HashAggregateOperator::FinishGroups(
    const ColumnBatch& input) {
  // A global aggregate is one group even over zero rows.
  if (group_order_.empty() && stmt_->group_by.empty()) {
    return EmptyGlobalRow();
  }
  const Bindings& b = BindFor(input.schema());
  const size_t num_groups = group_order_.size();
  std::vector<char> keep(num_groups, 1);
  std::vector<std::vector<Value>> values(schema_.num_fields());
  for (auto& col : values) col.resize(num_groups);
  const std::vector<RowRange> group_shards = ShardRows(num_groups, shards_);
  EXPLAINIT_RETURN_IF_ERROR(RunSharded(
      ctx_, group_shards.size(), [&](size_t s) -> Status {
        for (size_t gi = group_shards[s].begin; gi < group_shards[s].end;
             ++gi) {
          const std::vector<size_t>& rows = groups_.at(group_order_[gi]);
          auto fill = [&](size_t begin, size_t end,
                          std::vector<Result<Value>>* slots) {
            for (size_t i = begin; i < end; ++i) {
              (*slots)[i] =
                  ComputeAggregate(*agg_nodes_[i], b.agg_args[i], input, rows);
            }
          };
          EXPLAINIT_RETURN_IF_ERROR(
              EvalGroup(b, input, rows[0], fill, gi, &keep, &values));
        }
        return Status::OK();
      }));
  return EmitRows(std::move(values), keep);
}

Result<ColumnBatch> HashAggregateOperator::IndexNext() {
  // Aggregates read their groups' rows by index: drain into one input.
  EXPLAINIT_RETURN_IF_ERROR(Drain(input_, &acc_));
  retained_ptr_ = &acc_;
  const ColumnBatch input = ColumnBatch::View(acc_, 0, acc_.num_rows());
  const std::vector<BoundExpr>& keys = BindFor(acc_.schema()).keys;
  const std::vector<RowRange> shards = ShardRows(acc_.num_rows(), shards_);

  // Phase 1: per-shard grouping of row indices (ascending within a
  // shard); the order vector borrows the map's node-stable keys.
  struct ShardIndex {
    std::unordered_map<std::string, std::vector<size_t>> groups;
    std::vector<const std::string*> order;
  };
  std::vector<ShardIndex> locals(shards.size());
  EXPLAINIT_RETURN_IF_ERROR(RunSharded(
      ctx_, shards.size(), [&](size_t s) -> Status {
        ShardIndex& local = locals[s];
        std::string key;
        for (size_t r = shards[s].begin; r < shards[s].end; ++r) {
          bool matchable = true;
          EXPLAINIT_RETURN_IF_ERROR(
              EncodeRowKey(keys, input, r, &key, &matchable));
          auto [it, inserted] = local.groups.try_emplace(key);
          if (inserted) local.order.push_back(&it->first);
          it->second.push_back(r);
        }
        return Status::OK();
      }));
  // Merge in shard order: concatenation keeps row indices ascending and
  // first-appearance order independent of the shard count.
  for (ShardIndex& local : locals) {
    for (const std::string* k : local.order) {
      std::vector<size_t>& rows = local.groups.at(*k);
      auto [it, inserted] = groups_.try_emplace(*k);
      if (inserted) {
        group_order_.push_back(*k);
        it->second = std::move(rows);
      } else {
        it->second.insert(it->second.end(), rows.begin(), rows.end());
      }
    }
  }

  // Phase 2: the per-group evaluation, fanned out across groups.
  EXPLAINIT_ASSIGN_OR_RETURN(ColumnBatch out, FinishGroups(input));
  stats_.detail = std::to_string(group_order_.size()) + " groups (" +
                  std::to_string(shards.size()) + " shards)";
  return out;
}

}  // namespace explainit::sql
