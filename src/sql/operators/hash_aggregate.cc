#include "sql/operators/hash_aggregate.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <span>

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
                               std::span<const size_t> rows) {
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

uint64_t GroupTable::Hash(std::string_view key) {
  return std::hash<std::string_view>{}(key);
}

std::pair<uint32_t, bool> GroupTable::FindOrInsert(std::string_view key,
                                                   uint64_t hash) {
  if ((keys_.size() + 1) * 2 > slots_.size()) {
    Rehash(std::max<size_t>(16, slots_.size() * 2));
  }
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.group == kEmpty) {
      slot.hash = hash;
      slot.group = static_cast<uint32_t>(keys_.size());
      keys_.push_back(KeyRef{hash, arena_.size(), key.size()});
      arena_.append(key);
      return {slot.group, true};
    }
    if (slot.hash == hash && this->key(slot.group) == key) {
      return {slot.group, false};
    }
  }
}

void GroupTable::Reserve(size_t groups) {
  size_t capacity = std::max<size_t>(16, slots_.size());
  while (groups * 2 > capacity) capacity *= 2;
  if (capacity > slots_.size()) Rehash(capacity);
}

void GroupTable::Rehash(size_t capacity) {
  slots_.assign(capacity, Slot{});
  const size_t mask = capacity - 1;
  for (uint32_t g = 0; g < keys_.size(); ++g) {
    size_t i = keys_[g].hash & mask;
    while (slots_[i].group != kEmpty) i = (i + 1) & mask;
    slots_[i] = Slot{keys_[g].hash, g};
  }
}

/// Evaluates select items at representative rows for one group shard,
/// reusing an item's previous value while successive representative rows
/// of one input repeat the cells it reads (RunMemo).
class HashAggregateOperator::ItemRuns {
 public:
  /// Switches to the rows of `input`, bound by `b`.
  void Start(const Bindings& b, const ColumnBatch& input) {
    if (&input == input_) return;
    input_ = &input;
    if (&b != b_) {
      b_ = &b;
      memos_.clear();
      for (const BoundExpr& item : b.items) memos_.emplace_back(item);
      cached_.assign(b.items.size(), Value());
    } else {
      for (RunMemo& m : memos_) m.Forget();
    }
  }

  /// Item i at row `rep` of the current input.
  Status Eval(size_t i, size_t rep, const Result<Value>* slots, Value* out) {
    RunMemo& memo = memos_[i];
    if (memo.Hit(*input_, rep)) {
      *out = cached_[i];
      return Status::OK();
    }
    EXPLAINIT_ASSIGN_OR_RETURN(*out, b_->items[i].EvalRow(*input_, rep, slots));
    if (memo.enabled()) {
      cached_[i] = *out;
      memo.Remember(rep);
    }
    return Status::OK();
  }

 private:
  const Bindings* b_ = nullptr;
  const ColumnBatch* input_ = nullptr;
  std::vector<RunMemo> memos_;
  std::vector<Value> cached_;
};

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
    const Fill& fill, size_t gi, std::vector<Result<Value>>* slots,
    ItemRuns* runs, std::vector<char>* keep,
    std::vector<std::vector<Value>>* values) const {
  // HAVING's aggregates first; the select list's only for survivors.
  if (stmt_->having != nullptr) {
    fill(having_slots_, agg_nodes_.size(), slots);
    EXPLAINIT_ASSIGN_OR_RETURN(Value v,
                               b.having.EvalRow(input, rep, slots->data()));
    if (v.is_null() || !v.AsBool()) {
      (*keep)[gi] = 0;
      return Status::OK();
    }
  }
  fill(0, having_slots_, slots);
  runs->Start(b, input);
  for (size_t i = 0; i < b.items.size(); ++i) {
    EXPLAINIT_RETURN_IF_ERROR(
        runs->Eval(i, rep, slots->data(), &(*values)[i][gi]));
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
  RowKeyEncoder encoder(b.keys);
  encoder.Start(batch);
  std::string key;
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    bool matchable = true;
    EXPLAINIT_RETURN_IF_ERROR(encoder.Encode(r, &key, &matchable));
    const auto [gi, inserted] =
        local->table.FindOrInsert(key, GroupTable::Hash(key));
    if (inserted) {
      GroupPartial g;
      g.first_batch = batch_index;
      g.first_row = static_cast<uint32_t>(r);
      local->groups.push_back(g);
      local->slots.resize(local->slots.size() + num_slots);
    }
    ++local->groups[gi].rows;
    PartialState* slots = local->slots.data() + size_t{gi} * num_slots;
    for (size_t i = 0; i < num_slots; ++i) {
      PartialState& st = slots[i];
      if (count_star_[i] || st.error != 0) continue;
      Value tmp;
      const Value* v = nullptr;
      Status s = b.agg_args[i][0].EvalRef(batch, r, &tmp, &v);
      if (!s.ok()) {
        // Deferred like index mode: only surfaces if the group
        // survives HAVING and the slot is consulted.
        local->errors.push_back(std::move(s));
        st.error = static_cast<uint32_t>(local->errors.size());
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
        for (size_t b = runs[s].first; b < runs[s].second; ++b) {
          EXPLAINIT_RETURN_IF_ERROR(
              PartialAccumulate(morsels_[b], *morsel_bindings[b],
                                static_cast<uint32_t>(b), &shards[s]));
        }
        return Status::OK();
      }));

  // Merge stage: combine per-shard partials in shard order (shard order
  // is row order, so first-appearance order and first-error-wins do not
  // depend on the shard count). Probes reuse the shards' stored hashes.
  const size_t num_slots = agg_nodes_.size();
  size_t total_groups = 0;
  for (const ShardGroups& local : shards) total_groups += local.groups.size();
  ShardGroups merged = std::move(shards[0]);
  merged.table.Reserve(total_groups);
  for (size_t s = 1; s < shards.size(); ++s) {
    const ShardGroups& local = shards[s];
    for (uint32_t li = 0; li < local.groups.size(); ++li) {
      const GroupPartial& lg = local.groups[li];
      const PartialState* lslots = local.slots.data() + size_t{li} * num_slots;
      const auto [gi, inserted] =
          merged.table.FindOrInsert(local.table.key(li), local.table.hash(li));
      auto take_error = [&](const PartialState& a, PartialState* st) {
        merged.errors.push_back(local.errors[a.error - 1]);
        st->error = static_cast<uint32_t>(merged.errors.size());
      };
      if (inserted) {
        merged.groups.push_back(lg);
        merged.slots.insert(merged.slots.end(), lslots, lslots + num_slots);
        PartialState* slots = &merged.slots[merged.slots.size() - num_slots];
        for (size_t i = 0; i < num_slots; ++i) {
          if (lslots[i].error != 0) take_error(lslots[i], &slots[i]);
        }
        continue;
      }
      merged.groups[gi].rows += lg.rows;
      PartialState* slots = merged.slots.data() + size_t{gi} * num_slots;
      for (size_t i = 0; i < num_slots; ++i) {
        const PartialState& a = lslots[i];
        PartialState& st = slots[i];
        if (st.error == 0 && a.error != 0) take_error(a, &st);
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
        std::vector<Result<Value>> slot_values(num_slots, Value());
        ItemRuns runs;
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
              if (st.error != 0) {
                out = merged.errors[st.error - 1];
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
                        &slot_values, &runs, &keep, &values));
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
    const ColumnBatch& input, const std::vector<size_t>& offsets,
    const std::vector<size_t>& rows) {
  const size_t num_groups = offsets.size() - 1;
  // A global aggregate is one group even over zero rows.
  if (num_groups == 0 && stmt_->group_by.empty()) return EmptyGlobalRow();
  const Bindings& b = BindFor(input.schema());
  std::vector<char> keep(num_groups, 1);
  std::vector<std::vector<Value>> values(schema_.num_fields());
  for (auto& col : values) col.resize(num_groups);
  const std::vector<RowRange> group_shards = ShardRows(num_groups, shards_);
  EXPLAINIT_RETURN_IF_ERROR(RunSharded(
      ctx_, group_shards.size(), [&](size_t s) -> Status {
        std::vector<Result<Value>> slot_values(agg_nodes_.size(), Value());
        ItemRuns runs;
        for (size_t gi = group_shards[s].begin; gi < group_shards[s].end;
             ++gi) {
          const std::span<const size_t> group_rows(
              rows.data() + offsets[gi], offsets[gi + 1] - offsets[gi]);
          auto fill = [&](size_t begin, size_t end,
                          std::vector<Result<Value>>* slots) {
            for (size_t i = begin; i < end; ++i) {
              (*slots)[i] = ComputeAggregate(*agg_nodes_[i], b.agg_args[i],
                                             input, group_rows);
            }
          };
          EXPLAINIT_RETURN_IF_ERROR(EvalGroup(b, input, group_rows[0], fill,
                                              gi, &slot_values, &runs, &keep,
                                              &values));
        }
        return Status::OK();
      }));
  return EmitRows(std::move(values), keep);
}

Result<ColumnBatch> HashAggregateOperator::IndexNext() {
  // Aggregates read their groups' rows by index: drain into one input.
  EXPLAINIT_RETURN_IF_ERROR(Drain(input_, &acc_));
  retained_ptr_ = &acc_;
  const size_t num_rows = acc_.num_rows();
  const ColumnBatch input = ColumnBatch::View(acc_, 0, num_rows);
  const std::vector<BoundExpr>& keys = BindFor(acc_.schema()).keys;
  const std::vector<RowRange> shards = ShardRows(num_rows, shards_);

  // Phase 1: per-shard grouping; row r of shard s belongs to the shard's
  // group row_group[s][r - begin].
  std::vector<GroupTable> tables(shards.size());
  std::vector<std::vector<uint32_t>> row_group(shards.size());
  EXPLAINIT_RETURN_IF_ERROR(RunSharded(
      ctx_, shards.size(), [&](size_t s) -> Status {
        RowKeyEncoder encoder(keys);
        encoder.Start(input);
        std::string key;
        row_group[s].reserve(shards[s].size());
        for (size_t r = shards[s].begin; r < shards[s].end; ++r) {
          bool matchable = true;
          EXPLAINIT_RETURN_IF_ERROR(encoder.Encode(r, &key, &matchable));
          row_group[s].push_back(
              tables[s].FindOrInsert(key, GroupTable::Hash(key)).first);
        }
        return Status::OK();
      }));

  // Merge in shard order, so first-appearance order does not depend on
  // the shard count: renumber each shard's groups into the first table.
  GroupTable merged;
  if (!tables.empty()) merged = std::move(tables[0]);
  for (size_t s = 1; s < shards.size(); ++s) {
    std::vector<uint32_t> remap(tables[s].size());
    for (uint32_t li = 0; li < remap.size(); ++li) {
      remap[li] = merged
                      .FindOrInsert(tables[s].key(li), tables[s].hash(li))
                      .first;
    }
    for (uint32_t& g : row_group[s]) g = remap[g];
  }

  // Lay every group's rows out contiguously; visiting rows in order
  // keeps each group's rows ascending.
  const size_t num_groups = merged.size();
  std::vector<size_t> offsets(num_groups + 1, 0);
  for (const std::vector<uint32_t>& groups : row_group) {
    for (uint32_t g : groups) ++offsets[g + 1];
  }
  for (size_t g = 0; g < num_groups; ++g) offsets[g + 1] += offsets[g];
  std::vector<size_t> rows(num_rows);
  std::vector<size_t> next(offsets.begin(), offsets.end() - 1);
  for (size_t s = 0; s < shards.size(); ++s) {
    for (size_t i = 0; i < row_group[s].size(); ++i) {
      rows[next[row_group[s][i]]++] = shards[s].begin + i;
    }
  }

  // Phase 2: the per-group evaluation, fanned out across groups.
  EXPLAINIT_ASSIGN_OR_RETURN(ColumnBatch out,
                             FinishGroups(input, offsets, rows));
  stats_.detail = std::to_string(num_groups) + " groups (" +
                  std::to_string(shards.size()) + " shards)";
  return out;
}

}  // namespace explainit::sql
