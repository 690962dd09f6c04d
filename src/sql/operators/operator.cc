#include "sql/operators/operator.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace explainit::sql {

namespace {
int64_t NowNs() {
  return static_cast<int64_t>(MonotonicSeconds() * 1e9);
}
}  // namespace

Status Operator::Open() {
  stats_.name = name();
  const int64_t t0 = NowNs();
  Status s = OpenImpl();
  stats_.elapsed_ns += NowNs() - t0;
  return s;
}

void Operator::BindExecContext(const ExecContext* ctx) {
  bound_ctx_ = ctx;
  for (const auto& c : children_) c->BindExecContext(ctx);
}

Result<table::ColumnBatch> Operator::Next(bool* eof) {
  if (bound_ctx_ != nullptr) {
    EXPLAINIT_RETURN_IF_ERROR(bound_ctx_->CheckCancel());
  }
  const int64_t t0 = NowNs();
  auto r = NextImpl(eof);
  stats_.elapsed_ns += NowNs() - t0;
  if (r.ok() && !*eof) {
    stats_.rows_output += r->num_rows();
    ++stats_.batches_output;
  }
  return r;
}

void Operator::CollectStats(std::vector<OperatorStats>* out) const {
  stats_.name = name();
  out->push_back(stats_);
  for (const auto& c : children_) c->CollectStats(out);
}

void Operator::AccumulateExecStatsTree(ExecStats* stats) const {
  AccumulateExecStats(stats);
  for (const auto& c : children_) c->AccumulateExecStatsTree(stats);
}

Status Operator::Drain(Operator* op, table::Table* out) {
  bool eof = false;
  while (true) {
    EXPLAINIT_ASSIGN_OR_RETURN(table::ColumnBatch batch, op->Next(&eof));
    if (eof) return Status::OK();
    batch.AppendTo(out);
  }
}

std::vector<RowRange> ShardRows(size_t num_rows, size_t parallelism,
                                size_t min_shard_rows) {
  // Below min_shard_rows rows per shard the fan-out overhead beats the
  // work.
  if (min_shard_rows == 0) min_shard_rows = 1;
  size_t shards = parallelism == 0 ? 1 : parallelism;
  if (num_rows / min_shard_rows < shards) {
    shards = std::max<size_t>(1, num_rows / min_shard_rows);
  }
  std::vector<RowRange> out;
  out.reserve(shards);
  const size_t base = num_rows / shards;
  const size_t extra = num_rows % shards;
  size_t begin = 0;
  for (size_t i = 0; i < shards; ++i) {
    const size_t len = base + (i < extra ? 1 : 0);
    out.push_back(RowRange{begin, begin + len});
    begin += len;
  }
  return out;
}

Status RunSharded(const ExecContext* ctx, size_t num_shards,
                  const std::function<Status(size_t)>& fn) {
  if (num_shards == 0) return Status::OK();
  if (num_shards == 1 || ctx == nullptr || !ctx->parallel()) {
    for (size_t i = 0; i < num_shards; ++i) {
      EXPLAINIT_RETURN_IF_ERROR(fn(i));
    }
    return Status::OK();
  }
  std::vector<Status> statuses(num_shards, Status::OK());
  exec::ParallelFor(*ctx->pool, num_shards,
                    [&](size_t i) { statuses[i] = fn(i); });
  for (Status& s : statuses) {
    EXPLAINIT_RETURN_IF_ERROR(std::move(s));
  }
  return Status::OK();
}

MorselRounds::MorselRounds(Operator* input, const ExecContext* ctx,
                           bool whole_input, Prepare prepare, Eval eval)
    : input_(input),
      ctx_(ctx),
      whole_input_(whole_input),
      prepare_(std::move(prepare)),
      eval_(std::move(eval)) {}

Result<table::ColumnBatch> MorselRounds::Next(bool* eof) {
  while (true) {
    while (pos_ < results_.size()) {
      Result<table::ColumnBatch>& result = results_[pos_++];
      if (result.ok() && result->num_rows() == 0) continue;
      *eof = false;
      return std::move(result);
    }
    if (!pull_error_.ok()) return pull_error_;
    if (input_done_) {
      *eof = true;
      return table::ColumnBatch{};
    }
    PullRound();
  }
}

void MorselRounds::PullRound() {
  results_.clear();
  pos_ = 0;
  if (whole_input_) {
    input_done_ = true;
    drained_ = table::Table(input_->output_schema());
    pull_error_ = Operator::Drain(input_, &drained_);
    if (!pull_error_.ok()) return;
    results_.emplace_back(
        table::ColumnBatch::View(drained_, 0, drained_.num_rows()));
  } else {
    const size_t morsels = EffectiveParallelism(ctx_);
    while (results_.size() < morsels) {
      bool child_eof = false;
      Result<table::ColumnBatch> batch = input_->Next(&child_eof);
      if (!batch.ok() || child_eof) {
        pull_error_ = batch.status();
        input_done_ = true;
        break;
      }
      results_.push_back(std::move(batch));
    }
  }
  for (const Result<table::ColumnBatch>& batch : results_) prepare_(*batch);
  // Each result keeps its own status, so a failure waits for its position.
  (void)RunSharded(ctx_, results_.size(), [&](size_t i) -> Status {
    results_[i] = eval_(std::move(results_[i]).value());
    return Status::OK();
  });
}

namespace {
void AppendLength(size_t n, std::string* key) {
  const uint64_t len = n;
  key->append(reinterpret_cast<const char*>(&len), sizeof(len));
}
}  // namespace

bool EncodeKey(const table::Value& v, std::string* key) {
  switch (v.type()) {
    case table::DataType::kNull:
      key->push_back('N');
      return false;
    case table::DataType::kDouble:
    case table::DataType::kInt64:
    case table::DataType::kTimestamp: {
      double d = v.AsDouble();
      if (d == 0.0) d = 0.0;  // -0.0 equals 0.0
      const bool nan = std::isnan(d);
      if (nan) d = std::numeric_limits<double>::quiet_NaN();
      key->push_back('D');
      key->append(reinterpret_cast<const char*>(&d), sizeof(d));
      return !nan;
    }
    case table::DataType::kString: {
      const std::string& s = *v.TryString();
      key->push_back('S');
      AppendLength(s.size(), key);
      key->append(s);
      return true;
    }
    case table::DataType::kMap: {
      const table::ValueMap& m = *v.AsMap();
      key->push_back('M');
      AppendLength(m.size(), key);
      bool matchable = true;
      for (const auto& [k, val] : m) {
        AppendLength(k.size(), key);
        key->append(k);
        if (!EncodeKey(val, key)) matchable = false;
      }
      return matchable;
    }
  }
  return false;
}

RowKeyEncoder::RowKeyEncoder(const std::vector<BoundExpr>& exprs) {
  parts_.reserve(exprs.size());
  for (const BoundExpr& e : exprs) {
    parts_.push_back(Part{&e, RunMemo(e), std::string(), true});
  }
}

void RowKeyEncoder::Start(const table::ColumnBatch& batch) {
  batch_ = &batch;
  for (Part& p : parts_) p.memo.Forget();
}

Status RowKeyEncoder::Encode(size_t row, std::string* key, bool* matchable) {
  key->clear();
  for (Part& p : parts_) {
    if (!p.memo.Hit(*batch_, row)) {
      table::Value tmp;
      const table::Value* v = nullptr;
      EXPLAINIT_RETURN_IF_ERROR(p.expr->EvalRef(*batch_, row, &tmp, &v));
      p.bytes.clear();
      p.matchable = EncodeKey(*v, &p.bytes);
      p.memo.Remember(row);
    }
    key->append(p.bytes);
    if (!p.matchable) *matchable = false;
  }
  return Status::OK();
}

void CollectConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  if (e->kind == ExprKind::kBinary && e->binary_op == BinaryOp::kAnd) {
    CollectConjuncts(e->left.get(), out);
    CollectConjuncts(e->right.get(), out);
    return;
  }
  out->push_back(e);
}

bool HasEqualityConjunct(const Expr* condition) {
  if (condition == nullptr) return false;
  std::vector<const Expr*> conjuncts;
  CollectConjuncts(condition, &conjuncts);
  for (const Expr* c : conjuncts) {
    if (c->kind == ExprKind::kBinary && c->binary_op == BinaryOp::kEq) {
      return true;
    }
  }
  return false;
}

bool ContainsLag(const Expr& e) {
  if (e.kind == ExprKind::kFunction && e.function_name == "LAG") return true;
  auto check = [](const ExprPtr& c) {
    return c != nullptr && ContainsLag(*c);
  };
  if (check(e.left) || check(e.right) || check(e.between_lo) ||
      check(e.between_hi) || check(e.case_else)) {
    return true;
  }
  for (const ExprPtr& a : e.args) {
    if (check(a)) return true;
  }
  for (const ExprPtr& a : e.list) {
    if (check(a)) return true;
  }
  for (const CaseBranch& b : e.case_branches) {
    if (check(b.condition) || check(b.result)) return true;
  }
  return false;
}

std::string ItemName(const SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  return item.expr->ToString();
}

}  // namespace explainit::sql
