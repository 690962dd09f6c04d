#include "sql/bound_expr.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/strings.h"

namespace explainit::sql {

using table::ColumnBatch;
using table::DataType;
using table::Value;

struct BoundExpr::Node {
  enum class Op : uint8_t {
    kConst,
    kError,      // deferred bind failure
    kColumn,
    kColumnKey,  // col['constant key']
    kSubscript,
    kCall,
    kLag,
    kNegate,
    kNot,
    kBinary,
    kLikeConst,  // LIKE with a constant pattern, translated once
    kIn,
    kBetween,
    kIsNull,
    kCase,  // kids: cond0, result0, cond1, result1, ..., [else]
    kSlot,  // group context: the value of aggregate slot `index`
  };

  Op op = Op::kConst;
  BinaryOp bop = BinaryOp::kAdd;
  bool negated = false;
  bool has_else = false;
  /// Group context, mixing aggregates and row values: every child is
  /// evaluated before the operator applies.
  bool lifted = false;
  size_t index = 0;          // column index / slot
  Value value;               // kConst
  Status error;              // kError
  std::string text;          // map key / LIKE glob
  const ScalarFn* fn = nullptr;
  std::vector<Node> kids;
};

namespace {

using Node = BoundExpr::Node;
using Op = Node::Op;

const Value& NullValue() {
  static const Value kNull;
  return kNull;
}

const Value& BoolValue(bool b) {
  static const Value kFalse = Value::Bool(false);
  static const Value kTrue = Value::Bool(true);
  return b ? kTrue : kFalse;
}

/// Points *out at a value that outlives the evaluation.
Status Borrow(const Value& v, const Value** out) {
  *out = &v;
  return Status::OK();
}

/// Stores an owned result in *tmp and points *out at it.
Status Own(Value v, Value* tmp, const Value** out) {
  *tmp = std::move(v);
  *out = tmp;
  return Status::OK();
}

/// The map key a subscript index names.
std::string SubscriptKey(const Value& index) {
  return index.type() == DataType::kString ? index.AsString()
                                           : std::to_string(index.AsInt());
}

/// Subscript of `base`: NULL for a NULL base or a missing key.
Status Lookup(const Value& base, const std::string& key, const Value** out) {
  const table::ValueMap* map = base.AsMap();
  if (map == nullptr) {
    if (base.is_null()) return Borrow(NullValue(), out);
    return Status::InvalidArgument("subscript on non-map value");
  }
  auto it = map->find(key);
  return Borrow(it == map->end() ? NullValue() : it->second, out);
}

struct Ctx {
  const ColumnBatch* batch;
  const Result<Value>* slots;
};

Status Ref(const Node& n, const Ctx& c, size_t row, Value* tmp,
           const Value** out);

/// Children evaluated on demand (the scalar case: short-circuits hold).
struct LazyKids {
  const Node& n;
  const Ctx& c;
  Status operator()(size_t k, size_t row, Value* tmp,
                    const Value** out) const {
    return Ref(n.kids[k], c, row, tmp, out);
  }
};

/// Children already evaluated (lifted group nodes).
struct ReadyKids {
  const std::vector<Value>& vals;
  Status operator()(size_t k, size_t /*row*/, Value* /*tmp*/,
                    const Value** out) const {
    return Borrow(vals[k], out);
  }
};

Value BinaryValue(BinaryOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  switch (op) {
    case BinaryOp::kAnd: return Value::Bool(l.AsBool() && r.AsBool());
    case BinaryOp::kOr: return Value::Bool(l.AsBool() || r.AsBool());
    case BinaryOp::kEq: return Value::Bool(l.Equals(r));
    case BinaryOp::kNe: return Value::Bool(!l.Equals(r));
    case BinaryOp::kLt: return Value::Bool(l.Compare(r) < 0);
    case BinaryOp::kLe: return Value::Bool(l.Compare(r) <= 0);
    case BinaryOp::kGt: return Value::Bool(l.Compare(r) > 0);
    case BinaryOp::kGe: return Value::Bool(l.Compare(r) >= 0);
    case BinaryOp::kLike:
      return Value::Bool(GlobMatch(LikeToGlob(r.AsString()), l.AsString()));
    case BinaryOp::kAdd: return Value::Double(l.AsDouble() + r.AsDouble());
    case BinaryOp::kSub: return Value::Double(l.AsDouble() - r.AsDouble());
    case BinaryOp::kMul: return Value::Double(l.AsDouble() * r.AsDouble());
    case BinaryOp::kDiv:
    case BinaryOp::kMod: {
      const double b = r.AsDouble();
      if (b == 0.0) return Value::Null();
      return Value::Double(op == BinaryOp::kDiv ? l.AsDouble() / b
                                                : std::fmod(l.AsDouble(), b));
    }
  }
  return Value::Null();
}

/// Applies `n`'s operator; `kid(k, row, tmp, out)` yields child k.
template <typename Kids>
Status Apply(const Node& n, const Ctx& c, size_t row, const Kids& kid,
             Value* tmp, const Value** out) {
  switch (n.op) {
    case Op::kConst:
      return Borrow(n.value, out);
    case Op::kError:
      return n.error;
    case Op::kColumn:
      return Borrow(c.batch->column(n.index)[row], out);
    case Op::kColumnKey:
      return Lookup(c.batch->column(n.index)[row], n.text, out);
    case Op::kSubscript: {
      Value bt, it;
      const Value* base = nullptr;
      const Value* index = nullptr;
      EXPLAINIT_RETURN_IF_ERROR(kid(0, row, &bt, &base));
      EXPLAINIT_RETURN_IF_ERROR(kid(1, row, &it, &index));
      const Value* found = nullptr;
      EXPLAINIT_RETURN_IF_ERROR(Lookup(*base, SubscriptKey(*index), &found));
      return Own(*found, tmp, out);  // `base` may be a temporary
    }
    case Op::kCall: {
      std::vector<Value> args;
      args.reserve(n.kids.size());
      for (size_t k = 0; k < n.kids.size(); ++k) {
        Value t;
        const Value* v = nullptr;
        EXPLAINIT_RETURN_IF_ERROR(kid(k, row, &t, &v));
        args.push_back(v == &t ? std::move(t) : *v);
      }
      EXPLAINIT_ASSIGN_OR_RETURN(Value v, (*n.fn)(args));
      return Own(std::move(v), tmp, out);
    }
    case Op::kLag: {
      // LAG(expr [, offset]) over the batch's row order.
      int64_t offset = 1;
      if (n.kids.size() == 2) {
        Value t;
        const Value* v = nullptr;
        EXPLAINIT_RETURN_IF_ERROR(kid(1, row, &t, &v));
        offset = v->AsInt();
      }
      const int64_t target = static_cast<int64_t>(row) - offset;
      if (target < 0 ||
          target >= static_cast<int64_t>(c.batch->num_rows())) {
        return Borrow(NullValue(), out);
      }
      return kid(0, static_cast<size_t>(target), tmp, out);
    }
    case Op::kNegate:
    case Op::kNot: {
      const Value* v = nullptr;
      EXPLAINIT_RETURN_IF_ERROR(kid(0, row, tmp, &v));
      if (v->is_null()) return Borrow(NullValue(), out);
      if (n.op == Op::kNot) return Borrow(BoolValue(!v->AsBool()), out);
      return Own(Value::Double(-v->AsDouble()), tmp, out);
    }
    case Op::kBinary: {
      Value lt, rt;
      const Value* l = nullptr;
      const Value* r = nullptr;
      EXPLAINIT_RETURN_IF_ERROR(kid(0, row, &lt, &l));
      if (n.bop == BinaryOp::kAnd && !l->is_null() && !l->AsBool()) {
        return Borrow(BoolValue(false), out);
      }
      if (n.bop == BinaryOp::kOr && !l->is_null() && l->AsBool()) {
        return Borrow(BoolValue(true), out);
      }
      EXPLAINIT_RETURN_IF_ERROR(kid(1, row, &rt, &r));
      return Own(BinaryValue(n.bop, *l, *r), tmp, out);
    }
    case Op::kLikeConst: {
      const Value* l = nullptr;
      EXPLAINIT_RETURN_IF_ERROR(kid(0, row, tmp, &l));
      if (l->is_null()) return Borrow(NullValue(), out);
      const std::string* s = l->TryString();
      return Borrow(BoolValue(s != nullptr ? GlobMatch(n.text, *s)
                                           : GlobMatch(n.text, l->AsString())),
                    out);
    }
    case Op::kIn: {
      Value st;
      const Value* subject = nullptr;
      EXPLAINIT_RETURN_IF_ERROR(kid(0, row, &st, &subject));
      if (subject->is_null()) return Borrow(NullValue(), out);
      bool found = false;
      for (size_t k = 1; k < n.kids.size() && !found; ++k) {
        Value t;
        const Value* v = nullptr;
        EXPLAINIT_RETURN_IF_ERROR(kid(k, row, &t, &v));
        found = subject->Equals(*v);
      }
      return Borrow(BoolValue(n.negated ? !found : found), out);
    }
    case Op::kBetween: {
      Value st, lt, ht;
      const Value* s = nullptr;
      const Value* lo = nullptr;
      const Value* hi = nullptr;
      EXPLAINIT_RETURN_IF_ERROR(kid(0, row, &st, &s));
      EXPLAINIT_RETURN_IF_ERROR(kid(1, row, &lt, &lo));
      EXPLAINIT_RETURN_IF_ERROR(kid(2, row, &ht, &hi));
      if (s->is_null() || lo->is_null() || hi->is_null()) {
        return Borrow(NullValue(), out);
      }
      const bool in = s->Compare(*lo) >= 0 && s->Compare(*hi) <= 0;
      return Borrow(BoolValue(n.negated ? !in : in), out);
    }
    case Op::kIsNull: {
      const Value* v = nullptr;
      EXPLAINIT_RETURN_IF_ERROR(kid(0, row, tmp, &v));
      return Borrow(BoolValue(n.negated != v->is_null()), out);
    }
    case Op::kCase: {
      const size_t branches = (n.kids.size() - (n.has_else ? 1 : 0)) / 2;
      for (size_t b = 0; b < branches; ++b) {
        Value t;
        const Value* cond = nullptr;
        EXPLAINIT_RETURN_IF_ERROR(kid(2 * b, row, &t, &cond));
        if (!cond->is_null() && cond->AsBool()) {
          return kid(2 * b + 1, row, tmp, out);
        }
      }
      if (n.has_else) return kid(n.kids.size() - 1, row, tmp, out);
      return Borrow(NullValue(), out);
    }
    case Op::kSlot: {
      if (c.slots == nullptr) {
        return Status::Internal("aggregate slot read outside a group");
      }
      const Result<Value>& slot = c.slots[n.index];
      if (!slot.ok()) return slot.status();
      return Borrow(slot.value(), out);
    }
  }
  return Status::Internal("unhandled bound expression");
}

Status Ref(const Node& n, const Ctx& c, size_t row, Value* tmp,
           const Value** out) {
  if (!n.lifted) return Apply(n, c, row, LazyKids{n, c}, tmp, out);
  // Every child first, in the group evaluation's order (ELSE before the
  // CASE branches), then the operator over the values.
  std::vector<Value> vals(n.kids.size());
  auto lift = [&](size_t k) -> Status {
    const Value* v = nullptr;
    EXPLAINIT_RETURN_IF_ERROR(Ref(n.kids[k], c, row, &vals[k], &v));
    if (v != &vals[k]) vals[k] = *v;
    return Status::OK();
  };
  size_t end = n.kids.size();
  if (n.op == Op::kCase && n.has_else) {
    EXPLAINIT_RETURN_IF_ERROR(lift(--end));
  }
  for (size_t k = 0; k < end; ++k) EXPLAINIT_RETURN_IF_ERROR(lift(k));
  EXPLAINIT_RETURN_IF_ERROR(Apply(n, c, row, ReadyKids{vals}, tmp, out));
  if (*out != tmp) {
    *tmp = **out;  // may point into vals, which dies here
    *out = tmp;
  }
  return Status::OK();
}

Node ErrorNode(Status s) {
  Node n;
  n.op = Op::kError;
  n.error = std::move(s);
  return n;
}

Node ConstNode(Value v) {
  Node n;
  n.op = Op::kConst;
  n.value = std::move(v);
  return n;
}

class Binder {
 public:
  Binder(const table::Schema& schema, const FunctionRegistry& functions,
         const std::vector<const Expr*>* aggs)
      : schema_(schema), functions_(functions), aggs_(aggs) {}

  Node Bind(const Expr& e, bool group) {
    if (group && e.kind == ExprKind::kFunction &&
        IsAggregateFunction(e.function_name)) {
      for (size_t i = 0; i < aggs_->size(); ++i) {
        if ((*aggs_)[i] != &e) continue;
        Node n;
        n.op = Op::kSlot;
        n.index = i;
        return n;
      }
    }
    if (group && !e.ContainsAggregate()) group = false;
    Node n;
    n.lifted = group;
    auto kid = [&](const Expr& c) { n.kids.push_back(Bind(c, group)); };
    switch (e.kind) {
      case ExprKind::kLiteral:
        return ConstNode(e.literal);
      case ExprKind::kStar:
        return ErrorNode(
            Status::InvalidArgument("'*' is only valid in COUNT(*)"));
      case ExprKind::kColumnRef: {
        Result<size_t> idx = ResolveColumn(schema_, e);
        if (!idx.ok()) return ErrorNode(idx.status());
        n.op = Op::kColumn;
        n.index = *idx;
        return n;
      }
      case ExprKind::kSubscript:
        n.op = Op::kSubscript;
        kid(*e.left);
        kid(*e.right);
        break;
      case ExprKind::kFunction: {
        const std::string& name = e.function_name;
        if (IsAggregateFunction(name)) {
          return ErrorNode(Status::InvalidArgument(
              "aggregate " + name + " in a scalar context"));
        }
        if (name == "LAG") {
          n.op = Op::kLag;
          if (e.args.empty() || e.args.size() > 2) {
            n.op = Op::kError;
            n.error = Status::InvalidArgument("LAG expects 1 or 2 arguments");
          }
        } else {
          n.op = Op::kCall;
          n.fn = functions_.Find(name);
          if (n.fn == nullptr) {
            n.op = Op::kError;
            n.error = Status::NotFound("unknown function: " + name);
          }
        }
        // A scalar call fails before its arguments run; a lifted one
        // evaluates them first.
        if (n.op != Op::kError || n.lifted) {
          for (const ExprPtr& a : e.args) kid(*a);
        }
        break;
      }
      case ExprKind::kUnary:
        n.op = e.unary_op == UnaryOp::kNegate ? Op::kNegate : Op::kNot;
        kid(*e.left);
        break;
      case ExprKind::kBinary:
        n.op = Op::kBinary;
        n.bop = e.binary_op;
        kid(*e.left);
        kid(*e.right);
        break;
      case ExprKind::kInList:
        n.op = Op::kIn;
        n.negated = e.negated;
        kid(*e.left);
        for (const ExprPtr& item : e.list) kid(*item);
        break;
      case ExprKind::kBetween:
        n.op = Op::kBetween;
        n.negated = e.negated;
        kid(*e.left);
        kid(*e.between_lo);
        kid(*e.between_hi);
        break;
      case ExprKind::kIsNull:
        n.op = Op::kIsNull;
        n.negated = e.negated;
        kid(*e.left);
        break;
      case ExprKind::kCase:
        n.op = Op::kCase;
        for (const CaseBranch& b : e.case_branches) {
          kid(*b.condition);
          kid(*b.result);
        }
        if (e.case_else != nullptr) {
          n.has_else = true;
          kid(*e.case_else);
        }
        break;
    }
    return n.lifted ? std::move(n) : Specialize(std::move(n));
  }

 private:
  /// Folds row-independent subtrees and precompiles constant operands.
  static Node Specialize(Node n) {
    const bool reads_row = n.op == Op::kCall || n.op == Op::kLag ||
                           n.op == Op::kColumn || n.op == Op::kColumnKey ||
                           n.op == Op::kSlot || n.op == Op::kError;
    bool constant_kids = true;
    for (const Node& k : n.kids) {
      if (k.op != Op::kConst && k.op != Op::kError) constant_kids = false;
    }
    if (!reads_row && constant_kids) {
      Value tmp;
      const Value* v = nullptr;
      Status s = Ref(n, Ctx{nullptr, nullptr}, 0, &tmp, &v);
      return s.ok() ? ConstNode(*v) : ErrorNode(std::move(s));
    }
    if (n.op == Op::kSubscript && n.kids[0].op == Op::kColumn &&
        n.kids[1].op == Op::kConst) {
      n.text = SubscriptKey(n.kids[1].value);
      n.op = Op::kColumnKey;
      n.index = n.kids[0].index;
      n.kids.clear();
    } else if (n.op == Op::kBinary && n.bop == BinaryOp::kLike &&
               n.kids[1].op == Op::kConst && !n.kids[1].value.is_null()) {
      n.op = Op::kLikeConst;
      n.text = LikeToGlob(n.kids[1].value.AsString());
      n.kids.pop_back();
    }
    return n;
  }

  const table::Schema& schema_;
  const FunctionRegistry& functions_;
  const std::vector<const Expr*>* aggs_;
};

}  // namespace

Result<size_t> ResolveColumn(const table::Schema& schema, const Expr& expr) {
  if (!expr.qualifier.empty()) {
    const std::string full = expr.qualifier + "." + expr.column;
    if (auto idx = schema.FieldIndex(full); idx.has_value()) return *idx;
    if (auto idx = schema.FieldIndex(expr.column); idx.has_value()) {
      return *idx;
    }
    return Status::NotFound("column not found: " + full);
  }
  if (auto idx = schema.FieldIndex(expr.column); idx.has_value()) return *idx;
  // Unique suffix match over qualified join-output names.
  std::string suffix(1, '.');
  suffix += ToLower(expr.column);
  std::optional<size_t> found;
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    if (EndsWith(ToLower(schema.field(i).name), suffix)) {
      if (found.has_value()) {
        return Status::InvalidArgument("ambiguous column: " + expr.column);
      }
      found = i;
    }
  }
  if (found.has_value()) return *found;
  return Status::NotFound("column not found: " + expr.column);
}

std::string LikeToGlob(const std::string& pattern) {
  std::string glob;
  glob.reserve(pattern.size());
  for (char c : pattern) {
    glob += c == '%' ? '*' : c == '_' ? '?' : c;
  }
  return glob;
}

BoundExpr::BoundExpr() = default;
BoundExpr::~BoundExpr() = default;
BoundExpr::BoundExpr(BoundExpr&&) noexcept = default;
BoundExpr& BoundExpr::operator=(BoundExpr&&) noexcept = default;

BoundExpr BoundExpr::Bind(const Expr& expr, const table::Schema& schema,
                          const FunctionRegistry& functions) {
  BoundExpr b;
  b.root_ = std::make_unique<Node>(
      Binder(schema, functions, nullptr).Bind(expr, /*group=*/false));
  b.Record();
  return b;
}

BoundExpr BoundExpr::BindGroup(const Expr& expr, const table::Schema& schema,
                               const FunctionRegistry& functions,
                               const std::vector<const Expr*>& aggs) {
  BoundExpr b;
  b.root_ = std::make_unique<Node>(
      Binder(schema, functions, &aggs).Bind(expr, /*group=*/true));
  b.Record();
  return b;
}

void BoundExpr::Record() {
  std::vector<const Node*> stack{root_.get()};
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    if (n->op == Op::kColumn || n->op == Op::kColumnKey) {
      columns_.push_back(n->index);
    }
    if (n->op == Op::kLag || n->op == Op::kSlot) row_local_ = false;
    for (const Node& k : n->kids) stack.push_back(&k);
  }
  std::sort(columns_.begin(), columns_.end());
  columns_.erase(std::unique(columns_.begin(), columns_.end()),
                 columns_.end());
}

bool BoundExpr::is_column() const {
  return root_ != nullptr && root_->op == Op::kColumn;
}

bool RunMemo::Hit(const ColumnBatch& batch, size_t row) const {
  if (!valid_) return false;
  for (size_t c : *columns_) {
    const Value* col = batch.column(c);
    if (!col[row].Identical(col[row_])) return false;
  }
  return true;
}

Status BoundExpr::Eval(const ColumnBatch& batch, size_t begin, size_t end,
                       std::vector<Value>* out) const {
  out->reserve(out->size() + (end - begin));
  const Ctx c{&batch, nullptr};
  for (size_t r = begin; r < end; ++r) {
    Value tmp;
    const Value* v = nullptr;
    EXPLAINIT_RETURN_IF_ERROR(Ref(*root_, c, r, &tmp, &v));
    out->push_back(v == &tmp ? std::move(tmp) : *v);
  }
  return Status::OK();
}

Result<Value> BoundExpr::EvalRow(const ColumnBatch& batch, size_t row,
                                 const Result<Value>* slots) const {
  Value tmp;
  const Value* v = nullptr;
  EXPLAINIT_RETURN_IF_ERROR(Ref(*root_, Ctx{&batch, slots}, row, &tmp, &v));
  if (v == &tmp) return tmp;
  return *v;
}

Status BoundExpr::EvalRef(const ColumnBatch& batch, size_t row,
                          Value* tmp, const Value** out) const {
  return Ref(*root_, Ctx{&batch, nullptr}, row, tmp, out);
}

Status SelectRows(const std::vector<BoundExpr>& predicates,
                  const ColumnBatch& batch, size_t begin, size_t end,
                  std::vector<uint32_t>* selected) {
  for (size_t r = begin; r < end; ++r) {
    bool pass = true;
    for (const BoundExpr& p : predicates) {
      Value tmp;
      const Value* v = nullptr;
      EXPLAINIT_RETURN_IF_ERROR(p.EvalRef(batch, r, &tmp, &v));
      if (v->is_null() || !v->AsBool()) {
        pass = false;
        break;
      }
    }
    if (pass) selected->push_back(static_cast<uint32_t>(r));
  }
  return Status::OK();
}

const std::vector<BoundExpr>& SchemaBoundExprs::For(
    const table::Schema& schema) {
  for (const auto& entry : entries_) {
    if (entry->schema == &schema) return entry->bound;
  }
  auto entry = std::make_unique<Entry>();
  entry->schema = &schema;
  for (const Expr* e : exprs_) {
    entry->bound.push_back(BoundExpr::Bind(*e, schema, *functions_));
  }
  entries_.push_back(std::move(entry));
  return entries_.back()->bound;
}

}  // namespace explainit::sql
