// Dynamically typed cell values for the columnar table layer. The paper's
// Feature Family Table schema (Figure 4) is {ts: datetime, name: string,
// v: map<string, double>}; tags are map<string, string>. A single Value
// variant with a nested-map case covers both.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>

#include "common/time_util.h"

namespace explainit::table {

/// Runtime type of a Value / column.
enum class DataType {
  kNull,
  kDouble,
  kInt64,
  kTimestamp,  // epoch seconds, distinct from plain integers in SQL
  kString,
  kMap,  // string -> Value (used for tags and feature vectors)
};

std::string_view DataTypeName(DataType t);

class Value;
using ValueMap = std::map<std::string, Value>;

/// A dynamically typed value. Maps are held behind shared_ptr so copying a
/// Value (pervasive in the vectorised executor) stays O(1).
class Value {
 public:
  /// Null value.
  Value() : data_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Double(double v) { return Value(v); }
  static Value Int(int64_t v) { return Value(v); }
  static Value Timestamp(EpochSeconds t) { return Value(TimestampTag{t}); }
  static Value String(std::string s) { return Value(std::move(s)); }
  static Value Bool(bool b) { return Value(static_cast<int64_t>(b)); }
  static Value Map(ValueMap m) {
    return Value(std::make_shared<ValueMap>(std::move(m)));
  }

  DataType type() const;
  bool is_null() const { return type() == DataType::kNull; }

  /// Numeric access: doubles, ints and timestamps all convert; anything
  /// else yields 0 (SQL-style permissive arithmetic, callers that need
  /// strictness check type() first).
  double AsDouble() const;
  int64_t AsInt() const;
  EpochSeconds AsTimestamp() const { return AsInt(); }
  /// Truthiness: non-zero numeric, non-empty string; null is false.
  bool AsBool() const;
  /// String access; numeric values render to decimal text.
  std::string AsString() const;
  /// Borrowed pointer to the underlying string storage; nullptr when the
  /// value is not a string. Lets hot loops key on strings without copies.
  const std::string* TryString() const {
    return std::get_if<std::string>(&data_);
  }
  /// Map access; returns nullptr when not a map.
  const ValueMap* AsMap() const;

  /// SQL equality (null != anything, numeric types compare by value).
  bool Equals(const Value& other) const;
  /// SQL ordering for ORDER BY / comparisons: null sorts first; numerics
  /// compare numerically; strings lexicographically. Returns <0, 0, >0.
  int Compare(const Value& other) const;
  /// Same representation: same type and either the same numeric bits,
  /// equal string bytes, or the same map object (NULL is identical to
  /// NULL). Stricter than Equals — two identical values are
  /// indistinguishable to any pure function of them.
  bool Identical(const Value& other) const;

  std::string ToString() const;

 private:
  struct TimestampTag {
    EpochSeconds t;
  };
  explicit Value(double v) : data_(v) {}
  explicit Value(int64_t v) : data_(v) {}
  explicit Value(TimestampTag t) : data_(t) {}
  explicit Value(std::string s) : data_(std::move(s)) {}
  explicit Value(std::shared_ptr<ValueMap> m) : data_(std::move(m)) {}

  std::variant<std::monostate, double, int64_t, TimestampTag, std::string,
               std::shared_ptr<ValueMap>>
      data_;
};

}  // namespace explainit::table
