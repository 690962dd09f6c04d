#include "table/value.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace explainit::table {

std::string_view DataTypeName(DataType t) {
  switch (t) {
    case DataType::kNull:
      return "NULL";
    case DataType::kDouble:
      return "DOUBLE";
    case DataType::kInt64:
      return "INT64";
    case DataType::kTimestamp:
      return "TIMESTAMP";
    case DataType::kString:
      return "STRING";
    case DataType::kMap:
      return "MAP";
  }
  return "?";
}

DataType Value::type() const {
  switch (data_.index()) {
    case 0:
      return DataType::kNull;
    case 1:
      return DataType::kDouble;
    case 2:
      return DataType::kInt64;
    case 3:
      return DataType::kTimestamp;
    case 4:
      return DataType::kString;
    case 5:
      return DataType::kMap;
  }
  return DataType::kNull;
}

double Value::AsDouble() const {
  switch (data_.index()) {
    case 1:
      return std::get<double>(data_);
    case 2:
      return static_cast<double>(std::get<int64_t>(data_));
    case 3:
      return static_cast<double>(std::get<TimestampTag>(data_).t);
    case 4: {
      const std::string& s = std::get<std::string>(data_);
      double out = 0.0;
      std::from_chars(s.data(), s.data() + s.size(), out);
      return out;
    }
    default:
      return 0.0;
  }
}

int64_t Value::AsInt() const {
  switch (data_.index()) {
    case 1:
      return static_cast<int64_t>(std::get<double>(data_));
    case 2:
      return std::get<int64_t>(data_);
    case 3:
      return std::get<TimestampTag>(data_).t;
    case 4: {
      const std::string& s = std::get<std::string>(data_);
      int64_t out = 0;
      std::from_chars(s.data(), s.data() + s.size(), out);
      return out;
    }
    default:
      return 0;
  }
}

bool Value::AsBool() const {
  switch (data_.index()) {
    case 1:
      return std::get<double>(data_) != 0.0;
    case 2:
      return std::get<int64_t>(data_) != 0;
    case 3:
      return true;
    case 4:
      return !std::get<std::string>(data_).empty();
    case 5:
      return true;
    default:
      return false;
  }
}

std::string Value::AsString() const {
  switch (data_.index()) {
    case 4:
      return std::get<std::string>(data_);
    default:
      return ToString();
  }
}

const ValueMap* Value::AsMap() const {
  if (data_.index() != 5) return nullptr;
  return std::get<std::shared_ptr<ValueMap>>(data_).get();
}

bool Value::Equals(const Value& other) const {
  if (is_null() || other.is_null()) return false;  // SQL null semantics
  const bool this_num = type() == DataType::kDouble ||
                        type() == DataType::kInt64 ||
                        type() == DataType::kTimestamp;
  const bool other_num = other.type() == DataType::kDouble ||
                         other.type() == DataType::kInt64 ||
                         other.type() == DataType::kTimestamp;
  if (this_num && other_num) return AsDouble() == other.AsDouble();
  if (type() != other.type()) return false;
  if (type() == DataType::kString) {
    return std::get<std::string>(data_) == std::get<std::string>(other.data_);
  }
  if (type() == DataType::kMap) {
    const ValueMap* a = AsMap();
    const ValueMap* b = other.AsMap();
    if (a->size() != b->size()) return false;
    auto it_b = b->begin();
    for (auto it_a = a->begin(); it_a != a->end(); ++it_a, ++it_b) {
      if (it_a->first != it_b->first || !it_a->second.Equals(it_b->second)) {
        return false;
      }
    }
    return true;
  }
  return false;
}

bool Value::Identical(const Value& other) const {
  if (data_.index() != other.data_.index()) return false;
  switch (data_.index()) {
    case 1: {
      const double a = std::get<double>(data_);
      const double b = std::get<double>(other.data_);
      return std::memcmp(&a, &b, sizeof(a)) == 0;
    }
    case 2:
      return std::get<int64_t>(data_) == std::get<int64_t>(other.data_);
    case 3:
      return std::get<TimestampTag>(data_).t ==
             std::get<TimestampTag>(other.data_).t;
    case 4:
      return std::get<std::string>(data_) == std::get<std::string>(other.data_);
    case 5:
      return AsMap() == other.AsMap();
    default:
      return true;  // NULL
  }
}

int Value::Compare(const Value& other) const {
  // Nulls sort first.
  if (is_null() && other.is_null()) return 0;
  if (is_null()) return -1;
  if (other.is_null()) return 1;
  const bool this_num = type() != DataType::kString && type() != DataType::kMap;
  const bool other_num =
      other.type() != DataType::kString && other.type() != DataType::kMap;
  if (this_num && other_num) {
    const double a = AsDouble(), b = other.AsDouble();
    if (a < b) return -1;
    if (a > b) return 1;
    return 0;
  }
  const std::string a = AsString(), b = other.AsString();
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

std::string Value::ToString() const {
  switch (data_.index()) {
    case 0:
      return "NULL";
    case 1: {
      char buf[32];
      const double v = std::get<double>(data_);
      if (v == std::floor(v) && std::abs(v) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%.1f", v);
      } else {
        std::snprintf(buf, sizeof(buf), "%.6g", v);
      }
      return buf;
    }
    case 2:
      return std::to_string(std::get<int64_t>(data_));
    case 3:
      return FormatTimestamp(std::get<TimestampTag>(data_).t);
    case 4:
      return std::get<std::string>(data_);
    case 5: {
      std::string out = "{";
      bool first = true;
      for (const auto& [k, v] : *AsMap()) {
        if (!first) out += ", ";
        first = false;
        out += k + "=" + v.ToString();
      }
      out += "}";
      return out;
    }
  }
  return "?";
}

}  // namespace explainit::table
