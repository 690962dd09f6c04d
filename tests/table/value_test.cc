#include "table/value.h"

#include <gtest/gtest.h>

#include <cmath>

namespace explainit::table {
namespace {

TEST(ValueTest, NullDefault) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), DataType::kNull);
  EXPECT_EQ(v.ToString(), "NULL");
  EXPECT_FALSE(v.AsBool());
}

TEST(ValueTest, DoubleRoundTrip) {
  Value v = Value::Double(3.5);
  EXPECT_EQ(v.type(), DataType::kDouble);
  EXPECT_EQ(v.AsDouble(), 3.5);
  EXPECT_EQ(v.AsInt(), 3);
  EXPECT_TRUE(v.AsBool());
  EXPECT_FALSE(Value::Double(0.0).AsBool());
}

TEST(ValueTest, IntAndTimestampDistinctTypes) {
  Value i = Value::Int(60);
  Value t = Value::Timestamp(60);
  EXPECT_EQ(i.type(), DataType::kInt64);
  EXPECT_EQ(t.type(), DataType::kTimestamp);
  EXPECT_EQ(t.AsTimestamp(), 60);
  EXPECT_EQ(t.ToString(), "1970-01-01 00:01");
  // Numeric cross-type equality still holds.
  EXPECT_TRUE(i.Equals(t));
}

TEST(ValueTest, StringConversions) {
  Value s = Value::String("42.5");
  EXPECT_EQ(s.AsDouble(), 42.5);
  EXPECT_EQ(s.AsInt(), 42);
  EXPECT_EQ(s.AsString(), "42.5");
  EXPECT_TRUE(s.AsBool());
  EXPECT_FALSE(Value::String("").AsBool());
}

TEST(ValueTest, BoolIsInt) {
  EXPECT_EQ(Value::Bool(true).AsInt(), 1);
  EXPECT_EQ(Value::Bool(false).AsInt(), 0);
}

TEST(ValueTest, MapAccess) {
  ValueMap m;
  m["host"] = Value::String("datanode-1");
  m["latency"] = Value::Double(12.0);
  Value v = Value::Map(m);
  EXPECT_EQ(v.type(), DataType::kMap);
  const ValueMap* got = v.AsMap();
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->at("host").AsString(), "datanode-1");
  EXPECT_EQ(got->at("latency").AsDouble(), 12.0);
  EXPECT_EQ(Value::Double(1).AsMap(), nullptr);
}

TEST(ValueTest, MapCopyIsShallow) {
  ValueMap m;
  m["k"] = Value::Int(1);
  Value a = Value::Map(m);
  Value b = a;  // shares the map
  EXPECT_EQ(a.AsMap(), b.AsMap());
}

TEST(ValueTest, EqualsNullNeverEqual) {
  EXPECT_FALSE(Value::Null().Equals(Value::Null()));
  EXPECT_FALSE(Value::Null().Equals(Value::Int(0)));
}

TEST(ValueTest, EqualsNumericCrossType) {
  EXPECT_TRUE(Value::Int(2).Equals(Value::Double(2.0)));
  EXPECT_FALSE(Value::Int(2).Equals(Value::Double(2.5)));
  EXPECT_FALSE(Value::Int(2).Equals(Value::String("2")));
}

TEST(ValueTest, EqualsStringsAndMaps) {
  EXPECT_TRUE(Value::String("a").Equals(Value::String("a")));
  EXPECT_FALSE(Value::String("a").Equals(Value::String("b")));
  ValueMap m1, m2;
  m1["x"] = Value::Int(1);
  m2["x"] = Value::Int(1);
  EXPECT_TRUE(Value::Map(m1).Equals(Value::Map(m2)));
  m2["y"] = Value::Int(2);
  EXPECT_FALSE(Value::Map(m1).Equals(Value::Map(m2)));
}

TEST(ValueTest, CompareOrdering) {
  EXPECT_LT(Value::Int(1).Compare(Value::Int(2)), 0);
  EXPECT_GT(Value::Double(2.5).Compare(Value::Int(2)), 0);
  EXPECT_EQ(Value::Int(3).Compare(Value::Double(3.0)), 0);
  // Null sorts first.
  EXPECT_LT(Value::Null().Compare(Value::Int(-100)), 0);
  EXPECT_GT(Value::Int(-100).Compare(Value::Null()), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
  // Strings lexicographic.
  EXPECT_LT(Value::String("abc").Compare(Value::String("abd")), 0);
}

TEST(ValueTest, ToStringFormats) {
  EXPECT_EQ(Value::Double(2.0).ToString(), "2.0");
  EXPECT_EQ(Value::Double(2.25).ToString(), "2.25");
  EXPECT_EQ(Value::Int(7).ToString(), "7");
  ValueMap m;
  m["a"] = Value::Int(1);
  EXPECT_EQ(Value::Map(m).ToString(), "{a=1}");
}

TEST(ValueTest, DataTypeNames) {
  EXPECT_EQ(DataTypeName(DataType::kDouble), "DOUBLE");
  EXPECT_EQ(DataTypeName(DataType::kMap), "MAP");
  EXPECT_EQ(DataTypeName(DataType::kTimestamp), "TIMESTAMP");
}

TEST(ValueTest, IdenticalMeansSameRepresentation) {
  EXPECT_TRUE(Value::Null().Identical(Value::Null()));
  EXPECT_TRUE(Value::Double(1.5).Identical(Value::Double(1.5)));
  EXPECT_FALSE(Value::Double(0.0).Identical(Value::Double(-0.0)));
  EXPECT_TRUE(Value::Double(std::nan("")).Identical(Value::Double(std::nan(""))));
  EXPECT_FALSE(Value::Double(1.0).Identical(Value::Int(1)));
  EXPECT_FALSE(Value::Int(7).Identical(Value::Timestamp(7)));
  EXPECT_TRUE(Value::Timestamp(7).Identical(Value::Timestamp(7)));
  EXPECT_TRUE(Value::String("ab").Identical(Value::String("ab")));
  EXPECT_FALSE(Value::String("ab").Identical(Value::String("abc")));
  ValueMap m;
  m["k"] = Value::Int(1);
  const Value a = Value::Map(m);
  const Value copy = a;  // shares the map object
  EXPECT_TRUE(a.Identical(copy));
  EXPECT_TRUE(a.Equals(Value::Map(m)));
  EXPECT_FALSE(a.Identical(Value::Map(m)));  // equal, but another object
}

}  // namespace
}  // namespace explainit::table
