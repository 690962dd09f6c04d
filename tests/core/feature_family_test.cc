#include "core/feature_family.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <string>

#include "common/random.h"
#include "core/engine.h"

namespace explainit::core {
namespace {

std::vector<tsdb::SeriesData> MakeSeries() {
  std::vector<tsdb::SeriesData> out;
  auto add = [&](const std::string& name, tsdb::TagSet tags,
                 std::vector<double> values) {
    tsdb::SeriesData s;
    s.meta.metric_name = name;
    s.meta.tags = std::move(tags);
    for (size_t i = 0; i < values.size(); ++i) {
      s.timestamps.push_back(static_cast<int64_t>(i) * 60);
    }
    s.values = std::move(values);
    out.push_back(std::move(s));
  };
  add("input_rate", {{"type", "event-1"}}, {1, 2, 3});
  add("input_rate", {{"type", "event-2"}}, {4, 5, 6});
  add("runtime", {{"component", "pipeline-1"}}, {7, 8, 9});
  add("disk", {{"host", "datanode-1"}, {"type", "read_latency"}}, {1, 1, 1});
  add("disk", {{"host", "datanode-2"}, {"type", "read_latency"}}, {2, 2, 2});
  add("disk", {{"host", "namenode-1"}, {"type", "read_latency"}}, {3, 3, 3});
  return out;
}

TEST(FamilyTest, GroupByMetricNameMirrorsPaperExample) {
  // §3.2: grouping by name gives input_rate{*}, runtime{*}, disk{*}.
  GroupingOptions opts;
  opts.key = GroupingKey::kMetricName;
  auto fams = BuildFamilies(MakeSeries(), opts);
  ASSERT_TRUE(fams.ok());
  ASSERT_EQ(fams->size(), 3u);
  EXPECT_EQ((*fams)[0].name, "disk");
  EXPECT_EQ((*fams)[0].num_features(), 3u);
  EXPECT_EQ((*fams)[1].name, "input_rate");
  EXPECT_EQ((*fams)[1].num_features(), 2u);
  EXPECT_EQ((*fams)[2].name, "runtime");
  EXPECT_EQ((*fams)[2].num_features(), 1u);
}

TEST(FamilyTest, GroupByTagMirrorsPaperExample) {
  // §3.2: grouping by host gives datanode-1, datanode-2, namenode-1, NULL.
  GroupingOptions opts;
  opts.key = GroupingKey::kTag;
  opts.tag_key = "host";
  auto fams = BuildFamilies(MakeSeries(), opts);
  ASSERT_TRUE(fams.ok());
  ASSERT_EQ(fams->size(), 4u);
  EXPECT_EQ((*fams)[0].name, "*{host=NULL}");
  EXPECT_EQ((*fams)[0].num_features(), 3u);  // input_rate x2 + runtime
  EXPECT_EQ((*fams)[1].name, "*{host=datanode-1}");
  EXPECT_EQ((*fams)[3].name, "*{host=namenode-1}");
}

TEST(FamilyTest, GroupByPattern) {
  // §3.2: "disk{host=datanode*}" — any datanode activity.
  GroupingOptions opts;
  opts.key = GroupingKey::kPattern;
  opts.patterns = {"disk{host=datanode*}", "runtime*"};
  auto fams = BuildFamilies(MakeSeries(), opts);
  ASSERT_TRUE(fams.ok());
  ASSERT_EQ(fams->size(), 2u);
  EXPECT_EQ((*fams)[0].name, "disk{host=datanode*}");
  EXPECT_EQ((*fams)[0].num_features(), 2u);
  EXPECT_EQ((*fams)[1].name, "runtime*");
  EXPECT_EQ((*fams)[1].num_features(), 1u);
}

TEST(FamilyTest, GroupingValidation) {
  GroupingOptions opts;
  opts.key = GroupingKey::kTag;
  EXPECT_FALSE(BuildFamilies(MakeSeries(), opts).ok());  // missing tag_key
  opts.key = GroupingKey::kPattern;
  EXPECT_FALSE(BuildFamilies(MakeSeries(), opts).ok());  // missing patterns
}

TEST(FamilyTest, MisalignedSeriesRejected) {
  auto series = MakeSeries();
  series[1].timestamps[0] = 999;
  GroupingOptions opts;
  EXPECT_FALSE(BuildFamilies(series, opts).ok());
}

TEST(FamilyTest, DataMatrixLayout) {
  GroupingOptions opts;
  auto fams = BuildFamilies(MakeSeries(), opts);
  ASSERT_TRUE(fams.ok());
  const FeatureFamily& disk = (*fams)[0];
  EXPECT_EQ(disk.num_timestamps(), 3u);
  // Columns ordered by insertion order of matching series.
  EXPECT_EQ(disk.data(0, 0), 1.0);
  EXPECT_EQ(disk.data(0, 1), 2.0);
  EXPECT_EQ(disk.data(0, 2), 3.0);
  EXPECT_EQ(disk.feature_names[0],
            "disk{host=datanode-1,type=read_latency}");
  EXPECT_EQ(disk.FindFeature("disk{host=datanode-2,type=read_latency}"), 1);
  EXPECT_EQ(disk.FindFeature("nope"), -1);
}

TEST(FamilyTest, TableRoundTrip) {
  GroupingOptions opts;
  auto fams = BuildFamilies(MakeSeries(), opts);
  ASSERT_TRUE(fams.ok());
  const FeatureFamily& disk = (*fams)[0];
  table::Table t = FamilyToTable(disk);
  EXPECT_EQ(t.num_rows(), 3u);
  auto back = FamiliesFromTable(t);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 1u);
  EXPECT_EQ((*back)[0].name, "disk");
  EXPECT_EQ((*back)[0].num_features(), 3u);
  EXPECT_EQ((*back)[0].data, disk.data);
}

TEST(FamilyTest, FamiliesFromTableInterpolatesGaps) {
  table::Schema schema({{"ts", table::DataType::kTimestamp},
                        {"name", table::DataType::kString},
                        {"v", table::DataType::kMap}});
  table::Table t(schema);
  auto row = [&](int64_t ts, const std::string& fam, double v) {
    table::ValueMap m;
    m["x"] = table::Value::Double(v);
    t.AppendRow({table::Value::Timestamp(ts), table::Value::String(fam),
                 table::Value::Map(m)});
  };
  row(0, "a", 1.0);
  row(60, "a", 2.0);
  row(120, "a", 3.0);
  row(0, "b", 10.0);
  row(120, "b", 30.0);  // b missing at ts=60
  auto fams = FamiliesFromTable(t);
  ASSERT_TRUE(fams.ok());
  ASSERT_EQ(fams->size(), 2u);
  const FeatureFamily& b = (*fams)[1];
  EXPECT_EQ(b.num_timestamps(), 3u);
  EXPECT_EQ(b.data(1, 0), 10.0);  // nearest observation fill (tie -> earlier)
}

TEST(FamilyTest, SliceFamilyRestrictsRows) {
  GroupingOptions opts;
  auto fams = BuildFamilies(MakeSeries(), opts);
  ASSERT_TRUE(fams.ok());
  FeatureFamily sliced = SliceFamily((*fams)[0], TimeRange{60, 180});
  EXPECT_EQ(sliced.num_timestamps(), 2u);
  EXPECT_EQ(sliced.timestamps[0], 60);
  EXPECT_EQ(sliced.num_features(), 3u);
}

TEST(FamilyTest, MergeFamiliesConcatenatesFeatures) {
  GroupingOptions opts;
  auto fams = BuildFamilies(MakeSeries(), opts);
  ASSERT_TRUE(fams.ok());
  FeatureFamily merged = MergeFamilies(*fams, "all");
  EXPECT_EQ(merged.name, "all");
  EXPECT_EQ(merged.num_features(), 6u);
  EXPECT_EQ(merged.num_timestamps(), 3u);
  EXPECT_EQ(merged.feature_names[0],
            "disk/disk{host=datanode-1,type=read_latency}");
}

TEST(FamilyTest, AlignFamiliesOntoUnionGrid) {
  FeatureFamily a;
  a.name = "a";
  a.feature_names = {"f"};
  a.timestamps = {0, 60, 120};
  a.data = la::Matrix(3, 1, {1, 2, 3});
  FeatureFamily b;
  b.name = "b";
  b.feature_names = {"g"};
  b.timestamps = {60, 180};
  b.data = la::Matrix(2, 1, {20, 40});
  std::vector<FeatureFamily> fams = {a, b};
  ASSERT_TRUE(AlignFamilies(&fams).ok());
  EXPECT_EQ(fams[0].num_timestamps(), 4u);
  EXPECT_EQ(fams[1].num_timestamps(), 4u);
  EXPECT_EQ(fams[0].timestamps,
            (std::vector<EpochSeconds>{0, 60, 120, 180}));
  EXPECT_EQ(fams[0].data(3, 0), 3.0);  // trailing fill for a
  EXPECT_EQ(fams[1].data(0, 0), 20.0);  // leading fill for b
  EXPECT_EQ(fams[1].data(2, 0), 20.0);  // 120 closer to 60 than 180... tie rule
}

// ---------------------------------------------------------------------------
// Pivot parity: FamiliesFromQueryResult(t, d) must equal
// FamiliesFromTable(NormalizeToFeatureFamilyTable(t, d)) on every table,
// and FamiliesFromTable must equal the map-of-maps pivot it replaced.
// ---------------------------------------------------------------------------

/// The map-of-maps FamiliesFromTable the one-pass pivot replaced, kept as
/// an oracle.
Result<std::vector<FeatureFamily>> ReferenceFamiliesFromTable(
    const table::Table& t) {
  const auto ts_idx = t.schema().FieldIndex("ts");
  const auto name_idx = t.schema().FieldIndex("name");
  const auto v_idx = t.schema().FieldIndex("v");
  if (!ts_idx || !name_idx || !v_idx) {
    return Status::InvalidArgument("missing (ts, name, v)");
  }
  struct FamilyAccum {
    std::vector<std::string> feature_order;
    std::map<std::string, std::map<EpochSeconds, double>> cells;
  };
  std::map<std::string, FamilyAccum> families;
  std::vector<std::string> family_order;
  std::set<EpochSeconds> grid_set;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    const table::Value& name_v = t.At(r, *name_idx);
    const table::Value& ts_v = t.At(r, *ts_idx);
    const table::ValueMap* v = t.At(r, *v_idx).AsMap();
    if (name_v.is_null() || ts_v.is_null() || v == nullptr) continue;
    const std::string fam_name = name_v.AsString();
    auto [it, inserted] = families.try_emplace(fam_name);
    if (inserted) family_order.push_back(fam_name);
    const EpochSeconds ts = ts_v.AsTimestamp();
    grid_set.insert(ts);
    for (const auto& [feature, val] : *v) {
      auto [cit, cinserted] = it->second.cells.try_emplace(feature);
      if (cinserted) it->second.feature_order.push_back(feature);
      if (!val.is_null()) cit->second[ts] = val.AsDouble();
    }
  }
  const std::vector<EpochSeconds> grid(grid_set.begin(), grid_set.end());
  std::vector<FeatureFamily> out;
  for (const std::string& fam_name : family_order) {
    const FamilyAccum& acc = families[fam_name];
    FeatureFamily fam;
    fam.name = fam_name;
    fam.timestamps = grid;
    fam.feature_names = acc.feature_order;
    fam.data = la::Matrix(grid.size(), acc.feature_order.size());
    for (size_t c = 0; c < acc.feature_order.size(); ++c) {
      const auto& cells = acc.cells.at(acc.feature_order[c]);
      std::vector<double> col(grid.size(),
                              std::numeric_limits<double>::quiet_NaN());
      for (size_t r = 0; r < grid.size(); ++r) {
        auto cit = cells.find(grid[r]);
        if (cit != cells.end()) col[r] = cit->second;
      }
      tsdb::InterpolateMissing(col);
      fam.data.SetCol(c, col);
    }
    out.push_back(std::move(fam));
  }
  return out;
}

/// Names, feature order, grids and cell bits (NaN matches NaN).
void ExpectSameFamilies(const Result<std::vector<FeatureFamily>>& got,
                        const Result<std::vector<FeatureFamily>>& want) {
  ASSERT_EQ(got.ok(), want.ok())
      << (got.ok() ? want.status() : got.status()).ToString();
  if (!got.ok()) {
    EXPECT_EQ(got.status().ToString(), want.status().ToString());
    return;
  }
  ASSERT_EQ(got->size(), want->size());
  for (size_t f = 0; f < got->size(); ++f) {
    const FeatureFamily& a = (*got)[f];
    const FeatureFamily& b = (*want)[f];
    SCOPED_TRACE("family " + b.name);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.feature_names, b.feature_names);
    EXPECT_EQ(a.timestamps, b.timestamps);
    ASSERT_EQ(a.num_timestamps(), b.num_timestamps());
    ASSERT_EQ(a.num_features(), b.num_features());
    for (size_t r = 0; r < a.num_timestamps(); ++r) {
      for (size_t c = 0; c < a.num_features(); ++c) {
        const double x = a.data(r, c);
        const double y = b.data(r, c);
        if (std::isnan(y)) {
          EXPECT_TRUE(std::isnan(x)) << r << "," << c;
        } else {
          EXPECT_EQ(std::memcmp(&x, &y, sizeof(x)), 0)
              << r << "," << c << ": " << x << " vs " << y;
        }
      }
    }
  }
}

/// A seeded query-result table: NULL timestamps and names, an optional
/// name column (sometimes numeric), duplicate column names, (nested) map
/// cells, duplicate (family, ts) rows, shared and NaN cells.
table::Table RandomQueryResult(uint64_t seed) {
  Rng rng(seed);
  const char* kFeatureNames[] = {"v", "a", "b", "v", "ts2"};
  const char* kKeys[] = {"a", "b", "v", "z"};
  const char* kFamilies[] = {"disk@dn-1", "disk@dn-2", "net", "runtime"};
  enum class Col { kTs, kName, kNumber, kMap };
  std::vector<std::pair<std::string, Col>> cols;
  // The ts column: found by name or by type.
  const uint64_t ts_kind = rng.UniformInt(3);
  cols.push_back({ts_kind == 0 ? "ts" : ts_kind == 1 ? "timestamp" : "t0",
                  Col::kTs});
  const uint64_t name_kind = rng.UniformInt(3);  // 2: no name column
  if (name_kind < 2) {
    cols.push_back({name_kind == 0 ? "name" : "family", Col::kName});
  }
  const size_t extra = 1 + rng.UniformInt(4);
  for (size_t i = 0; i < extra; ++i) {
    if (rng.Bernoulli(0.3)) {
      cols.push_back({"m" + std::to_string(i), Col::kMap});
    } else {
      cols.push_back({kFeatureNames[rng.UniformInt(5)], Col::kNumber});
    }
  }
  for (size_t i = cols.size(); i > 1; --i) {
    std::swap(cols[i - 1], cols[rng.UniformInt(i)]);
  }
  std::vector<table::Field> fields;
  for (const auto& [name, kind] : cols) {
    fields.push_back({name, kind == Col::kTs     ? table::DataType::kTimestamp
                            : kind == Col::kName ? table::DataType::kString
                            : kind == Col::kMap  ? table::DataType::kMap
                                                 : table::DataType::kDouble});
  }
  table::Table t{table::Schema(fields)};

  auto number = [&]() {
    const uint64_t k = rng.UniformInt(10);
    if (k == 0) return table::Value::Null();
    if (k == 1) return table::Value::Double(std::nan(""));
    if (k == 2) return table::Value::Int(static_cast<int64_t>(rng.UniformInt(9)));
    if (k == 3) return table::Value::Double(-0.0);
    return table::Value::Double(rng.Normal());
  };
  auto map = [&](int depth) {
    table::ValueMap m;
    const size_t n = rng.UniformInt(4);
    for (size_t i = 0; i < n; ++i) {
      const std::string key = kKeys[rng.UniformInt(4)];
      if (depth == 0 && rng.Bernoulli(0.2)) {
        table::ValueMap inner;
        inner["x"] = number();
        m[key] = table::Value::Map(std::move(inner));
      } else {
        m[key] = number();
      }
    }
    return table::Value::Map(std::move(m));
  };
  const table::Value shared_map = map(0);
  const size_t rows = rng.UniformInt(40);
  std::string family = kFamilies[0];
  for (size_t r = 0; r < rows; ++r) {
    if (rng.Bernoulli(0.3)) family = kFamilies[rng.UniformInt(4)];
    std::vector<table::Value> row;
    for (const auto& [name, kind] : cols) {
      switch (kind) {
        case Col::kTs:
          row.push_back(rng.Bernoulli(0.1)
                            ? table::Value::Null()
                            : table::Value::Timestamp(
                                  60 * static_cast<int64_t>(rng.UniformInt(8))));
          break;
        case Col::kName: {
          // The first non-null cell stays a string, so a column not
          // called "name" is still found by type.
          const uint64_t k = r == 0 ? 3 : rng.UniformInt(8);
          if (k == 0) {
            row.push_back(table::Value::Null());
          } else if (k == 1) {
            row.push_back(table::Value::Int(static_cast<int64_t>(rng.UniformInt(3))));
          } else if (k == 2) {
            row.push_back(table::Value::Double(1.5));
          } else {
            row.push_back(table::Value::String(family));
          }
          break;
        }
        case Col::kNumber:
          row.push_back(number());
          break;
        case Col::kMap:
          row.push_back(rng.Bernoulli(0.2) ? table::Value::Null()
                        : rng.Bernoulli(0.3) ? shared_map
                                             : map(0));
          break;
      }
    }
    t.AppendRow(std::move(row));
    if (rng.Bernoulli(0.15)) {  // a duplicate (family, ts) row
      std::vector<table::Value> dup = t.Row(t.num_rows() - 1);
      for (size_t c = 0; c < cols.size(); ++c) {
        if (cols[c].second == Col::kNumber) dup[c] = number();
      }
      t.AppendRow(std::move(dup));
    }
  }
  return t;
}

TEST(FamilyTest, FamiliesFromQueryResultMatchesNormalizeThenPivot) {
  for (uint64_t seed = 1; seed <= 500; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const table::Table t = RandomQueryResult(seed);
    auto ff = NormalizeToFeatureFamilyTable(t, "deflt");
    if (!ff.ok()) {
      ExpectSameFamilies(FamiliesFromQueryResult(t, "deflt"), ff.status());
      continue;
    }
    ExpectSameFamilies(FamiliesFromQueryResult(t, "deflt"),
                       FamiliesFromTable(*ff));
    ExpectSameFamilies(FamiliesFromTable(*ff), ReferenceFamiliesFromTable(*ff));
  }
}

TEST(FamilyTest, FamiliesFromTableMatchesMapOfMapsPivot) {
  // Feature Family Tables with the rows FamiliesFromTable must skip: NULL
  // ts or name, and v cells that are not maps.
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    table::Table t(table::Schema({{"ts", table::DataType::kTimestamp},
                                  {"name", table::DataType::kString},
                                  {"v", table::DataType::kMap}}));
    const size_t rows = rng.UniformInt(30);
    for (size_t r = 0; r < rows; ++r) {
      table::ValueMap m;
      for (const char* key : {"x", "y", "z"}) {
        if (!rng.Bernoulli(0.6)) continue;
        m[key] = rng.Bernoulli(0.2)
                     ? table::Value::Null()
                     : table::Value::Double(rng.Normal());
      }
      const uint64_t name = rng.UniformInt(5);
      t.AppendRow(
          {rng.Bernoulli(0.1) ? table::Value::Null()
                              : table::Value::Timestamp(
                                    60 * static_cast<int64_t>(rng.UniformInt(6))),
           name == 0   ? table::Value::Null()
           : name == 1 ? table::Value::Int(7)
                       : table::Value::String("f" + std::to_string(name)),
           rng.Bernoulli(0.1) ? table::Value::Double(1.0)
                              : table::Value::Map(std::move(m))});
    }
    ExpectSameFamilies(FamiliesFromTable(t), ReferenceFamiliesFromTable(t));
  }
}

TEST(FamilyTest, FamiliesFromQueryResultKeepsPivotRules) {
  // ts, name, two value columns (b before a) and a map column.
  table::Table t(table::Schema({{"ts", table::DataType::kTimestamp},
                                {"name", table::DataType::kString},
                                {"b", table::DataType::kDouble},
                                {"a", table::DataType::kDouble},
                                {"m", table::DataType::kMap}}));
  table::ValueMap m;
  m["a"] = table::Value::Double(100.0);  // overrides column a (later wins)
  t.AppendRow({table::Value::Timestamp(60), table::Value::String("f"),
               table::Value::Double(1.0), table::Value::Double(2.0),
               table::Value::Map(m)});
  t.AppendRow({table::Value::Timestamp(0), table::Value::Null(),
               table::Value::Null(), table::Value::Double(3.0),
               table::Value::Null()});
  t.AppendRow({table::Value::Timestamp(60), table::Value::String("f"),
               table::Value::Double(5.0), table::Value::Double(6.0),
               table::Value::Null()});
  auto fams = FamiliesFromQueryResult(t, "deflt");
  ASSERT_TRUE(fams.ok()) << fams.status().ToString();
  ASSERT_EQ(fams->size(), 2u);
  const FeatureFamily& f = (*fams)[0];
  EXPECT_EQ(f.name, "f");
  // Key order within a row, not column order. Row 1's map cell flattens;
  // row 3's NULL m is a feature of its own, registered without a value.
  EXPECT_EQ(f.feature_names, (std::vector<std::string>{"a", "b", "m"}));
  EXPECT_EQ(f.timestamps, (std::vector<EpochSeconds>{0, 60}));  // union
  EXPECT_EQ(f.data(1, 0), 6.0);  // the last value of (a, 60) wins
  EXPECT_EQ(f.data(1, 1), 5.0);
  EXPECT_EQ(f.data(0, 0), 6.0);  // interpolated from the nearest cell
  EXPECT_EQ(f.data(1, 2), 0.0);  // a feature without any value
  const FeatureFamily& d = (*fams)[1];
  EXPECT_EQ(d.name, "deflt");  // a NULL name
  EXPECT_EQ(d.feature_names, (std::vector<std::string>{"a", "b", "m"}));
  EXPECT_EQ(d.data(0, 0), 3.0);
  EXPECT_EQ(d.data(0, 1), 0.0);  // registered by a NULL, never set
}

}  // namespace
}  // namespace explainit::core
