#include "core/feature_family.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "common/strings.h"

namespace explainit::core {

int FeatureFamily::FindFeature(const std::string& feature_name) const {
  for (size_t i = 0; i < feature_names.size(); ++i) {
    if (feature_names[i] == feature_name) return static_cast<int>(i);
  }
  return -1;
}

namespace {

Status CheckAligned(const std::vector<tsdb::SeriesData>& series) {
  if (series.empty()) return Status::OK();
  const auto& grid = series[0].timestamps;
  for (const tsdb::SeriesData& s : series) {
    if (s.timestamps != grid) {
      return Status::InvalidArgument(
          "series are not aligned to a common grid; use ScanAligned");
    }
  }
  return Status::OK();
}

FeatureFamily BuildOne(const std::string& name,
                       const std::vector<const tsdb::SeriesData*>& members) {
  FeatureFamily fam;
  fam.name = name;
  fam.timestamps = members.front()->timestamps;
  fam.feature_names.reserve(members.size());
  fam.data = la::Matrix(fam.timestamps.size(), members.size());
  for (size_t c = 0; c < members.size(); ++c) {
    fam.feature_names.push_back(members[c]->meta.ToString());
    for (size_t r = 0; r < fam.timestamps.size(); ++r) {
      fam.data(r, c) = members[c]->values[r];
    }
  }
  return fam;
}

}  // namespace

Result<std::vector<FeatureFamily>> BuildFamilies(
    const std::vector<tsdb::SeriesData>& series,
    const GroupingOptions& options) {
  EXPLAINIT_RETURN_IF_ERROR(CheckAligned(series));
  std::vector<FeatureFamily> out;
  if (series.empty()) return out;

  // Ordered map keeps family order deterministic.
  std::map<std::string, std::vector<const tsdb::SeriesData*>> groups;
  switch (options.key) {
    case GroupingKey::kMetricName:
      for (const tsdb::SeriesData& s : series) {
        groups[s.meta.metric_name].push_back(&s);
      }
      break;
    case GroupingKey::kTag: {
      if (options.tag_key.empty()) {
        return Status::InvalidArgument("tag grouping requires tag_key");
      }
      for (const tsdb::SeriesData& s : series) {
        const std::string& v = s.meta.tags.Get(options.tag_key);
        const std::string family_name =
            "*{" + options.tag_key + "=" + (v.empty() ? "NULL" : v) + "}";
        groups[family_name].push_back(&s);
      }
      break;
    }
    case GroupingKey::kPattern: {
      if (options.patterns.empty()) {
        return Status::InvalidArgument(
            "pattern grouping requires at least one pattern");
      }
      for (const std::string& pattern : options.patterns) {
        for (const tsdb::SeriesData& s : series) {
          if (GlobMatch(pattern, s.meta.ToString())) {
            groups[pattern].push_back(&s);
          }
        }
      }
      break;
    }
  }
  for (const auto& [name, members] : groups) {
    if (members.empty()) continue;
    out.push_back(BuildOne(name, members));
  }
  return out;
}

namespace {

/// Where a SQL result keeps its timestamps and family names.
struct FamilyColumns {
  size_t ts = 0;
  std::optional<size_t> name;  // absent: every row is the default family
};

/// The ts column is one named ts (else timestamp), else the first column
/// whose first non-null cell is a TIMESTAMP; the name column is one named
/// name (unless that is the ts column), else the first other column
/// whose first non-null cell is a string.
Result<FamilyColumns> LocateFamilyColumns(const table::Table& t) {
  if (t.num_columns() == 0) {
    return Status::InvalidArgument("empty query result");
  }
  auto first_cell_is = [&](size_t c, table::DataType type) {
    for (size_t r = 0; r < t.num_rows(); ++r) {
      if (!t.At(r, c).is_null()) return t.At(r, c).type() == type;
    }
    return false;
  };
  std::optional<size_t> ts = t.schema().FieldIndex("ts");
  if (!ts) ts = t.schema().FieldIndex("timestamp");
  for (size_t c = 0; c < t.num_columns() && !ts; ++c) {
    if (first_cell_is(c, table::DataType::kTimestamp)) ts = c;
  }
  if (!ts) {
    return Status::InvalidArgument(
        "query result has no timestamp column (expected 'ts'/'timestamp' or "
        "a TIMESTAMP-typed column)");
  }
  FamilyColumns cols;
  cols.ts = *ts;
  cols.name = t.schema().FieldIndex("name");
  if (cols.name == cols.ts) cols.name.reset();
  for (size_t c = 0; c < t.num_columns() && !cols.name; ++c) {
    if (c != cols.ts && first_cell_is(c, table::DataType::kString)) {
      cols.name = c;
    }
  }
  return cols;
}

/// One feature of a row: its name, its cell, and its position in the row
/// (of equally named entries the last one wins).
struct Entry {
  std::string_view key;
  const table::Value* value;
  size_t seq;
};

/// What the pivot reads: rows with a non-NULL ts, whose features are the
/// `value_cols` cells (a map cell flattening into its entries). A
/// Feature Family Table is `strict`: a row with a NULL name, or a v cell
/// that is not a map, is skipped. Otherwise a missing or NULL name is
/// `default_family`.
struct PivotInput {
  size_t ts = 0;
  std::optional<size_t> name;
  std::vector<size_t> value_cols;
  bool strict = false;
  std::string default_family;
};

/// The one pivot from rows to families. Families and their features are
/// numbered in first-seen order; cells are written straight into each
/// family's matrix over the sorted union of timestamps, so nothing is
/// allocated per row or per cell.
Result<std::vector<FeatureFamily>> Pivot(const table::Table& t,
                                         const PivotInput& in) {
  struct Family {
    std::string name;
    std::vector<std::string> features;
    std::map<std::string, uint32_t, std::less<>> feature_of;
  };
  struct Cell {
    uint32_t family;
    uint32_t feature;
    uint32_t ts;  // index into ts_seen
    double value;
  };
  std::vector<Family> families;
  std::unordered_map<std::string, uint32_t> family_of;
  std::vector<EpochSeconds> ts_seen;  // distinct, in first-seen order
  std::unordered_map<EpochSeconds, uint32_t> ts_of;
  std::vector<Cell> cells;

  // The family and timestamp lookups are skipped while a row repeats the
  // previous row's name cell or timestamp.
  std::vector<Entry> entries;
  const table::Value* prev_name = nullptr;
  uint32_t fam = UINT32_MAX;
  uint32_t ts_index = UINT32_MAX;
  EpochSeconds prev_ts = 0;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    const table::Value& ts_v = t.At(r, in.ts);
    if (ts_v.is_null()) continue;
    const table::Value* name_v = nullptr;
    if (in.name.has_value() && !t.At(r, *in.name).is_null()) {
      name_v = &t.At(r, *in.name);
    }
    if (in.strict && (name_v == nullptr ||
                      t.At(r, in.value_cols[0]).AsMap() == nullptr)) {
      continue;
    }

    // The row's features in name order: a single column is in order
    // already (a map's keys are sorted and distinct).
    entries.clear();
    for (size_t c : in.value_cols) {
      const table::Value& cell = t.At(r, c);
      if (const table::ValueMap* m = cell.AsMap(); m != nullptr) {
        for (const auto& [k, mv] : *m) {
          entries.push_back({k, &mv, entries.size()});
        }
      } else {
        entries.push_back({t.schema().field(c).name, &cell, entries.size()});
      }
    }
    if (in.value_cols.size() > 1) {
      std::sort(entries.begin(), entries.end(),
                [](const Entry& a, const Entry& b) {
                  return a.key != b.key ? a.key < b.key : a.seq < b.seq;
                });
      size_t kept = 0;
      for (size_t i = 0; i < entries.size(); ++i) {
        if (i + 1 == entries.size() || entries[i + 1].key != entries[i].key) {
          entries[kept++] = entries[i];
        }
      }
      entries.resize(kept);
    }

    if (fam == UINT32_MAX || (name_v == nullptr) != (prev_name == nullptr) ||
        (name_v != nullptr && !name_v->Identical(*prev_name))) {
      std::string fam_name =
          name_v != nullptr ? name_v->AsString() : in.default_family;
      const auto [it, inserted] = family_of.try_emplace(
          fam_name, static_cast<uint32_t>(families.size()));
      if (inserted) families.emplace_back().name = std::move(fam_name);
      fam = it->second;
    }
    prev_name = name_v;

    const EpochSeconds ts = ts_v.AsTimestamp();
    if (ts_index == UINT32_MAX || ts != prev_ts) {
      const auto [it, inserted] =
          ts_of.try_emplace(ts, static_cast<uint32_t>(ts_seen.size()));
      if (inserted) ts_seen.push_back(ts);
      ts_index = it->second;
      prev_ts = ts;
    }

    Family& f = families[fam];
    for (const Entry& e : entries) {
      auto it = f.feature_of.find(e.key);
      if (it == f.feature_of.end()) {
        it = f.feature_of
                 .emplace(e.key, static_cast<uint32_t>(f.features.size()))
                 .first;
        f.features.emplace_back(e.key);
      }
      if (!e.value->is_null()) {
        cells.push_back({fam, it->second, ts_index, e.value->AsDouble()});
      }
    }
  }

  // Cells land in NaN-initialised matrices over the sorted grid, later
  // cells overwriting earlier ones; then each column is interpolated.
  std::vector<EpochSeconds> grid = ts_seen;
  std::sort(grid.begin(), grid.end());
  std::vector<uint32_t> grid_row(ts_seen.size());
  for (size_t i = 0; i < ts_seen.size(); ++i) {
    grid_row[i] = static_cast<uint32_t>(
        std::lower_bound(grid.begin(), grid.end(), ts_seen[i]) -
        grid.begin());
  }
  std::vector<FeatureFamily> out(families.size());
  for (size_t i = 0; i < families.size(); ++i) {
    out[i].name = std::move(families[i].name);
    out[i].timestamps = grid;
    out[i].feature_names = std::move(families[i].features);
    const size_t width = out[i].feature_names.size();
    out[i].data = la::Matrix(
        grid.size(), width,
        std::vector<double>(grid.size() * width,
                            std::numeric_limits<double>::quiet_NaN()));
  }
  for (const Cell& c : cells) {
    out[c.family].data(grid_row[c.ts], c.feature) = c.value;
  }
  for (FeatureFamily& f : out) {
    for (size_t c = 0; c < f.num_features(); ++c) {
      std::vector<double> col = f.data.Col(c);
      tsdb::InterpolateMissing(col);
      f.data.SetCol(c, col);
    }
  }
  return out;
}

}  // namespace

Result<table::Table> NormalizeToFeatureFamilyTable(
    const table::Table& t, const std::string& default_family) {
  EXPLAINIT_ASSIGN_OR_RETURN(const FamilyColumns cols,
                             LocateFamilyColumns(t));
  table::Schema schema({{"ts", table::DataType::kTimestamp},
                        {"name", table::DataType::kString},
                        {"v", table::DataType::kMap}});
  table::Table out(schema);
  for (size_t r = 0; r < t.num_rows(); ++r) {
    const table::Value& ts = t.At(r, cols.ts);
    if (ts.is_null()) continue;
    std::string family = default_family;
    if (cols.name.has_value() && !t.At(r, *cols.name).is_null()) {
      family = t.At(r, *cols.name).AsString();
    }
    table::ValueMap v;
    for (size_t c = 0; c < t.num_columns(); ++c) {
      if (c == cols.ts || c == cols.name) continue;
      const table::Value& cell = t.At(r, c);
      if (cell.AsMap() != nullptr) {
        // Flatten nested maps (a query may project an existing v column).
        for (const auto& [k, mv] : *cell.AsMap()) v[k] = mv;
        continue;
      }
      v[t.schema().field(c).name] = cell;
    }
    out.AppendRow({table::Value::Timestamp(ts.AsTimestamp()),
                   table::Value::String(family),
                   table::Value::Map(std::move(v))});
  }
  return out;
}

Result<std::vector<FeatureFamily>> FamiliesFromQueryResult(
    const table::Table& query_result, const std::string& default_family) {
  EXPLAINIT_ASSIGN_OR_RETURN(const FamilyColumns cols,
                             LocateFamilyColumns(query_result));
  PivotInput in;
  in.ts = cols.ts;
  in.name = cols.name;
  for (size_t c = 0; c < query_result.num_columns(); ++c) {
    if (c != cols.ts && c != cols.name) in.value_cols.push_back(c);
  }
  in.default_family = default_family;
  return Pivot(query_result, in);
}

Result<std::vector<FeatureFamily>> FamiliesFromTable(const table::Table& t) {
  const auto ts_idx = t.schema().FieldIndex("ts");
  const auto name_idx = t.schema().FieldIndex("name");
  const auto v_idx = t.schema().FieldIndex("v");
  if (!ts_idx || !name_idx || !v_idx) {
    return Status::InvalidArgument(
        "feature family table must have columns (ts, name, v); got " +
        t.schema().ToString());
  }
  PivotInput in;
  in.ts = *ts_idx;
  in.name = name_idx;
  in.value_cols = {*v_idx};
  in.strict = true;
  return Pivot(t, in);
}

table::Table FamilyToTable(const FeatureFamily& family) {
  table::Schema schema({{"ts", table::DataType::kTimestamp},
                        {"name", table::DataType::kString},
                        {"v", table::DataType::kMap}});
  table::Table out(schema);
  for (size_t r = 0; r < family.num_timestamps(); ++r) {
    table::ValueMap v;
    for (size_t c = 0; c < family.num_features(); ++c) {
      v[family.feature_names[c]] = table::Value::Double(family.data(r, c));
    }
    out.AppendRow({table::Value::Timestamp(family.timestamps[r]),
                   table::Value::String(family.name),
                   table::Value::Map(std::move(v))});
  }
  return out;
}

FeatureFamily SliceFamily(const FeatureFamily& family,
                          const TimeRange& range) {
  FeatureFamily out;
  out.name = family.name;
  out.feature_names = family.feature_names;
  std::vector<size_t> rows;
  for (size_t r = 0; r < family.num_timestamps(); ++r) {
    if (range.Contains(family.timestamps[r])) {
      rows.push_back(r);
      out.timestamps.push_back(family.timestamps[r]);
    }
  }
  out.data = la::Matrix(rows.size(), family.num_features());
  for (size_t i = 0; i < rows.size(); ++i) {
    std::copy(family.data.Row(rows[i]),
              family.data.Row(rows[i]) + family.num_features(),
              out.data.Row(i));
  }
  return out;
}

}  // namespace explainit::core
