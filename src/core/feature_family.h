// Feature families (§3.2): groups of univariate metrics organised into
// human-relatable units — "grouping is a critical operation that precedes
// hypothesis generation".
#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "common/time_util.h"
#include "la/matrix.h"
#include "table/table.h"
#include "tsdb/store.h"

namespace explainit::core {

/// A named group of univariate metrics sampled on a shared time grid.
/// The data matrix is (T timestamps) x (F features) — the paper's dense
/// array representation (§4.2).
struct FeatureFamily {
  std::string name;
  std::vector<std::string> feature_names;  // size F
  std::vector<EpochSeconds> timestamps;    // size T
  la::Matrix data;                         // T x F

  size_t num_features() const { return data.cols(); }
  size_t num_timestamps() const { return data.rows(); }

  /// Column index of a feature name; -1 when absent.
  int FindFeature(const std::string& feature_name) const;
};

/// How to group a population of series into families.
enum class GroupingKey {
  kMetricName,  // one family per metric name: input_rate{*}, disk{*}, ...
  kTag,         // one family per value of a tag key: *{host=datanode-1}, ...
  kPattern,     // user-supplied glob patterns over "name{tags}" strings
};

/// Options for BuildFamilies.
struct GroupingOptions {
  GroupingKey key = GroupingKey::kMetricName;
  /// For kTag: which tag key to group on (series missing the key group
  /// under "NULL", matching §3.2's *{host=NULL} family).
  std::string tag_key;
  /// For kPattern: each glob becomes one family of every matching series.
  std::vector<std::string> patterns;
};

/// Groups aligned series (same grid) into feature families. Series must
/// come from SeriesStore::ScanAligned so all timestamp vectors agree.
Result<std::vector<FeatureFamily>> BuildFamilies(
    const std::vector<tsdb::SeriesData>& series,
    const GroupingOptions& options);

/// Normalises an arbitrary SQL result into the Figure 4 Feature Family
/// Table schema (ts, name, v):
///  - the ts column is one named ts (else timestamp), else the first
///    column whose first non-null cell is a TIMESTAMP; rows with a NULL
///    ts are dropped;
///  - the name column is one named name, else the first other column
///    whose first non-null cell is a string; a missing name column or a
///    NULL name gives `default_family`;
///  - every remaining column becomes a map entry keyed by its column name
///    ("the second stage interprets the aggregated columns as a map whose
///    keys are the column names", Appendix C), except that a map cell
///    flattens into its own entries (later columns overwrite earlier
///    keys).
Result<table::Table> NormalizeToFeatureFamilyTable(
    const table::Table& query_result,
    const std::string& default_family = "family");

/// The families of a SQL result in one pass, equal to
/// FamiliesFromTable(NormalizeToFeatureFamilyTable(query_result,
/// default_family)) without building the intermediate table.
Result<std::vector<FeatureFamily>> FamiliesFromQueryResult(
    const table::Table& query_result, const std::string& default_family);

/// Builds feature families from a Feature Family Table in the Figure 4
/// schema: (ts TIMESTAMP, name STRING, v MAP<string,double>). Rows sharing
/// `name` form one family (rows with a NULL ts or name, or a v that is
/// not a map, are skipped); map keys become feature names in first-seen
/// order; every family spans the union of all rows' timestamps; a NULL
/// entry registers its feature without a value, a repeated (feature, ts)
/// keeps the last value, and missing cells are interpolated to the
/// nearest observation.
Result<std::vector<FeatureFamily>> FamiliesFromTable(
    const table::Table& feature_family_table);

/// Renders a family back to the Figure 4 schema (one row per timestamp).
table::Table FamilyToTable(const FeatureFamily& family);

/// Returns a family restricted to rows whose timestamp lies in `range`.
FeatureFamily SliceFamily(const FeatureFamily& family, const TimeRange& range);

}  // namespace explainit::core
