// Planner tests: predicate/time-range pushdown into the tsdb store,
// projection pruning, join strategy and build-side selection, and the
// per-operator ExecStats counters of the vectorised pipeline.
#include "sql/planner.h"

#include <gtest/gtest.h>

#include "sql/executor.h"
#include "tsdb/store.h"

namespace explainit::sql {
namespace {

using table::DataType;
using table::Schema;
using table::Table;
using table::Value;

constexpr int64_t kPoints = 100;  // per series, one per minute
const TimeRange kFullRange{0, kPoints * 60};

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    functions_ = FunctionRegistry::Builtins();
    store_ = std::make_shared<tsdb::SeriesStore>();
    for (int host = 0; host < 4; ++host) {
      const tsdb::TagSet tags{{"host", "h" + std::to_string(host)}};
      for (int64_t i = 0; i < kPoints; ++i) {
        ASSERT_TRUE(
            store_->Write("cpu", tags, i * 60, host * 100.0 + i).ok());
        ASSERT_TRUE(
            store_->Write("mem", tags, i * 60, host * 200.0 + i).ok());
      }
    }
    // The engine-style hinted provider: a store scan that honours hints.
    auto store = store_;
    catalog_.RegisterHintedProvider(
        "tsdb",
        [store](const tsdb::ScanHints& hints) -> Result<table::Table> {
          tsdb::ScanRequest req;
          req.range = kFullRange;
          req.hints = hints;
          return store->ScanToTable(req);
        });
    executor_ = std::make_unique<Executor>(&catalog_, &functions_);
  }

  Table MustQuery(const std::string& q) {
    auto res = executor_->Query(q);
    EXPECT_TRUE(res.ok()) << q << " -> " << res.status().ToString();
    return res.ok() ? std::move(res).value() : Table{};
  }

  const OperatorStats* FindOperator(const std::string& name) {
    for (const OperatorStats& op : executor_->last_stats().operators) {
      if (op.name == name) return &op;
    }
    return nullptr;
  }

  std::shared_ptr<tsdb::SeriesStore> store_;
  Catalog catalog_;
  FunctionRegistry functions_;
  std::unique_ptr<Executor> executor_;
};

TEST_F(PlannerTest, TimeRangePushdownNarrowsStoreWindow) {
  // WHERE ts BETWEEN ... must shrink the ScanRequest window the store
  // sees: [120, 300] inclusive becomes the half-open [120, 301).
  Table t = MustQuery(
      "SELECT value FROM tsdb WHERE metric_name = 'cpu' "
      "AND timestamp BETWEEN 120 AND 300");
  const tsdb::ScanStats& st = store_->scan_stats();
  EXPECT_EQ(st.last_range.start, 120);
  EXPECT_EQ(st.last_range.end, 301);
  // Minutes 2,3,4,5 of 4 cpu series.
  EXPECT_EQ(t.num_rows(), 4u * 4u);
  // The store only decoded/returned the windowed points, and the scan
  // only matched the cpu series.
  EXPECT_EQ(st.series_matched, 4u);
  EXPECT_EQ(st.points_returned, 16u);
}

TEST_F(PlannerTest, ComparisonPushdownNarrowsStoreWindow) {
  Table t = MustQuery(
      "SELECT value FROM tsdb WHERE metric_name = 'cpu' "
      "AND timestamp >= 60 AND timestamp < 180");
  EXPECT_EQ(store_->scan_stats().last_range.start, 60);
  EXPECT_EQ(store_->scan_stats().last_range.end, 180);
  EXPECT_EQ(t.num_rows(), 4u * 2u);  // minutes 1 and 2
}

TEST_F(PlannerTest, MetricAndTagPushdown) {
  Table t = MustQuery(
      "SELECT value FROM tsdb WHERE metric_name = 'cpu' "
      "AND tag['host'] = 'h2'");
  EXPECT_EQ(store_->scan_stats().last_metric_glob, "cpu");
  EXPECT_EQ(store_->scan_stats().series_matched, 1u);
  EXPECT_EQ(t.num_rows(), static_cast<size_t>(kPoints));
  EXPECT_EQ(t.At(0, 0).AsDouble(), 200.0);
}

TEST_F(PlannerTest, PushdownMatchesUnpushedResults) {
  // The same query against a hinted provider and a plain materialised
  // copy must agree (the materialised path keeps the full filter).
  tsdb::ScanRequest all;
  all.range = kFullRange;
  auto full = store_->ScanToTable(all);
  ASSERT_TRUE(full.ok());
  catalog_.RegisterTable("tsdb_mat", std::move(full).value());
  const std::string where =
      " WHERE metric_name = 'mem' AND tag['host'] = 'h1' "
      "AND timestamp BETWEEN 300 AND 900";
  Table pushed = MustQuery("SELECT timestamp, value FROM tsdb" + where);
  Table plain = MustQuery("SELECT timestamp, value FROM tsdb_mat" + where);
  ASSERT_EQ(pushed.num_rows(), plain.num_rows());
  for (size_t r = 0; r < pushed.num_rows(); ++r) {
    EXPECT_EQ(pushed.At(r, 0).AsInt(), plain.At(r, 0).AsInt());
    EXPECT_EQ(pushed.At(r, 1).AsDouble(), plain.At(r, 1).AsDouble());
  }
  EXPECT_GT(pushed.num_rows(), 0u);
}

TEST_F(PlannerTest, ContradictoryRangeYieldsEmptyNotUnbounded) {
  // ts >= 600 AND ts < 300 must not degrade into an unbounded scan.
  Table t = MustQuery(
      "SELECT value FROM tsdb WHERE timestamp >= 600 AND timestamp < 300");
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST_F(PlannerTest, DegenerateHintWindowScansNothing) {
  // The hint [6000, MAX) intersected with the provider range [0, 6000)
  // degenerates to an empty window; the store's start == end sentinel
  // ("unbounded") must not resurrect it.
  Table t = MustQuery(
      "SELECT value FROM tsdb WHERE timestamp >= " +
      std::to_string(kFullRange.end));
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST_F(PlannerTest, MisnamedTimeColumnStillErrors) {
  // The store table's time column is 'timestamp'; a WHERE over a
  // nonexistent 'ts' column must keep failing even though the planner
  // recognises 'ts' as a time-column name for hint extraction.
  auto res = executor_->Query("SELECT value FROM tsdb WHERE ts >= 0");
  EXPECT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsNotFound()) << res.status().ToString();
}

TEST_F(PlannerTest, GroupByLagSpansBatches) {
  // LAG in a GROUP BY key must see the whole input, not one 1024-row
  // batch at a time: with distinct values, LAG(v) keys give one group
  // per row plus the leading NULL group.
  Schema s({{"v", DataType::kInt64}});
  Table t(s);
  constexpr size_t kRows = 1030;  // spans two batches
  for (size_t i = 0; i < kRows; ++i) {
    t.AppendRow({Value::Int(static_cast<int64_t>(i))});
  }
  catalog_.RegisterTable("lagged", std::move(t));
  Table out = MustQuery(
      "SELECT LAG(v) AS prev, COUNT(*) AS n FROM lagged GROUP BY LAG(v)");
  EXPECT_EQ(out.num_rows(), kRows);  // NULL + 1029 distinct predecessors
}

TEST_F(PlannerTest, LagDisablesPushdown) {
  // LAG reads neighbouring rows, so the scanned row set must not shrink:
  // the first row inside the window still sees its true predecessor...
  // conservatively the planner keeps the whole filter unpushed.
  Table t = MustQuery(
      "SELECT value - LAG(value) AS d FROM tsdb "
      "WHERE metric_name = 'cpu' AND tag['host'] = 'h0' "
      "AND timestamp >= 0");
  ASSERT_EQ(t.num_rows(), static_cast<size_t>(kPoints));
  EXPECT_TRUE(t.At(0, 0).is_null());
  EXPECT_EQ(t.At(1, 0).AsDouble(), 1.0);
  // The scan saw the registered full range, not a narrowed hint window.
  EXPECT_EQ(store_->scan_stats().last_range, kFullRange);
}

TEST_F(PlannerTest, ProjectionPruningDropsUnusedColumns) {
  catalog_.RegisterTable("wide", [] {
    Schema s({{"a", DataType::kInt64},
              {"b", DataType::kInt64},
              {"c", DataType::kInt64},
              {"d", DataType::kInt64},
              {"e", DataType::kInt64}});
    Table t(s);
    for (int i = 0; i < 10; ++i) {
      t.AppendRow({Value::Int(i), Value::Int(i), Value::Int(i),
                   Value::Int(i), Value::Int(i)});
    }
    return t;
  }());
  Table t = MustQuery("SELECT a + b AS ab FROM wide WHERE c > 3");
  EXPECT_EQ(t.num_rows(), 6u);
  const OperatorStats* scan = FindOperator("Scan");
  ASSERT_NE(scan, nullptr);
  EXPECT_NE(scan->detail.find("cols=3/5"), std::string::npos)
      << scan->detail;
}

TEST_F(PlannerTest, HashJoinBuildsOnSmallerSide) {
  Schema s({{"k", DataType::kInt64}});
  Table small(s), big(s);
  for (int i = 0; i < 3; ++i) small.AppendRow({Value::Int(i)});
  for (int i = 0; i < 50; ++i) big.AppendRow({Value::Int(i % 5)});
  catalog_.RegisterTable("small", std::move(small));
  catalog_.RegisterTable("big", std::move(big));

  // Small on the left: the planner should build (broadcast) the left.
  MustQuery("SELECT * FROM small JOIN big ON small.k = big.k");
  const OperatorStats* join = FindOperator("HashJoin");
  ASSERT_NE(join, nullptr);
  EXPECT_NE(join->detail.find("build=left"), std::string::npos)
      << join->detail;
  EXPECT_NE(join->detail.find("rows=3"), std::string::npos) << join->detail;

  // Small on the right: default right-side build already broadcasts it.
  MustQuery("SELECT * FROM big JOIN small ON small.k = big.k");
  join = FindOperator("HashJoin");
  ASSERT_NE(join, nullptr);
  EXPECT_NE(join->detail.find("build=right"), std::string::npos)
      << join->detail;
  EXPECT_NE(join->detail.find("rows=3"), std::string::npos) << join->detail;
  EXPECT_EQ(executor_->last_stats().hash_joins, 1u);
}

TEST_F(PlannerTest, NonEquiJoinPlansNestedLoop) {
  Schema s({{"v", DataType::kInt64}});
  Table ta(s), tb(s);
  ta.AppendRow({Value::Int(1)});
  ta.AppendRow({Value::Int(5)});
  tb.AppendRow({Value::Int(3)});
  catalog_.RegisterTable("na", std::move(ta));
  catalog_.RegisterTable("nb", std::move(tb));
  Table t = MustQuery("SELECT na.v, nb.v FROM na JOIN nb ON na.v < nb.v");
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(executor_->last_stats().nested_loop_joins, 1u);
  EXPECT_EQ(executor_->last_stats().hash_joins, 0u);
  EXPECT_NE(FindOperator("NestedLoopJoin"), nullptr);
}

TEST_F(PlannerTest, PerOperatorCountersReportRows) {
  Table t = MustQuery(
      "SELECT tag['host'] AS h, AVG(value) AS v FROM tsdb "
      "WHERE metric_name = 'cpu' GROUP BY tag['host']");
  EXPECT_EQ(t.num_rows(), 4u);
  const ExecStats& last = executor_->last_stats();
  EXPECT_EQ(last.rows_output, 4u);
  EXPECT_EQ(last.tables_scanned, 1u);
  // Pushdown restricted the scan to the cpu series.
  EXPECT_EQ(last.rows_scanned, 4u * kPoints);
  const OperatorStats* scan = FindOperator("Scan");
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->rows_output, 4u * kPoints);
  EXPECT_GT(scan->batches_output, 0u);
  const OperatorStats* agg = FindOperator("HashAggregate");
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->rows_output, 4u);
  EXPECT_NE(agg->detail.find("4 groups"), std::string::npos) << agg->detail;
}

TEST_F(PlannerTest, LastStatsDescribeOnlyTheLatestQuery) {
  MustQuery("SELECT value FROM tsdb WHERE metric_name = 'cpu'");
  EXPECT_EQ(executor_->last_stats().tables_scanned, 1u);
  EXPECT_EQ(executor_->last_stats().rows_output, 4u * kPoints);
  MustQuery("SELECT COUNT(*) AS n FROM tsdb WHERE metric_name = 'mem'");
  EXPECT_EQ(executor_->last_stats().tables_scanned, 1u);
  EXPECT_EQ(executor_->last_stats().rows_scanned, 4u * kPoints);
  EXPECT_EQ(executor_->last_stats().rows_output, 1u);
}

TEST_F(PlannerTest, StreamingLimitStopsScanEarly) {
  Schema s({{"v", DataType::kInt64}});
  Table big(s);
  for (int i = 0; i < 5000; ++i) big.AppendRow({Value::Int(i)});
  catalog_.RegisterTable("big_limit", std::move(big));
  Table t = MustQuery("SELECT v FROM big_limit LIMIT 5");
  EXPECT_EQ(t.num_rows(), 5u);
  // 5000 rows are ~5 batches; LIMIT 5 must stop pulling after the first.
  const OperatorStats* scan = FindOperator("Scan");
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->batches_output, 1u);
}

TEST_F(PlannerTest, MorselParallelScanMatchesSequential) {
  // Above the parallel threshold (64 series) the scan fans out across
  // the pool; results must be identical to the small sequential case in
  // per-series content and ordering.
  auto big_store = std::make_shared<tsdb::SeriesStore>();
  for (int i = 0; i < 200; ++i) {
    const tsdb::TagSet tags{{"host", "h" + std::to_string(i)}};
    for (int64_t p = 0; p < 10; ++p) {
      ASSERT_TRUE(big_store->Write("m", tags, p * 60, i * 1000.0 + p).ok());
    }
  }
  tsdb::ScanRequest req;
  req.range = TimeRange{0, 600};
  auto scan = big_store->Scan(req);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->size(), 200u);
  for (int i = 0; i < 200; ++i) {
    const auto& s = (*scan)[i];
    EXPECT_EQ(s.meta.tags.Get("host"), "h" + std::to_string(i));
    ASSERT_EQ(s.values.size(), 10u);
    EXPECT_EQ(s.values[3], i * 1000.0 + 3);
  }
}

TEST_F(PlannerTest, JoinPushdownNarrowsBothInputs) {
  // Two distinct stores behind two hinted providers: the WHERE conjuncts
  // qualified to each join input must narrow *that* store's scan window,
  // metric set and tag filter — not just single-table scans.
  auto left_store = std::make_shared<tsdb::SeriesStore>();
  auto right_store = std::make_shared<tsdb::SeriesStore>();
  for (int host = 0; host < 4; ++host) {
    const tsdb::TagSet tags{{"host", "h" + std::to_string(host)}};
    for (int64_t i = 0; i < kPoints; ++i) {
      ASSERT_TRUE(left_store->Write("cpu", tags, i * 60, host + 1.0).ok());
      ASSERT_TRUE(right_store->Write("mem", tags, i * 60, host + 2.0).ok());
    }
  }
  auto reg = [this](const char* name,
                    std::shared_ptr<tsdb::SeriesStore> store) {
    catalog_.RegisterHintedProvider(
        name,
        [store](const tsdb::ScanHints& hints) -> Result<table::Table> {
          tsdb::ScanRequest req;
          req.range = kFullRange;
          req.hints = hints;
          return store->ScanToTable(req);
        });
  };
  reg("tsdb_l", left_store);
  reg("tsdb_r", right_store);

  Table t = MustQuery(
      "SELECT l.timestamp, l.value, r.value FROM tsdb_l l "
      "JOIN tsdb_r r ON l.timestamp = r.timestamp "
      "AND l.tag['host'] = r.tag['host'] "
      "WHERE l.metric_name = 'cpu' AND l.tag['host'] = 'h1' "
      "AND l.timestamp >= 120 AND l.timestamp < 300 "
      "AND r.metric_name = 'mem' AND r.tag['host'] = 'h1' "
      "AND r.timestamp BETWEEN 120 AND 240");
  // Join window: l in [120, 300) ∩ r in [120, 241) -> minutes 2..4.
  EXPECT_EQ(t.num_rows(), 3u);

  // Both stores saw narrowed windows and a single matching series.
  const tsdb::ScanStats& ls = left_store->scan_stats();
  EXPECT_EQ(ls.last_range.start, 120);
  EXPECT_EQ(ls.last_range.end, 300);
  EXPECT_EQ(ls.last_metric_glob, "cpu");
  EXPECT_EQ(ls.series_matched, 1u);
  EXPECT_EQ(ls.points_returned, 3u);  // minutes 2,3,4 of one series

  const tsdb::ScanStats& rs = right_store->scan_stats();
  EXPECT_EQ(rs.last_range.start, 120);
  EXPECT_EQ(rs.last_range.end, 241);  // BETWEEN is inclusive
  EXPECT_EQ(rs.last_metric_glob, "mem");
  EXPECT_EQ(rs.series_matched, 1u);
  EXPECT_EQ(rs.points_returned, 3u);  // minutes 2,3,4
}

TEST_F(PlannerTest, JoinPushdownSkipsUnqualifiedAndForeignConjuncts) {
  // Unqualified conjuncts could bind to either side; conjuncts qualified
  // to the other input must not leak. Self-join over the fixture store:
  // only the r-qualified conjuncts may narrow the *second* scan (the
  // store records the most recent scan, which is the right input).
  Table t = MustQuery(
      "SELECT COUNT(*) AS n FROM tsdb l JOIN tsdb r "
      "ON l.timestamp = r.timestamp AND l.tag['host'] = r.tag['host'] "
      "WHERE l.metric_name = 'cpu' AND r.metric_name = 'mem' "
      "AND r.timestamp < 300");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.At(0, 0).AsInt(), 4 * 5);  // 4 hosts x minutes 0..4
  const tsdb::ScanStats& st = store_->scan_stats();
  EXPECT_EQ(st.last_metric_glob, "mem");
  EXPECT_EQ(st.last_range.start, kFullRange.start);
  EXPECT_EQ(st.last_range.end, 300);
  EXPECT_EQ(st.series_matched, 4u);  // the host conjunct joins, not filters
}

TEST_F(PlannerTest, ScanToTableHonoursProjectionHint) {
  // Columns the statement never references are not materialised by the
  // provider (the per-row tag maps dominate scan cost).
  Table t = MustQuery(
      "SELECT timestamp, value FROM tsdb WHERE metric_name = 'cpu'");
  EXPECT_EQ(t.num_rows(), 4u * kPoints);
  const OperatorStats* scan = FindOperator("Scan");
  ASSERT_NE(scan, nullptr);
  // The provider returned exactly the three referenced columns
  // (timestamp, metric_name, value) — no tag map.
  EXPECT_NE(scan->detail.find("cols=3/3"), std::string::npos)
      << scan->detail;

  // Referencing the tag column brings it back.
  Table t2 = MustQuery(
      "SELECT timestamp, value FROM tsdb "
      "WHERE metric_name = 'cpu' AND tag['host'] = 'h0'");
  EXPECT_EQ(t2.num_rows(), static_cast<size_t>(kPoints));
  scan = FindOperator("Scan");
  ASSERT_NE(scan, nullptr);
  EXPECT_NE(scan->detail.find("cols=4/4"), std::string::npos)
      << scan->detail;
}

// ---------------------------------------------------------------------
// Rollup resolution hints: a GROUP BY whose grid is minute/hour-aligned
// and whose aggregates recombine exactly (SUM/MIN/MAX over bare `value`)
// lets the scan serve pre-aggregated rollup tiers. ExecStats counts such
// hinted scans; the store's ScanStats prove which tier actually served.
// ---------------------------------------------------------------------

TEST_F(PlannerTest, DateTruncGroupByDerivesRollupHint) {
  ASSERT_TRUE(store_->Flush().ok());  // seal so the minute tier exists
  store_->ResetScanStats();
  Table t = MustQuery(
      "SELECT DATE_TRUNC('minute', timestamp) AS m, SUM(value) AS s "
      "FROM tsdb WHERE metric_name = 'cpu' "
      "GROUP BY DATE_TRUNC('minute', timestamp) ORDER BY m");
  EXPECT_EQ(executor_->last_stats().rollup_hinted_scans, 1u);
  ASSERT_EQ(t.num_rows(), static_cast<size_t>(kPoints));
  // Minute i holds one point per host: sum = (0+100+200+300) + 4i.
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(t.At(i, 0).AsInt(), static_cast<int64_t>(i) * 60);
    EXPECT_EQ(t.At(i, 1).AsDouble(), 600.0 + 4.0 * i);
  }
  // The sealed segments served from the minute tier: no raw decodes.
  const tsdb::ScanStats st = store_->scan_stats();
  EXPECT_GT(st.rollup_points_returned, 0u);
  EXPECT_EQ(st.segments_raw_fallback, 0u);
  EXPECT_EQ(st.points_decoded, 0u);
}

TEST_F(PlannerTest, ModuloGridDerivesRollupHint) {
  // The `ts - ts % k` grid idiom hints like DATE_TRUNC does.
  ASSERT_TRUE(store_->Flush().ok());
  Table t = MustQuery(
      "SELECT timestamp - timestamp % 3600 AS h, MAX(value) AS mx "
      "FROM tsdb WHERE metric_name = 'cpu' "
      "GROUP BY timestamp - timestamp % 3600 ORDER BY h");
  EXPECT_EQ(executor_->last_stats().rollup_hinted_scans, 1u);
  ASSERT_EQ(t.num_rows(), 2u);  // 100 minutes span two hours
  EXPECT_EQ(t.At(0, 1).AsDouble(), 359.0);  // host 3, minute 59
  EXPECT_EQ(t.At(1, 1).AsDouble(), 399.0);  // host 3, minute 99
}

TEST_F(PlannerTest, RollupHintedQueryMatchesMaterialisedBaseline) {
  // The rollup route is an optimisation, never an answer change: the
  // same aggregation over a plain materialised copy (which cannot take
  // hints) must produce identical rows.
  ASSERT_TRUE(store_->Flush().ok());
  tsdb::ScanRequest all;
  all.range = kFullRange;
  auto full = store_->ScanToTable(all);
  ASSERT_TRUE(full.ok());
  catalog_.RegisterTable("tsdb_mat", std::move(full).value());
  const std::string shape =
      "SELECT DATE_TRUNC('hour', timestamp) AS h, SUM(value) AS s FROM ";
  const std::string tail =
      " WHERE metric_name = 'mem' GROUP BY DATE_TRUNC('hour', timestamp) "
      "ORDER BY h";
  Table hinted = MustQuery(shape + "tsdb" + tail);
  EXPECT_EQ(executor_->last_stats().rollup_hinted_scans, 1u);
  Table plain = MustQuery(shape + "tsdb_mat" + tail);
  EXPECT_EQ(executor_->last_stats().rollup_hinted_scans, 0u);
  ASSERT_EQ(hinted.num_rows(), plain.num_rows());
  for (size_t r = 0; r < hinted.num_rows(); ++r) {
    EXPECT_EQ(hinted.At(r, 0).AsInt(), plain.At(r, 0).AsInt());
    EXPECT_EQ(hinted.At(r, 1).AsDouble(), plain.At(r, 1).AsDouble());
  }
  EXPECT_GT(hinted.num_rows(), 0u);
}

TEST_F(PlannerTest, AlignedTimeBoundsKeepRollupHint) {
  // [60, 180) is minute-aligned: whole buckets only, hint survives.
  Table t = MustQuery(
      "SELECT DATE_TRUNC('minute', timestamp) AS m, SUM(value) AS s "
      "FROM tsdb WHERE metric_name = 'cpu' "
      "AND timestamp >= 60 AND timestamp < 180 "
      "GROUP BY DATE_TRUNC('minute', timestamp)");
  EXPECT_EQ(executor_->last_stats().rollup_hinted_scans, 1u);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST_F(PlannerTest, UnalignedTimeBoundRejectsRollupHint) {
  // ts >= 90 cuts minute-bucket 1 mid-way: a tier row for it would count
  // points the filter excludes, so no hint may be derived.
  Table t = MustQuery(
      "SELECT DATE_TRUNC('minute', timestamp) AS m, SUM(value) AS s "
      "FROM tsdb WHERE metric_name = 'cpu' AND timestamp >= 90 "
      "GROUP BY DATE_TRUNC('minute', timestamp)");
  EXPECT_EQ(executor_->last_stats().rollup_hinted_scans, 0u);
  // Points sit on minute marks, so ts >= 90 keeps minutes 2..99.
  EXPECT_EQ(t.num_rows(), static_cast<size_t>(kPoints) - 2);
}

TEST_F(PlannerTest, NonDecomposableAggregatesRejectRollupHint) {
  // AVG over mixed raw/rollup granularities does not recombine exactly —
  // no hint; the query still answers correctly from raw points.
  Table avg = MustQuery(
      "SELECT DATE_TRUNC('minute', timestamp) AS m, AVG(value) AS a "
      "FROM tsdb WHERE metric_name = 'cpu' "
      "GROUP BY DATE_TRUNC('minute', timestamp) ORDER BY m");
  EXPECT_EQ(executor_->last_stats().rollup_hinted_scans, 0u);
  ASSERT_EQ(avg.num_rows(), static_cast<size_t>(kPoints));
  EXPECT_EQ(avg.At(0, 1).AsDouble(), 150.0);  // (0+100+200+300)/4

  // Mixed aggregate kinds cannot share one rollup stream either.
  MustQuery(
      "SELECT DATE_TRUNC('minute', timestamp) AS m, SUM(value) AS s, "
      "MIN(value) AS lo FROM tsdb WHERE metric_name = 'cpu' "
      "GROUP BY DATE_TRUNC('minute', timestamp)");
  EXPECT_EQ(executor_->last_stats().rollup_hinted_scans, 0u);
}

TEST_F(PlannerTest, RawColumnReferencesRejectRollupHint) {
  // A bare `value` outside the aggregate (the HAVING-style filter below)
  // needs raw rows; serving rollups would change the answer.
  Table t = MustQuery(
      "SELECT DATE_TRUNC('minute', timestamp) AS m, SUM(value) AS s "
      "FROM tsdb WHERE metric_name = 'cpu' AND value >= 100 "
      "GROUP BY DATE_TRUNC('minute', timestamp)");
  EXPECT_EQ(executor_->last_stats().rollup_hinted_scans, 0u);

  // So does projecting the raw timestamp next to the grid.
  MustQuery(
      "SELECT timestamp, SUM(value) AS s FROM tsdb "
      "WHERE metric_name = 'cpu' GROUP BY timestamp");
  EXPECT_EQ(executor_->last_stats().rollup_hinted_scans, 0u);
}

TEST_F(PlannerTest, SubMinuteGridRejectsRollupHint) {
  // A 30s grid is finer than the finest maintained tier: no hint.
  MustQuery(
      "SELECT timestamp - timestamp % 30 AS b, SUM(value) AS s "
      "FROM tsdb WHERE metric_name = 'cpu' "
      "GROUP BY timestamp - timestamp % 30");
  EXPECT_EQ(executor_->last_stats().rollup_hinted_scans, 0u);
}

}  // namespace
}  // namespace explainit::sql
