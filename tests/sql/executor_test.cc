#include "sql/executor.h"

#include <gtest/gtest.h>

#include "sql/parser.h"
#include "tsdb/store.h"

namespace explainit::sql {
namespace {

using table::DataType;
using table::Field;
using table::Schema;
using table::Table;
using table::Value;

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    functions_ = FunctionRegistry::Builtins();

    // A small metrics table mirroring the tsdb scan shape.
    Schema metric_schema({{"timestamp", DataType::kTimestamp},
                          {"metric_name", DataType::kString},
                          {"tag", DataType::kMap},
                          {"value", DataType::kDouble}});
    Table metrics(metric_schema);
    auto add = [&](int64_t ts, const std::string& name,
                   const std::string& pipeline, double v) {
      table::ValueMap m;
      m["pipeline_name"] = Value::String(pipeline);
      metrics.AppendRow({Value::Timestamp(ts), Value::String(name),
                         Value::Map(m), Value::Double(v)});
    };
    add(0, "pipeline_runtime", "p1", 10);
    add(0, "pipeline_runtime", "p2", 20);
    add(60, "pipeline_runtime", "p1", 12);
    add(60, "pipeline_runtime", "p2", 22);
    add(120, "pipeline_runtime", "p1", 14);
    add(0, "pipeline_input_rate", "p1", 100);
    add(60, "pipeline_input_rate", "p1", 110);
    catalog_.RegisterTable("tsdb", std::move(metrics));

    // Process table for the Listing 3 shape.
    Schema proc_schema({{"timestamp", DataType::kTimestamp},
                        {"hostname", DataType::kString},
                        {"service_name", DataType::kString},
                        {"stime", DataType::kDouble},
                        {"utime", DataType::kDouble}});
    Table procs(proc_schema);
    auto addp = [&](int64_t ts, const std::string& host,
                    const std::string& svc, double s, double u) {
      procs.AppendRow({Value::Timestamp(ts), Value::String(host),
                       Value::String(svc), Value::Double(s),
                       Value::Double(u)});
    };
    addp(0, "web-1", "nginx", 1, 2);
    addp(0, "web-2", "nginx", 2, 3);
    addp(0, "db-1", "postgres", 5, 5);
    addp(0, "gpu-1", "trainer", 9, 9);
    catalog_.RegisterTable("processes", std::move(procs));

    executor_ = std::make_unique<Executor>(&catalog_, &functions_);
  }

  Table MustQuery(const std::string& q) {
    auto res = executor_->Query(q);
    EXPECT_TRUE(res.ok()) << q << " -> " << res.status().ToString();
    return res.ok() ? std::move(res).value() : Table{};
  }

  Catalog catalog_;
  FunctionRegistry functions_;
  std::unique_ptr<Executor> executor_;
};

TEST_F(ExecutorTest, SelectConstantNoFrom) {
  Table t = MustQuery("SELECT 1 + 2 AS three");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.At(0, 0).AsDouble(), 3.0);
  EXPECT_EQ(t.schema().field(0).name, "three");
}

TEST_F(ExecutorTest, SelectStar) {
  Table t = MustQuery("SELECT * FROM processes");
  EXPECT_EQ(t.num_rows(), 4u);
  EXPECT_EQ(t.num_columns(), 5u);
}

TEST_F(ExecutorTest, WhereFilter) {
  Table t = MustQuery(
      "SELECT value FROM tsdb WHERE metric_name = 'pipeline_input_rate'");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.At(0, 0).AsDouble(), 100.0);
}

TEST_F(ExecutorTest, MapSubscriptProjection) {
  Table t = MustQuery(
      "SELECT tag['pipeline_name'] AS p FROM tsdb WHERE value = 14");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.At(0, 0).AsString(), "p1");
}

TEST_F(ExecutorTest, PaperListing1TargetQuery) {
  Table t = MustQuery(R"(
      SELECT timestamp, tag['pipeline_name'] AS pipeline_name,
             AVG(value) as runtime_sec
      FROM tsdb
      WHERE metric_name = 'pipeline_runtime'
        AND timestamp BETWEEN 0 AND 120
      GROUP BY timestamp, tag['pipeline_name']
      ORDER BY timestamp ASC)");
  ASSERT_EQ(t.num_rows(), 5u);
  EXPECT_EQ(t.schema().field(2).name, "runtime_sec");
  // First two rows are timestamp 0 (p1, p2 insertion order).
  EXPECT_EQ(t.At(0, 0).AsTimestamp(), 0);
  EXPECT_EQ(t.At(0, 2).AsDouble(), 10.0);
  EXPECT_EQ(t.At(4, 0).AsTimestamp(), 120);
}

TEST_F(ExecutorTest, GroupByWithSplitAndIn) {
  Table t = MustQuery(R"(
      SELECT SPLIT(hostname, '-')[0] AS grp, AVG(stime + utime) AS cpu
      FROM processes
      WHERE SPLIT(hostname, '-')[0] IN ('web', 'db')
      GROUP BY SPLIT(hostname, '-')[0]
      ORDER BY grp ASC)");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.At(0, 0).AsString(), "db");
  EXPECT_EQ(t.At(0, 1).AsDouble(), 10.0);
  EXPECT_EQ(t.At(1, 0).AsString(), "web");
  EXPECT_EQ(t.At(1, 1).AsDouble(), 4.0);  // (3 + 5) / 2
}

TEST_F(ExecutorTest, GlobalAggregatesWithoutGroupBy) {
  Table t = MustQuery(
      "SELECT COUNT(*) AS n, MIN(value) AS lo, MAX(value) AS hi, "
      "SUM(value) AS total FROM tsdb");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.At(0, 0).AsInt(), 7);
  EXPECT_EQ(t.At(0, 1).AsDouble(), 10.0);
  EXPECT_EQ(t.At(0, 2).AsDouble(), 110.0);
  EXPECT_EQ(t.At(0, 3).AsDouble(), 288.0);
}

TEST_F(ExecutorTest, AggregateArithmetic) {
  Table t = MustQuery(
      "SELECT MAX(value) - MIN(value) AS spread FROM tsdb "
      "WHERE metric_name = 'pipeline_runtime'");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.At(0, 0).AsDouble(), 12.0);  // 22 - 10
}

TEST_F(ExecutorTest, PercentileAggregate) {
  Table t = MustQuery(
      "SELECT PERCENTILE(value, 50) AS p50 FROM tsdb "
      "WHERE metric_name = 'pipeline_runtime'");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.At(0, 0).AsDouble(), 14.0);  // median of 10,12,14,20,22
}

TEST_F(ExecutorTest, StddevAggregate) {
  Table t = MustQuery(
      "SELECT STDDEV(stime) AS sd FROM processes WHERE hostname LIKE 'web%'");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_NEAR(t.At(0, 0).AsDouble(), 0.5, 1e-12);
}

TEST_F(ExecutorTest, HavingFiltersGroups) {
  Table t = MustQuery(R"(
      SELECT tag['pipeline_name'] AS p, COUNT(*) AS n
      FROM tsdb WHERE metric_name = 'pipeline_runtime'
      GROUP BY tag['pipeline_name']
      HAVING COUNT(*) > 2)");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.At(0, 0).AsString(), "p1");
}

TEST_F(ExecutorTest, OrderByDescAndLimit) {
  Table t = MustQuery(
      "SELECT value FROM tsdb ORDER BY value DESC LIMIT 2");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.At(0, 0).AsDouble(), 110.0);
  EXPECT_EQ(t.At(1, 0).AsDouble(), 100.0);
}

TEST_F(ExecutorTest, OrderByUnprojectedColumn) {
  // ORDER BY references a column not in the select list.
  Table t = MustQuery(
      "SELECT metric_name FROM tsdb ORDER BY value DESC LIMIT 1");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.At(0, 0).AsString(), "pipeline_input_rate");
}

TEST_F(ExecutorTest, InnerJoinOnTimestamp) {
  // Join runtimes with input rates per timestamp.
  catalog_.RegisterTable(
      "runtimes",
      MustQuery("SELECT timestamp, AVG(value) AS runtime FROM tsdb "
                "WHERE metric_name = 'pipeline_runtime' GROUP BY timestamp"));
  catalog_.RegisterTable(
      "rates",
      MustQuery("SELECT timestamp, AVG(value) AS rate FROM tsdb "
                "WHERE metric_name = 'pipeline_input_rate' GROUP BY "
                "timestamp"));
  Table t = MustQuery(R"(
      SELECT r.timestamp, r.runtime, i.rate
      FROM runtimes r JOIN rates i ON r.timestamp = i.timestamp
      ORDER BY r.timestamp ASC)");
  ASSERT_EQ(t.num_rows(), 2u);  // rates only exist at ts 0, 60
  EXPECT_EQ(t.At(0, 1).AsDouble(), 15.0);
  EXPECT_EQ(t.At(0, 2).AsDouble(), 100.0);
}

TEST_F(ExecutorTest, FullOuterJoinPadsBothSides) {
  Schema sa({{"k", DataType::kInt64}, {"a", DataType::kString}});
  Table ta(sa);
  ta.AppendRow({Value::Int(1), Value::String("a1")});
  ta.AppendRow({Value::Int(2), Value::String("a2")});
  catalog_.RegisterTable("ta", std::move(ta));
  Schema sb({{"k", DataType::kInt64}, {"b", DataType::kString}});
  Table tb(sb);
  tb.AppendRow({Value::Int(2), Value::String("b2")});
  tb.AppendRow({Value::Int(3), Value::String("b3")});
  catalog_.RegisterTable("tb", std::move(tb));
  Table t = MustQuery(R"(
      SELECT ta.k, a, b FROM ta FULL OUTER JOIN tb ON ta.k = tb.k
      ORDER BY ta.k ASC)");
  ASSERT_EQ(t.num_rows(), 3u);
  // Unmatched right row has null left key and sorts first.
  EXPECT_TRUE(t.At(0, 0).is_null());
  EXPECT_EQ(t.At(0, 2).AsString(), "b3");
  EXPECT_EQ(t.At(1, 1).AsString(), "a1");
  EXPECT_TRUE(t.At(1, 2).is_null());
  EXPECT_EQ(t.At(2, 1).AsString(), "a2");
  EXPECT_EQ(t.At(2, 2).AsString(), "b2");
}

TEST_F(ExecutorTest, LeftJoinKeepsUnmatchedLeft) {
  Schema sa({{"k", DataType::kInt64}});
  Table ta(sa);
  ta.AppendRow({Value::Int(1)});
  ta.AppendRow({Value::Int(2)});
  catalog_.RegisterTable("la", std::move(ta));
  Schema sb({{"k2", DataType::kInt64}});
  Table tb(sb);
  tb.AppendRow({Value::Int(2)});
  catalog_.RegisterTable("lb", std::move(tb));
  Table t = MustQuery(
      "SELECT k, k2 FROM la LEFT JOIN lb ON k = k2 ORDER BY k ASC");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_TRUE(t.At(0, 1).is_null());
  EXPECT_EQ(t.At(1, 1).AsInt(), 2);
}

TEST_F(ExecutorTest, CrossJoin) {
  Schema s({{"v", DataType::kInt64}});
  Table ta(s), tb(s);
  ta.AppendRow({Value::Int(1)});
  ta.AppendRow({Value::Int(2)});
  tb.AppendRow({Value::Int(10)});
  tb.AppendRow({Value::Int(20)});
  catalog_.RegisterTable("ca", std::move(ta));
  catalog_.RegisterTable("cb", std::move(tb));
  Table t = MustQuery("SELECT * FROM ca CROSS JOIN cb");
  EXPECT_EQ(t.num_rows(), 4u);
}

TEST_F(ExecutorTest, NonEquiJoinFallsBackToNestedLoop) {
  Schema s({{"v", DataType::kInt64}});
  Table ta(s), tb(s);
  ta.AppendRow({Value::Int(1)});
  ta.AppendRow({Value::Int(5)});
  tb.AppendRow({Value::Int(3)});
  catalog_.RegisterTable("na", std::move(ta));
  catalog_.RegisterTable("nb", std::move(tb));
  Table t = MustQuery(
      "SELECT na.v, nb.v FROM na JOIN nb ON na.v < nb.v");
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(executor_->last_stats().nested_loop_joins, 1u);
  EXPECT_EQ(executor_->last_stats().hash_joins, 0u);
}

TEST_F(ExecutorTest, EquiJoinUsesHashJoin) {
  MustQuery(
      "SELECT * FROM processes a JOIN processes b ON a.hostname = "
      "b.hostname");
  EXPECT_EQ(executor_->last_stats().hash_joins, 1u);
  EXPECT_EQ(executor_->last_stats().nested_loop_joins, 0u);
}

TEST_F(ExecutorTest, UnionAllStacksRows) {
  Table t = MustQuery(
      "SELECT value FROM tsdb WHERE value = 10 "
      "UNION ALL SELECT value FROM tsdb WHERE value = 20");
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST_F(ExecutorTest, SubqueryInFrom) {
  Table t = MustQuery(R"(
      SELECT grp, cpu FROM (
        SELECT SPLIT(hostname, '-')[0] AS grp, stime + utime AS cpu
        FROM processes
      ) sub
      WHERE cpu > 5 ORDER BY cpu DESC)");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.At(0, 0).AsString(), "gpu");
}

TEST_F(ExecutorTest, LagFunction) {
  Table t = MustQuery(
      "SELECT value - LAG(value) AS diff FROM tsdb "
      "WHERE metric_name = 'pipeline_input_rate'");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_TRUE(t.At(0, 0).is_null());  // no previous row
  EXPECT_EQ(t.At(1, 0).AsDouble(), 10.0);
}

TEST_F(ExecutorTest, CaseExpression) {
  Table t = MustQuery(R"(
      SELECT CASE WHEN value >= 100 THEN 'rate' ELSE 'runtime' END AS kind,
             COUNT(*) AS n
      FROM tsdb GROUP BY CASE WHEN value >= 100 THEN 'rate' ELSE 'runtime' END
      ORDER BY kind ASC)");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.At(0, 0).AsString(), "rate");
  EXPECT_EQ(t.At(0, 1).AsInt(), 2);
  EXPECT_EQ(t.At(1, 1).AsInt(), 5);
}

TEST_F(ExecutorTest, HostgroupUdf) {
  Table t = MustQuery(
      "SELECT HOSTGROUP(hostname) AS g FROM processes WHERE hostname = "
      "'web-1'");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.At(0, 0).AsString(), "web");
}

TEST_F(ExecutorTest, CustomUdfRegistration) {
  functions_.Register("DOUBLE_IT", [](const std::vector<Value>& args)
                                       -> Result<Value> {
    return Value::Double(args[0].AsDouble() * 2.0);
  });
  Table t = MustQuery("SELECT DOUBLE_IT(21) AS v");
  EXPECT_EQ(t.At(0, 0).AsDouble(), 42.0);
}

TEST_F(ExecutorTest, UnknownTableFails) {
  auto res = executor_->Query("SELECT * FROM missing");
  EXPECT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsNotFound());
}

TEST_F(ExecutorTest, UnknownColumnFails) {
  auto res = executor_->Query("SELECT nope FROM tsdb");
  EXPECT_FALSE(res.ok());
}

TEST_F(ExecutorTest, UnknownFunctionFails) {
  auto res = executor_->Query("SELECT WAT(1) FROM tsdb");
  EXPECT_FALSE(res.ok());
}

TEST_F(ExecutorTest, DivisionByZeroYieldsNull) {
  Table t = MustQuery("SELECT 1 / 0 AS v");
  EXPECT_TRUE(t.At(0, 0).is_null());
}

TEST_F(ExecutorTest, TsdbScanProviderIntegration) {
  // End-to-end: a tsdb SeriesStore exposed as a lazily scanned table.
  auto store = std::make_shared<tsdb::SeriesStore>();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(store
                    ->Write("disk", tsdb::TagSet{{"host", "dn-1"}}, i * 60,
                            static_cast<double>(i))
                    .ok());
  }
  catalog_.RegisterProvider("disk_scan",
                            [store]() -> Result<table::Table> {
                              tsdb::ScanRequest req;
                              req.metric_glob = "disk";
                              req.range = {0, 600};
                              return store->ScanToTable(req);
                            });
  Table t = MustQuery(
      "SELECT AVG(value) AS avg_v, tag['host'] AS host FROM disk_scan "
      "GROUP BY tag['host']");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.At(0, 0).AsDouble(), 2.0);
  EXPECT_EQ(t.At(0, 1).AsString(), "dn-1");
}

}  // namespace
}  // namespace explainit::sql
