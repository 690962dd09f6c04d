#include "core/engine.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"

namespace explainit::core {
namespace {

// Populates a store with a small causal world on a minute grid:
//   input_rate -> runtime (target) -> latency (effect); disk_noise is
//   independent.
std::shared_ptr<tsdb::SeriesStore> MakeStore(size_t t, uint64_t seed) {
  auto store = std::make_shared<tsdb::SeriesStore>();
  Rng rng(seed);
  std::vector<double> rate(t), runtime(t), latency(t), noise(t);
  for (size_t i = 0; i < t; ++i) {
    rate[i] = rng.Normal(1000.0, 150.0);
    runtime[i] = 0.01 * rate[i] + rng.Normal() * 0.4;
    latency[i] = 1.5 * runtime[i] + rng.Normal() * 0.4;
    noise[i] = rng.Normal(5.0, 1.0);
  }
  for (size_t i = 0; i < t; ++i) {
    const EpochSeconds ts = static_cast<int64_t>(i) * 60;
    EXPECT_TRUE(store
                    ->Write("pipeline_input_rate",
                            tsdb::TagSet{{"pipeline_name", "p1"}}, ts, rate[i])
                    .ok());
    EXPECT_TRUE(store
                    ->Write("pipeline_runtime",
                            tsdb::TagSet{{"pipeline_name", "p1"}}, ts,
                            runtime[i])
                    .ok());
    EXPECT_TRUE(store
                    ->Write("pipeline_latency",
                            tsdb::TagSet{{"pipeline_name", "p1"}}, ts,
                            latency[i])
                    .ok());
    EXPECT_TRUE(store
                    ->Write("disk_noise", tsdb::TagSet{{"host", "dn-1"}}, ts,
                            noise[i])
                    .ok());
  }
  return store;
}

const TimeRange kRange{0, 500 * 60};

TEST(EngineTest, FamilyFromMetric) {
  Engine engine(MakeStore(500, 1));
  auto fam = engine.FamilyFromMetric("pipeline_runtime", kRange, "Y");
  ASSERT_TRUE(fam.ok());
  EXPECT_EQ(fam->name, "Y");
  EXPECT_EQ(fam->num_features(), 1u);
  EXPECT_EQ(fam->num_timestamps(), 500u);
  EXPECT_FALSE(engine.FamilyFromMetric("nope", kRange, "Y").ok());
}

TEST(EngineTest, FamiliesFromStoreGrouping) {
  Engine engine(MakeStore(200, 2));
  GroupingOptions g;
  g.key = GroupingKey::kMetricName;
  auto fams = engine.FamiliesFromStore(kRange, g);
  ASSERT_TRUE(fams.ok());
  EXPECT_EQ(fams->size(), 4u);
}

TEST(EngineTest, SqlOverRegisteredStore) {
  Engine engine(MakeStore(100, 3));
  engine.RegisterStoreTable("tsdb", kRange);
  auto t = engine.Query(
      "SELECT COUNT(*) AS n FROM tsdb WHERE metric_name = 'disk_noise'");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->table.At(0, 0).AsInt(), 100);
}

TEST(EngineTest, FamiliesFromQueryListing1Shape) {
  Engine engine(MakeStore(120, 4));
  engine.RegisterStoreTable("tsdb", kRange);
  // Appendix C Listing 1: the target family query.
  auto fams = engine.FamiliesFromQuery(R"(
      SELECT timestamp, tag['pipeline_name'], AVG(value) AS runtime_sec
      FROM tsdb
      WHERE metric_name = 'pipeline_runtime'
      GROUP BY timestamp, tag['pipeline_name']
      ORDER BY timestamp ASC)");
  ASSERT_TRUE(fams.ok()) << fams.status().ToString();
  ASSERT_EQ(fams->size(), 1u);  // one pipeline
  EXPECT_EQ((*fams)[0].name, "p1");
  EXPECT_EQ((*fams)[0].num_features(), 1u);
  EXPECT_EQ((*fams)[0].feature_names[0], "runtime_sec");
  EXPECT_EQ((*fams)[0].num_timestamps(), 120u);
}

TEST(EngineTest, NormalizeHandlesMissingNameColumn) {
  table::Schema schema({{"timestamp", table::DataType::kTimestamp},
                        {"v1", table::DataType::kDouble}});
  table::Table t(schema);
  t.AppendRow({table::Value::Timestamp(0), table::Value::Double(1)});
  auto ff = NormalizeToFeatureFamilyTable(t, "deflt");
  ASSERT_TRUE(ff.ok());
  EXPECT_EQ(ff->At(0, 1).AsString(), "deflt");
  const table::ValueMap* v = ff->At(0, 2).AsMap();
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->at("v1").AsDouble(), 1.0);
}

TEST(EngineTest, NormalizeRejectsNoTimestamp) {
  table::Schema schema({{"a", table::DataType::kDouble}});
  table::Table t(schema);
  t.AppendRow({table::Value::Double(1)});
  EXPECT_FALSE(NormalizeToFeatureFamilyTable(t).ok());
}

TEST(EngineTest, RankExcludesTargetAndConditionNames) {
  Engine engine(MakeStore(300, 5));
  GroupingOptions g;
  auto fams = engine.FamiliesFromStore(kRange, g);
  ASSERT_TRUE(fams.ok());
  RankRequest req;
  for (const FeatureFamily& f : *fams) {
    if (f.name == "pipeline_runtime") req.target = f;
    req.candidates.push_back(f);
  }
  req.scorer_name = "L2";
  auto table = engine.Rank(req);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->RankOf("pipeline_runtime"), 0u);  // excluded (it is Y)
  EXPECT_GE(table->rows.size(), 3u);
}

TEST(EngineTest, EndToEndSessionWorkflow) {
  // Algorithm 1 end to end: target, search space, rank; the causal
  // families outrank noise.
  Engine engine(MakeStore(400, 6));
  Session session(&engine, kRange);
  ASSERT_TRUE(session.SetTargetByMetric("pipeline_runtime").ok());
  GroupingOptions g;
  g.key = GroupingKey::kMetricName;
  ASSERT_TRUE(session.SetSearchSpaceByGrouping(g).ok());
  ASSERT_TRUE(session.SetScorer("L2").ok());
  auto table = session.Run();
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_GE(table->rows.size(), 3u);
  // input_rate (cause) and latency (effect) outrank disk noise.
  EXPECT_GT(table->RankOf("pipeline_input_rate"), 0u);
  EXPECT_LE(table->RankOf("pipeline_input_rate"), 2u);
  EXPECT_LE(table->RankOf("pipeline_latency"), 2u);
  EXPECT_EQ(table->RankOf("disk_noise"), 3u);
  EXPECT_EQ(session.history().size(), 1u);
}

TEST(EngineTest, SessionConditioningChangesRanking) {
  // §5.2: conditioning on the input size demotes it and lifts residual
  // causes. Here conditioning on input_rate should drop its own rank and
  // the latency (pure effect of runtime) stays high.
  Engine engine(MakeStore(400, 7));
  Session session(&engine, kRange);
  ASSERT_TRUE(session.SetTargetByMetric("pipeline_runtime").ok());
  GroupingOptions g;
  ASSERT_TRUE(session.SetSearchSpaceByGrouping(g).ok());
  ASSERT_TRUE(session.SetScorer("L2").ok());
  auto before = session.Run();
  ASSERT_TRUE(before.ok());
  const size_t rate_rank_before = before->RankOf("pipeline_input_rate");
  ASSERT_TRUE(session.SetConditionByMetric("pipeline_input_rate").ok());
  auto after = session.Run();
  ASSERT_TRUE(after.ok());
  // After conditioning on Z = input rate, scoring is the conditional
  // procedure; the input-rate family is excluded by the overlap rule or
  // scores near zero.
  const size_t rate_rank_after = after->RankOf("pipeline_input_rate");
  if (rate_rank_after != 0) {
    const double score_after = after->rows[rate_rank_after - 1].score;
    const double score_before = before->rows[rate_rank_before - 1].score;
    EXPECT_LT(score_after, score_before * 0.5);
  }
  EXPECT_EQ(session.history().size(), 2u);
}

TEST(EngineTest, SessionDrillDown) {
  Engine engine(MakeStore(200, 8));
  Session session(&engine, kRange);
  ASSERT_TRUE(session.SetTargetByMetric("pipeline_runtime").ok());
  GroupingOptions g;
  ASSERT_TRUE(session.SetSearchSpaceByGrouping(g).ok());
  EXPECT_EQ(session.num_candidates(), 4u);
  ASSERT_TRUE(session.DrillDown({"pipeline_*"}).ok());
  EXPECT_EQ(session.num_candidates(), 3u);
  EXPECT_FALSE(session.DrillDown({"zzz*"}).ok());
}

TEST(EngineTest, SessionValidation) {
  Engine engine(MakeStore(100, 9));
  Session session(&engine, kRange);
  EXPECT_FALSE(session.Run().ok());  // no target
  ASSERT_TRUE(session.SetTargetByMetric("pipeline_runtime").ok());
  EXPECT_FALSE(session.Run().ok());  // no search space
  EXPECT_FALSE(session.SetScorer("bogus").ok());
  EXPECT_FALSE(session.SetExplainRange(TimeRange{kRange.end + 100,
                                                 kRange.end + 200})
                   .ok());
  EXPECT_FALSE(session.ConditionOnPseudocause().ok() &&
               false);  // target set: pseudocause ok
}

TEST(EngineTest, QueryResultCarriesPerStatementStats) {
  // Each QueryResult records its own statement only, although the engine
  // runs every Query() on one persistent executor.
  Engine engine(MakeStore(50, 11));
  engine.RegisterStoreTable("tsdb", kRange);
  auto all = engine.Query("SELECT COUNT(*) AS n FROM tsdb");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  auto noise = engine.Query(
      "SELECT AVG(value) AS v FROM tsdb WHERE metric_name = 'disk_noise'");
  ASSERT_TRUE(noise.ok()) << noise.status().ToString();
  EXPECT_EQ(all->stats.tables_scanned, 1u);
  EXPECT_EQ(all->stats.rows_scanned, 200u);
  EXPECT_EQ(noise->stats.tables_scanned, 1u);
  // The second scan was narrowed by metric pushdown: 50 rows, not 200.
  EXPECT_EQ(noise->stats.rows_scanned, 50u);
  EXPECT_FALSE(noise->stats.operators.empty());
  EXPECT_EQ(engine.executor().last_stats().rows_scanned, 50u);
}

TEST(EngineTest, StoreTablePushdownNarrowsScan) {
  // A WHERE over the registered store table narrows the ScanRequest the
  // store actually serves (time window and metric constraint).
  Engine engine(MakeStore(100, 12));
  engine.RegisterStoreTable("tsdb", kRange);
  auto t = engine.Query(
      "SELECT COUNT(*) AS n FROM tsdb WHERE metric_name = 'disk_noise' "
      "AND timestamp BETWEEN 600 AND 1200");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->table.At(0, 0).AsInt(), 11);  // minutes 10..20 inclusive
  const tsdb::ScanStats& st = engine.store().scan_stats();
  EXPECT_EQ(st.last_range.start, 600);
  EXPECT_EQ(st.last_range.end, 1201);
  EXPECT_EQ(st.series_matched, 1u);
  EXPECT_EQ(st.points_returned, 11u);
}

TEST(EngineTest, QueryReportsStatementKindAndStats) {
  Engine engine(MakeStore(50, 21));
  engine.RegisterStoreTable("tsdb", kRange);
  auto select = engine.Query("SELECT COUNT(*) AS n FROM tsdb");
  ASSERT_TRUE(select.ok()) << select.status().ToString();
  EXPECT_EQ(select->kind, sql::StatementKind::kSelect);
  EXPECT_FALSE(select->score_table.has_value());
  EXPECT_EQ(select->table.At(0, 0).AsInt(), 200);
  EXPECT_FALSE(select->stats.operators.empty());
}

TEST(EngineTest, ExplainStatementProducesScoreTable) {
  Engine engine(MakeStore(200, 22));
  engine.RegisterStoreTable("tsdb", kRange);
  auto result = engine.Query(
      "EXPLAIN (SELECT timestamp, AVG(value) AS y FROM tsdb "
      "         WHERE metric_name = 'pipeline_runtime' GROUP BY timestamp) "
      "USING (SELECT timestamp, metric_name, AVG(value) AS v FROM tsdb "
      "       WHERE metric_name != 'pipeline_runtime' "
      "       GROUP BY timestamp, metric_name) "
      "SCORE BY 'CorrMax' TOP 2");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->kind, sql::StatementKind::kExplain);
  ASSERT_TRUE(result->score_table.has_value());
  // TOP 2 of the three candidate metrics; the causal pair outranks noise.
  ASSERT_EQ(result->table.num_rows(), 2u);
  EXPECT_EQ(result->score_table->rows.size(), 2u);
  EXPECT_EQ(result->score_table->RankOf("disk_noise"), 0u);
  // The relational Score Table: rank, family, score, ...
  EXPECT_EQ(result->table.schema().field(0).name, "rank");
  EXPECT_EQ(result->table.schema().field(1).name, "family");
  EXPECT_EQ(result->table.At(0, 0).AsInt(), 1);
  // The Rank operator roots the plan and reports the fan-out detail.
  ASSERT_FALSE(result->stats.operators.empty());
  EXPECT_EQ(result->stats.operators[0].name, "Rank");
}

TEST(EngineTest, ExplainScoreTableCarriesRankStageBreakdown) {
  // The rank stage's linear-algebra timings and scoring-cache counters
  // live on the statement's Score Table.
  Engine engine(MakeStore(200, 25));
  engine.RegisterStoreTable("tsdb", kRange);
  auto result = engine.Query(
      "EXPLAIN (SELECT timestamp, AVG(value) AS y FROM tsdb "
      "         WHERE metric_name = 'pipeline_runtime' GROUP BY timestamp) "
      "USING (SELECT timestamp, metric_name, AVG(value) AS v FROM tsdb "
      "       WHERE metric_name != 'pipeline_runtime' "
      "       GROUP BY timestamp, metric_name) "
      "SCORE BY 'L2'");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->score_table.has_value());
  // No TOP: every one of the three candidates is ranked.
  EXPECT_EQ(result->score_table->rows.size(), 3u);
  const RankStageStats& stage = result->score_table->stage;
  EXPECT_GT(stage.gram_ns, 0);
  EXPECT_GT(stage.total_misses(), 0u);
  EXPECT_GT(stage.total_hits(), 0u);
}

TEST(EngineTest, ExplainScoreTableComposesWithSql) {
  // The EXPLAIN result is an ordinary table: register it and re-query.
  Engine engine(MakeStore(150, 23));
  engine.RegisterStoreTable("tsdb", kRange);
  auto result = engine.Query(
      "EXPLAIN (SELECT timestamp, AVG(value) AS y FROM tsdb "
      "         WHERE metric_name = 'pipeline_runtime' GROUP BY timestamp) "
      "USING (SELECT timestamp, metric_name, AVG(value) AS v FROM tsdb "
      "       WHERE metric_name != 'pipeline_runtime' "
      "       GROUP BY timestamp, metric_name) "
      "SCORE BY 'CorrMax'");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  engine.catalog().RegisterTable("scores", result->table);
  auto strong = engine.Query(
      "SELECT family, score FROM scores WHERE score > 0.5 AND rank <= 2 "
      "ORDER BY score DESC");
  ASSERT_TRUE(strong.ok()) << strong.status().ToString();
  EXPECT_LE(strong->table.num_rows(), 2u);
}

TEST(EngineTest, ExplainErrorsAreActionable) {
  Engine engine(MakeStore(60, 24));
  engine.RegisterStoreTable("tsdb", kRange);
  // Unknown scorer fails before any sub-select executes.
  auto bad_scorer = engine.Query(
      "EXPLAIN (SELECT timestamp, AVG(value) AS y FROM tsdb "
      "GROUP BY timestamp) USING (SELECT timestamp, metric_name, "
      "AVG(value) AS v FROM tsdb GROUP BY timestamp, metric_name) "
      "SCORE BY 'bogus'");
  EXPECT_FALSE(bad_scorer.ok());
  // A target query with no timestamp column cannot form families.
  auto bad_target = engine.Query(
      "EXPLAIN (SELECT COUNT(*) AS n FROM tsdb) "
      "USING (SELECT timestamp, metric_name, AVG(value) AS v FROM tsdb "
      "GROUP BY timestamp, metric_name)");
  EXPECT_FALSE(bad_target.ok());
}

TEST(EngineTest, SessionExplainRangeReported) {
  Engine engine(MakeStore(300, 10));
  Session session(&engine, kRange);
  ASSERT_TRUE(session.SetTargetByMetric("pipeline_runtime").ok());
  ASSERT_TRUE(session.SetExplainRange(TimeRange{100 * 60, 200 * 60}).ok());
  GroupingOptions g;
  ASSERT_TRUE(session.SetSearchSpaceByGrouping(g).ok());
  ASSERT_TRUE(session.SetScorer("L2").ok());
  auto table = session.Run();
  ASSERT_TRUE(table.ok());
  const size_t r = table->RankOf("pipeline_input_rate");
  ASSERT_GT(r, 0u);
  EXPECT_GT(table->rows[r - 1].explain_window_score, 0.3);
}

}  // namespace
}  // namespace explainit::core
