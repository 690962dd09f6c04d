// The ExplainIt! engine: ties the tsdb, the SQL layer, family grouping and
// the parallel ranking engine together behind the three-step workflow of
// §1/§3 — (1) pick a target and time range, (2) declare a search space,
// (3) rank candidate causes — and the interactive loop of Algorithm 1.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/feature_family.h"
#include "core/pseudocause.h"
#include "core/ranking.h"
#include "core/scorer.h"
#include "sql/catalog.h"
#include "sql/executor.h"
#include "sql/functions.h"
#include "tsdb/store.h"

namespace explainit::core {

/// Engine-wide options.
struct EngineOptions {
  size_t num_threads = 0;   // ranking fan-out; 0 = hardware concurrency
  /// Degree of parallelism of the SQL pipeline (morsel-parallel
  /// Filter/Project/HashAggregate). 1 = serial streaming operators;
  /// 0 = hardware concurrency.
  size_t sql_parallelism = 0;
  int64_t grid_step_seconds = kSecondsPerMinute;
  /// Shared worker pool the engine's executor (and ranking fan-out)
  /// borrows; null = exec::WorkerPool::Global(). Injection point for
  /// tests — production engines all share the process-wide pool.
  exec::WorkerPool* worker_pool = nullptr;
  /// Cost-based SQL optimiser knobs (join reordering, aggregate pushdown,
  /// COUNT rollup routing). All on by default; `enabled = false`
  /// reproduces statement-order plans exactly.
  sql::PlannerOptions sql_optimizer;
};

/// One ranking request (Algorithm 1, one iteration).
struct RankRequest {
  FeatureFamily target;                      // Y
  std::optional<FeatureFamily> condition;    // Z (empty = marginal)
  std::vector<FeatureFamily> candidates;     // search space
  std::string scorer_name = "L2-P50";
  RankingOptions ranking;
};

/// Result of one statement through the unified Engine::Query facade.
struct QueryResult {
  /// SELECT rows, or the EXPLAIN Score Table
  /// (rank, family, score, num_features, best_lambda, score_seconds, viz).
  table::Table table;
  /// The statement's own execution breakdown (per-operator rows/ns; for
  /// EXPLAIN the root operator is "Rank").
  sql::ExecStats stats;
  sql::StatementKind kind = sql::StatementKind::kSelect;
  /// Populated for EXPLAIN statements: the typed Score Table behind
  /// `table` (sparkline viz, RankOf, the rank-stage wall time and its
  /// gram/factor/solve/predict and scoring-cache counters in `stage`).
  std::optional<ScoreTable> score_table;
};

/// Merges families into one (features renamed "family/feature").
FeatureFamily MergeFamilies(const std::vector<FeatureFamily>& families,
                            const std::string& name);

/// Reindexes every family onto the union of their time grids, filling
/// holes with nearest-observation interpolation. Makes families from
/// different sources (SQL results, store scans) rankable together.
Status AlignFamilies(std::vector<FeatureFamily>* families);

/// A hinted catalog provider over the store plus its catalog options;
/// see Engine::StoreTableOver.
struct StoreTable {
  sql::HintedTableProvider scan;
  sql::HintedProviderOptions options;
};

/// The engine facade. Holds one persistent sql::Executor for its
/// lifetime; each statement's statistics come back in QueryResult::stats.
/// Not copyable/movable: the executor points into the engine's own
/// catalog and function registry.
class Engine {
 public:
  explicit Engine(std::shared_ptr<tsdb::SeriesStore> store,
                  EngineOptions options = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  tsdb::SeriesStore& store() { return *store_; }
  sql::Catalog& catalog() { return catalog_; }
  sql::FunctionRegistry& functions() { return functions_; }
  const EngineOptions& options() const { return options_; }

  /// Store lifecycle hooks. FlushStore seals every mutable head and
  /// drains background maintenance (quiescing the tiered store so
  /// subsequent scans hit sealed segments and their rollup tiers);
  /// CompactStore additionally merges each series' segments into one.
  Status FlushStore() { return store_->Flush(); }
  Status CompactStore() { return store_->Compact(); }

  /// Registers StoreTableOver(range) as `table_name` in the engine
  /// catalog — the paper's `tsdb` table.
  void RegisterStoreTable(const std::string& table_name,
                          const TimeRange& range);

  /// The store as a SQL table (schema: timestamp, metric_name, tag,
  /// value) restricted to `range`. The provider forwards the planner's
  /// pushdown hints verbatim to the store scan, so WHERE clauses on
  /// timestamp / metric_name / tag narrow the actual scan. A standing
  /// monitor binds one per run over the run's window, so a slide issues
  /// exactly the scans of the equivalent bounded one-shot EXPLAIN.
  StoreTable StoreTableOver(const TimeRange& range) const;

  /// Runs one statement against the catalog: a SELECT through the
  /// vectorised pipeline, or an EXPLAIN statement planned into a
  /// Rank-rooted operator tree (core/explain.h) — one statement API from
  /// the parser down to the ranking engine.
  Result<QueryResult> Query(std::string_view statement);

  /// As Query(), but runs through a caller-supplied executor instead of
  /// the engine's own. The server gives each session a private executor
  /// (stats and cancellation are per-session state) while every session
  /// shares this engine's catalog, functions, store and worker pool; the
  /// executor must have been constructed over this engine's catalog()
  /// and functions(). Safe to call from concurrent sessions.
  Result<QueryResult> QueryWith(sql::Executor& executor,
                                std::string_view statement);

  /// As QueryWith, on an already-parsed statement (the monitor service
  /// parses once to dispatch and forwards the non-monitor statements
  /// here). Monitor statements (EVERY/TRIGGERED/INTO, DROP MONITOR,
  /// SHOW MONITORS) are InvalidArgument: they need a MonitorService.
  Result<QueryResult> ExecuteStatement(sql::Executor& executor,
                                       const sql::Statement& stmt);

  /// Builds families by scanning the store over `range` and grouping.
  Result<std::vector<FeatureFamily>> FamiliesFromStore(
      const TimeRange& range, const GroupingOptions& grouping,
      const tsdb::ScanRequest& base_filter = {});

  /// Runs a SQL query, normalises the result to the FF schema, and builds
  /// families from it (stage 1+2 of the Figure 4 pipeline).
  Result<std::vector<FeatureFamily>> FamiliesFromQuery(
      std::string_view query, const std::string& default_family = "family");

  /// Builds a single (possibly multi-feature) family from all series
  /// matching a metric glob, merged under `family_name`.
  Result<FeatureFamily> FamilyFromMetric(const std::string& metric_glob,
                                         const TimeRange& range,
                                         const std::string& family_name);

  /// Scores and ranks (Algorithm 1's loop body). Candidates sharing the
  /// target's or condition's name are excluded, honouring §3.3's "no
  /// overlap between X, Y and Z".
  Result<ScoreTable> Rank(const RankRequest& request);

  /// The SQL executor behind Query() (parallelism knob, stats).
  sql::Executor& executor() { return executor_; }

 private:
  std::shared_ptr<tsdb::SeriesStore> store_;
  EngineOptions options_;
  sql::Catalog catalog_;
  sql::FunctionRegistry functions_;
  sql::Executor executor_;  // must follow catalog_ / functions_
};

/// Reindexes the request's families onto a common grid (AlignFamilies)
/// and ranks through Engine::Rank — the shared tail of Session::Run and
/// the EXPLAIN Rank operator, so programmatic and declarative RCA produce
/// identical Score Tables.
Result<ScoreTable> AlignAndRank(Engine* engine, RankRequest request);

/// The interactive loop (Algorithm 1): a Session accumulates the target,
/// conditioning set, search space and scorer across iterations; each Run()
/// produces a Score Table, and the user narrows the search (drill-down)
/// until satisfied.
class Session {
 public:
  Session(Engine* engine, TimeRange total_range);

  /// Step 1: target selection.
  Status SetTargetByMetric(const std::string& metric_glob);
  Status SetTargetByQuery(std::string_view sql);
  void SetTarget(FeatureFamily target);

  /// Figure 2: optional range-to-explain inside the total range.
  Status SetExplainRange(const TimeRange& range);

  /// Conditioning (Z): explicit metrics, a SQL query, or a pseudocause
  /// derived from the target (§3.4).
  Status SetConditionByMetric(const std::string& metric_glob);
  Status SetConditionByQuery(std::string_view sql);
  Status ConditionOnPseudocause(const PseudocauseOptions& options = {});
  void SetCondition(FeatureFamily condition) {
    condition_ = std::move(condition);
  }
  void ClearCondition();

  /// Step 2: search space.
  Status SetSearchSpaceByGrouping(const GroupingOptions& grouping);
  Status SetSearchSpaceByQuery(std::string_view sql);
  /// Restricts the current search space to families matching any glob —
  /// the "fork off further analyses and drill down" loop.
  Status DrillDown(const std::vector<std::string>& family_globs);

  Status SetScorer(const std::string& name);

  /// Step 3: rank. Appends to history().
  Result<ScoreTable> Run();

  const std::vector<ScoreTable>& history() const { return history_; }
  const TimeRange& total_range() const { return total_range_; }
  size_t num_candidates() const { return candidates_.size(); }

 private:
  Engine* engine_;
  TimeRange total_range_;
  std::optional<TimeRange> explain_range_;
  std::optional<FeatureFamily> target_;
  std::optional<FeatureFamily> condition_;
  std::vector<FeatureFamily> candidates_;
  std::string scorer_name_ = "L2-P50";
  std::vector<ScoreTable> history_;
};

}  // namespace explainit::core
