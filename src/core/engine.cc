#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "common/strings.h"
#include "core/explain.h"
#include "sql/parser.h"

namespace explainit::core {

FeatureFamily MergeFamilies(const std::vector<FeatureFamily>& families,
                            const std::string& name) {
  FeatureFamily out;
  out.name = name;
  if (families.empty()) return out;
  out.timestamps = families[0].timestamps;
  size_t total_features = 0;
  for (const FeatureFamily& f : families) total_features += f.num_features();
  out.data = la::Matrix(out.timestamps.size(), total_features);
  size_t col = 0;
  for (const FeatureFamily& f : families) {
    for (size_t c = 0; c < f.num_features(); ++c, ++col) {
      out.feature_names.push_back(f.name + "/" + f.feature_names[c]);
      for (size_t r = 0; r < out.timestamps.size() && r < f.num_timestamps();
           ++r) {
        out.data(r, col) = f.data(r, c);
      }
    }
  }
  return out;
}

Status AlignFamilies(std::vector<FeatureFamily>* families) {
  if (families == nullptr || families->empty()) return Status::OK();
  // Union grid.
  std::set<EpochSeconds> grid_set;
  for (const FeatureFamily& f : *families) {
    grid_set.insert(f.timestamps.begin(), f.timestamps.end());
  }
  const std::vector<EpochSeconds> grid(grid_set.begin(), grid_set.end());
  for (FeatureFamily& f : *families) {
    if (f.timestamps == grid) continue;
    la::Matrix data(grid.size(), f.num_features());
    // Map existing rows onto the new grid, NaN elsewhere, then interpolate
    // per column.
    std::map<EpochSeconds, size_t> row_of;
    for (size_t r = 0; r < f.timestamps.size(); ++r) {
      row_of[f.timestamps[r]] = r;
    }
    for (size_t c = 0; c < f.num_features(); ++c) {
      std::vector<double> col(grid.size(),
                              std::numeric_limits<double>::quiet_NaN());
      for (size_t r = 0; r < grid.size(); ++r) {
        auto it = row_of.find(grid[r]);
        if (it != row_of.end()) col[r] = f.data(it->second, c);
      }
      tsdb::InterpolateMissing(col);
      data.SetCol(c, col);
    }
    f.timestamps = grid;
    f.data = std::move(data);
  }
  return Status::OK();
}

Engine::Engine(std::shared_ptr<tsdb::SeriesStore> store, EngineOptions options)
    : store_(std::move(store)),
      options_(options),
      functions_(sql::FunctionRegistry::Builtins()),
      executor_(&catalog_, &functions_, options.sql_parallelism,
                options.worker_pool) {
  executor_.set_optimizer(options.sql_optimizer);
}

void Engine::RegisterStoreTable(const std::string& table_name,
                                const TimeRange& range) {
  StoreTable table = StoreTableOver(range);
  catalog_.RegisterHintedProvider(table_name, std::move(table.scan),
                                  std::move(table.options));
}

StoreTable Engine::StoreTableOver(const TimeRange& range) const {
  std::shared_ptr<tsdb::SeriesStore> store = store_;
  StoreTable table;
  // Live cardinality for the cost-based planner. The whole-store count
  // over-estimates range-restricted tables, but relative magnitudes (the
  // fact table dwarfs dimension tables) are what join ordering needs.
  table.options.estimated_rows = [store] { return store->num_points(); };
  // Hints forward verbatim to SeriesStore::Scan, so count-rollup routing
  // (RollupAggregate::kCount + the COUNT -> __SUM_COUNT rewrite) is exact.
  table.options.exact_rollups = true;
  table.scan = [store, range](const tsdb::ScanHints& hints)
      -> Result<table::Table> {
    tsdb::ScanRequest req;
    req.range = range;
    req.hints = hints;
    return store->ScanToTable(req);
  };
  return table;
}

Result<QueryResult> Engine::Query(std::string_view statement) {
  return QueryWith(executor_, statement);
}

Result<QueryResult> Engine::QueryWith(sql::Executor& executor,
                                      std::string_view statement) {
  EXPLAINIT_ASSIGN_OR_RETURN(auto stmt, sql::ParseStatement(statement));
  return ExecuteStatement(executor, *stmt);
}

Result<QueryResult> Engine::ExecuteStatement(sql::Executor& executor,
                                             const sql::Statement& stmt) {
  QueryResult out;
  out.kind = stmt.kind();
  switch (out.kind) {
    case sql::StatementKind::kSelect: {
      EXPLAINIT_ASSIGN_OR_RETURN(
          out.table,
          executor.Execute(static_cast<const sql::SelectStatement&>(stmt)));
      break;
    }
    case sql::StatementKind::kExplain: {
      const auto& explain = static_cast<const sql::ExplainStatement&>(stmt);
      if (explain.is_monitor()) {
        return Status::InvalidArgument(
            "standing EXPLAIN (EVERY/TRIGGERED/INTO) requires a "
            "monitor::MonitorService — route the statement through it "
            "(the server does this when one is attached)");
      }
      EXPLAINIT_ASSIGN_OR_RETURN(auto root,
                                 PlanExplain(explain, this, &executor));
      EXPLAINIT_ASSIGN_OR_RETURN(out.table, executor.ExecuteTree(root.get()));
      out.score_table = root->score_table();
      break;
    }
    case sql::StatementKind::kDropMonitor:
    case sql::StatementKind::kShowMonitors:
      return Status::InvalidArgument(
          "monitor statements require a monitor::MonitorService — route "
          "the statement through it (the server does this when one is "
          "attached)");
  }
  out.stats = executor.last_stats();
  return out;
}

Result<std::vector<FeatureFamily>> Engine::FamiliesFromStore(
    const TimeRange& range, const GroupingOptions& grouping,
    const tsdb::ScanRequest& base_filter) {
  tsdb::ScanRequest req = base_filter;
  req.range = range;
  tsdb::GridOptions grid;
  grid.step_seconds = options_.grid_step_seconds;
  EXPLAINIT_ASSIGN_OR_RETURN(auto series, store_->ScanAligned(req, grid));
  return BuildFamilies(series, grouping);
}

Result<std::vector<FeatureFamily>> Engine::FamiliesFromQuery(
    std::string_view query, const std::string& default_family) {
  EXPLAINIT_ASSIGN_OR_RETURN(QueryResult result, Query(query));
  return FamiliesFromQueryResult(result.table, default_family);
}

Result<FeatureFamily> Engine::FamilyFromMetric(const std::string& metric_glob,
                                               const TimeRange& range,
                                               const std::string& family_name) {
  tsdb::ScanRequest req;
  req.metric_glob = metric_glob;
  req.range = range;
  tsdb::GridOptions grid;
  grid.step_seconds = options_.grid_step_seconds;
  EXPLAINIT_ASSIGN_OR_RETURN(auto series, store_->ScanAligned(req, grid));
  if (series.empty()) {
    return Status::NotFound("no series match metric glob: " + metric_glob);
  }
  GroupingOptions g;
  g.key = GroupingKey::kMetricName;
  EXPLAINIT_ASSIGN_OR_RETURN(auto families, BuildFamilies(series, g));
  return MergeFamilies(families, family_name);
}

Result<ScoreTable> Engine::Rank(const RankRequest& request) {
  EXPLAINIT_ASSIGN_OR_RETURN(std::unique_ptr<Scorer> scorer,
                             MakeScorer(request.scorer_name));
  // §3.3: X must not overlap Y or Z — drop candidates sharing their names.
  std::vector<FeatureFamily> candidates;
  candidates.reserve(request.candidates.size());
  for (const FeatureFamily& f : request.candidates) {
    if (f.name == request.target.name) continue;
    if (request.condition.has_value() && f.name == request.condition->name) {
      continue;
    }
    candidates.push_back(f);
  }
  RankingOptions opts = request.ranking;
  if (opts.num_threads == 0) opts.num_threads = options_.num_threads;
  return RankFamilies(
      *scorer, request.target,
      request.condition.has_value() ? &*request.condition : nullptr,
      candidates, opts);
}

Result<ScoreTable> AlignAndRank(Engine* engine, RankRequest req) {
  // Align everything onto a common grid before ranking.
  std::vector<FeatureFamily> all;
  all.push_back(std::move(req.target));
  if (req.condition.has_value()) all.push_back(std::move(*req.condition));
  for (FeatureFamily& f : req.candidates) all.push_back(std::move(f));
  EXPLAINIT_RETURN_IF_ERROR(AlignFamilies(&all));
  size_t idx = 0;
  req.target = std::move(all[idx++]);
  if (req.condition.has_value()) req.condition = std::move(all[idx++]);
  for (size_t i = 0; idx < all.size(); ++i, ++idx) {
    req.candidates[i] = std::move(all[idx]);
  }
  return engine->Rank(req);
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

Session::Session(Engine* engine, TimeRange total_range)
    : engine_(engine), total_range_(total_range) {}

Status Session::SetTargetByMetric(const std::string& metric_glob) {
  EXPLAINIT_ASSIGN_OR_RETURN(
      FeatureFamily fam,
      engine_->FamilyFromMetric(metric_glob, total_range_, metric_glob));
  target_ = std::move(fam);
  return Status::OK();
}

Status Session::SetTargetByQuery(std::string_view sql) {
  EXPLAINIT_ASSIGN_OR_RETURN(auto families,
                             engine_->FamiliesFromQuery(sql, "target"));
  if (families.empty()) {
    return Status::InvalidArgument("target query produced no families");
  }
  target_ = MergeFamilies(families, "target");
  return Status::OK();
}

void Session::SetTarget(FeatureFamily target) { target_ = std::move(target); }

Status Session::SetExplainRange(const TimeRange& range) {
  if (!range.Overlaps(total_range_)) {
    return Status::InvalidArgument(
        "explain range must overlap the total range");
  }
  explain_range_ = range;
  return Status::OK();
}

Status Session::SetConditionByMetric(const std::string& metric_glob) {
  EXPLAINIT_ASSIGN_OR_RETURN(
      FeatureFamily fam,
      engine_->FamilyFromMetric(metric_glob, total_range_,
                                "Z:" + metric_glob));
  condition_ = std::move(fam);
  return Status::OK();
}

Status Session::SetConditionByQuery(std::string_view sql) {
  EXPLAINIT_ASSIGN_OR_RETURN(auto families,
                             engine_->FamiliesFromQuery(sql, "condition"));
  if (families.empty()) {
    return Status::InvalidArgument("condition query produced no families");
  }
  condition_ = MergeFamilies(families, "Z:query");
  return Status::OK();
}

Status Session::ConditionOnPseudocause(const PseudocauseOptions& options) {
  if (!target_.has_value()) {
    return Status::FailedPrecondition("set a target before conditioning");
  }
  EXPLAINIT_ASSIGN_OR_RETURN(Pseudocause pc,
                             BuildPseudocause(*target_, options));
  condition_ = std::move(pc.systematic);
  return Status::OK();
}

void Session::ClearCondition() { condition_.reset(); }

Status Session::SetSearchSpaceByGrouping(const GroupingOptions& grouping) {
  EXPLAINIT_ASSIGN_OR_RETURN(
      candidates_, engine_->FamiliesFromStore(total_range_, grouping));
  return Status::OK();
}

Status Session::SetSearchSpaceByQuery(std::string_view sql) {
  EXPLAINIT_ASSIGN_OR_RETURN(candidates_,
                             engine_->FamiliesFromQuery(sql, "family"));
  return Status::OK();
}

Status Session::DrillDown(const std::vector<std::string>& family_globs) {
  std::vector<FeatureFamily> kept;
  for (FeatureFamily& f : candidates_) {
    for (const std::string& glob : family_globs) {
      if (GlobMatch(glob, f.name)) {
        kept.push_back(std::move(f));
        break;
      }
    }
  }
  if (kept.empty()) {
    return Status::InvalidArgument("drill-down matched no families");
  }
  candidates_ = std::move(kept);
  return Status::OK();
}

Status Session::SetScorer(const std::string& name) {
  EXPLAINIT_ASSIGN_OR_RETURN(auto scorer, MakeScorer(name));
  (void)scorer;
  scorer_name_ = name;
  return Status::OK();
}

Result<ScoreTable> Session::Run() {
  if (!target_.has_value()) {
    return Status::FailedPrecondition("no target selected (step 1)");
  }
  if (candidates_.empty()) {
    return Status::FailedPrecondition("no search space selected (step 2)");
  }
  RankRequest req;
  req.target = *target_;
  req.condition = condition_;
  req.candidates = candidates_;
  req.scorer_name = scorer_name_;
  req.ranking.render_viz = true;
  if (explain_range_.has_value()) req.ranking.explain_range = explain_range_;
  // Session::Run and the declarative EXPLAIN path share one engine tail:
  // align onto a common grid, then rank.
  EXPLAINIT_ASSIGN_OR_RETURN(ScoreTable table,
                             AlignAndRank(engine_, std::move(req)));
  history_.push_back(table);
  return table;
}

}  // namespace explainit::core
