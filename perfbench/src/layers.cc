#include "layers.h"

#include <cstdint>
#include <memory>
#include <utility>

#include "core/pseudocause.h"
#include "sql/parser.h"

namespace perfbench {

using namespace explainit;

void RegisterTimedStoreTable(core::Engine* engine,
                             const std::string& table_name,
                             const TimeRange& range, ScanProbe* probe) {
  tsdb::SeriesStore* store = &engine->store();
  // Mirrors Engine::RegisterStoreTable's options, so plans are unchanged.
  sql::HintedProviderOptions options;
  options.estimated_rows = [store] { return store->num_points(); };
  options.exact_rollups = true;
  engine->catalog().RegisterHintedProvider(
      table_name,
      [store, range, probe](const tsdb::ScanHints& hints)
          -> Result<table::Table> {
        tsdb::ScanRequest req;
        req.range = range;
        req.hints = hints;
        ScopedSpan span(probe->tracer, "tsdb.scan", probe->parent.load(),
                        probe->request.load());
        return store->ScanToTable(req);
      },
      std::move(options));
}

namespace {

/// Holds probe->parent at `id` for the lifetime of the scope.
class ProbeParent {
 public:
  ProbeParent(ScanProbe* probe, uint64_t id)
      : probe_(probe), saved_(probe->parent.exchange(id)) {}
  ~ProbeParent() { probe_->parent.store(saved_); }
  ProbeParent(const ProbeParent&) = delete;
  ProbeParent& operator=(const ProbeParent&) = delete;

 private:
  ScanProbe* probe_;
  uint64_t saved_;
};

struct SubSelectRun {
  Tracer* tracer;
  ScanProbe* probe;
  uint64_t root;
  uint64_t request;
  sql::Executor* executor;
  ExplainCounters* counters;

  /// PlanSelect → ExecuteTree → NormalizeToFeatureFamilyTable →
  /// FamiliesFromTable for one sub-select.
  Result<std::vector<core::FeatureFamily>> Run(
      const sql::SelectStatement& select, const std::string& default_family) {
    std::unique_ptr<sql::Operator> tree;
    {
      ScopedSpan span(tracer, "sql.plan", root, request);
      ProbeParent scans(probe, span.id());
      EXPLAINIT_ASSIGN_OR_RETURN(tree, executor->PlanSelect(select));
    }
    table::Table rows;
    {
      ScopedSpan span(tracer, "sql.drain", root, request);
      ProbeParent scans(probe, span.id());
      EXPLAINIT_ASSIGN_OR_RETURN(rows, executor->ExecuteTree(tree.get()));
    }
    const sql::ExecStats& stats = executor->last_stats();
    counters->rows_scanned += stats.rows_scanned;
    for (const sql::OperatorStats& op : stats.operators) {
      if (op.name != "HashAggregate") continue;
      counters->agg_rows += op.rows_output;
      counters->agg_incl_s += 1e-9 * static_cast<double>(op.elapsed_ns);
    }
    counters->plan_texts.push_back(stats.plan_text);
    table::Table ff;
    {
      ScopedSpan span(tracer, "core.normalize", root, request);
      EXPLAINIT_ASSIGN_OR_RETURN(
          ff, core::NormalizeToFeatureFamilyTable(rows, default_family));
    }
    {
      // Freeing the scanned and drained tables is part of the sub-select's
      // cost (the Rank operator pays it when its tree is destroyed).
      ScopedSpan span(tracer, "sql.release", root, request);
      tree.reset();
      rows = table::Table();
    }
    ScopedSpan span(tracer, "core.families", root, request);
    auto families = core::FamiliesFromTable(ff);
    ff = table::Table();
    return families;
  }
};

Result<std::unique_ptr<sql::ExplainStatement>> ParseExplain(
    const std::string& sql) {
  EXPLAINIT_ASSIGN_OR_RETURN(auto stmt, sql::ParseStatement(sql));
  if (stmt->kind() != sql::StatementKind::kExplain) {
    return Status::InvalidArgument("not an EXPLAIN statement");
  }
  std::unique_ptr<sql::ExplainStatement> out(
      static_cast<sql::ExplainStatement*>(stmt.release()));
  if (out->is_monitor()) {
    return Status::InvalidArgument("standing EXPLAINs are not replayed");
  }
  return out;
}

}  // namespace

Result<core::ScoreTable> ReplayExplain(core::Engine* engine,
                                       const std::string& sql, Tracer* tracer,
                                       ScanProbe* probe, uint64_t root,
                                       uint64_t request,
                                       ExplainCounters* counters) {
  std::unique_ptr<sql::ExplainStatement> stmt;
  {
    ScopedSpan span(tracer, "sql.parse", root, request);
    EXPLAINIT_ASSIGN_OR_RETURN(stmt, ParseExplain(sql));
  }
  sql::Executor& executor = engine->executor();
  SubSelectRun sub{tracer, probe, root, request, &executor, counters};

  // The Rank operator's construction (core/explain.cc), stage by stage.
  core::RankRequest req;
  EXPLAINIT_ASSIGN_OR_RETURN(auto target_fams, sub.Run(*stmt->target, "target"));
  if (target_fams.empty()) {
    return Status::InvalidArgument("EXPLAIN target produced no families");
  }
  {
    ScopedSpan span(tracer, "core.families", root, request);
    req.target = core::MergeFamilies(target_fams, "target");
  }
  if (stmt->given != nullptr) {
    EXPLAINIT_ASSIGN_OR_RETURN(auto given_fams,
                               sub.Run(*stmt->given, "condition"));
    if (given_fams.empty()) {
      return Status::InvalidArgument("EXPLAIN GIVEN produced no families");
    }
    ScopedSpan span(tracer, "core.families", root, request);
    req.condition = core::MergeFamilies(given_fams, "Z:query");
  } else if (stmt->given_pseudocause) {
    ScopedSpan span(tracer, "core.families", root, request);
    EXPLAINIT_ASSIGN_OR_RETURN(core::Pseudocause pc,
                               core::BuildPseudocause(req.target));
    req.condition = std::move(pc.systematic);
  }
  EXPLAINIT_ASSIGN_OR_RETURN(req.candidates,
                             sub.Run(*stmt->search_space, "family"));
  counters->candidates = req.candidates.size();

  req.scorer_name = stmt->scorer.empty() ? "L2-P50" : stmt->scorer;
  if (stmt->top_k.has_value()) {
    req.ranking.top_k = static_cast<size_t>(*stmt->top_k);
  }
  req.ranking.render_viz = true;
  if (stmt->between_start.has_value() && stmt->between_end.has_value()) {
    // Inclusive BETWEEN to a half-open range, saturating like PlanExplain.
    const int64_t end = *stmt->between_end < INT64_MAX
                            ? *stmt->between_end + 1
                            : INT64_MAX;
    req.ranking.explain_range = TimeRange{*stmt->between_start, end};
  }
  const sql::ExecContext* ctx = executor.exec_context();
  if (ctx->parallel()) {
    req.ranking.pool = ctx->pool;
    req.ranking.num_threads = ctx->parallelism;
  } else {
    req.ranking.num_threads = 1;
  }
  req.ranking.cancel = ctx->cancel;

  // AlignAndRank, split into its two public calls.
  {
    ScopedSpan span(tracer, "core.align", root, request);
    std::vector<core::FeatureFamily> all;
    all.push_back(std::move(req.target));
    if (req.condition.has_value()) all.push_back(std::move(*req.condition));
    for (core::FeatureFamily& f : req.candidates) all.push_back(std::move(f));
    EXPLAINIT_RETURN_IF_ERROR(core::AlignFamilies(&all));
    size_t idx = 0;
    req.target = std::move(all[idx++]);
    if (req.condition.has_value()) req.condition = std::move(all[idx++]);
    for (size_t i = 0; idx < all.size(); ++i, ++idx) {
      req.candidates[i] = std::move(all[idx]);
    }
  }
  ScopedSpan span(tracer, "core.rank", root, request);
  auto table = engine->Rank(req);
  req = core::RankRequest();  // the families' memory goes with the stage
  return table;
}

Result<std::vector<std::string>> SubSelectPlanTexts(core::Engine* engine,
                                                    const std::string& sql) {
  EXPLAINIT_ASSIGN_OR_RETURN(auto stmt, ParseExplain(sql));
  std::vector<const sql::SelectStatement*> selects{stmt->target.get()};
  if (stmt->given != nullptr) selects.push_back(stmt->given.get());
  selects.push_back(stmt->search_space.get());
  std::vector<std::string> texts;
  for (const sql::SelectStatement* select : selects) {
    EXPLAINIT_ASSIGN_OR_RETURN(auto tree,
                               engine->executor().PlanSelect(*select));
    EXPLAINIT_RETURN_IF_ERROR(
        engine->executor().ExecuteTree(tree.get()).status());
    texts.push_back(engine->executor().last_stats().plan_text);
  }
  return texts;
}

}  // namespace perfbench
