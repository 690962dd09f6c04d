// explain_wide: one wide EXPLAIN of overall_runtime, every other series
// its own family, through Engine::Query in a closed loop with one client
// thread. Its time sits in the SQL scan→filter→aggregate→drain path and
// core's normalise/family build; ranking is a few percent.
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "core/engine.h"
#include "layers.h"
#include "world.h"
#include "workloads.h"

namespace perfbench {

using namespace explainit;

namespace {

const char* kStatement =
    "EXPLAIN (SELECT timestamp, AVG(value) AS y FROM tsdb "
    "WHERE metric_name = 'overall_runtime' GROUP BY timestamp) "
    "USING (SELECT timestamp, CONCAT(metric_name, '@', tag['host']) AS "
    "family, AVG(value) AS v FROM tsdb "
    "WHERE metric_name != 'overall_runtime' "
    "GROUP BY timestamp, CONCAT(metric_name, '@', tag['host'])) "
    "SCORE BY 'L2'";

WorldSpec Spec(const RunInfo& info) {
  WorldSpec spec;
  spec.datanodes = info.smoke ? 2 : 16;
  spec.history_minutes = info.smoke ? 120 : 360;
  spec.seed = info.seed;
  return spec;
}

struct Setup {
  World world;
  std::unique_ptr<core::Engine> engine;
  core::ScoreTable warmup;
  double seconds = 0.0;
};

/// World build, ingest, Flush, engine start and one warm-up statement.
Result<std::unique_ptr<Setup>> SetUp(const WorldSpec& spec) {
  const double t0 = NowSeconds();
  auto s = std::make_unique<Setup>();
  EXPLAINIT_ASSIGN_OR_RETURN(s->world, BuildWorld(spec));
  s->engine = std::make_unique<core::Engine>(s->world.store);
  EXPLAINIT_RETURN_IF_ERROR(s->engine->FlushStore());
  s->engine->RegisterStoreTable("tsdb", s->world.history);
  EXPLAINIT_ASSIGN_OR_RETURN(core::QueryResult r, s->engine->Query(kStatement));
  if (!r.score_table.has_value()) {
    return Status::Internal("EXPLAIN returned no Score Table");
  }
  s->warmup = std::move(*r.score_table);
  s->seconds = NowSeconds() - t0;
  return s;
}

/// The reference ranking: the same statement on a serial pipeline.
Result<core::ScoreTable> Reference(const Setup& s) {
  core::EngineOptions options;
  options.sql_parallelism = 1;
  core::Engine engine(s.world.store, options);
  engine.RegisterStoreTable("tsdb", s.world.history);
  EXPLAINIT_ASSIGN_OR_RETURN(core::QueryResult r, engine.Query(kStatement));
  if (!r.score_table.has_value()) {
    return Status::Internal("reference EXPLAIN returned no Score Table");
  }
  return std::move(*r.score_table);
}

/// Closed loop through Engine::Query for `seconds`; returns latencies.
std::vector<double> QueryLoop(Setup* s, const core::ScoreTable& want,
                              double seconds, RunResult* result) {
  std::vector<double> latencies;
  const double end = NowSeconds() + seconds;
  while (NowSeconds() < end) {
    const double t0 = NowSeconds();
    auto r = s->engine->Query(kStatement);
    const double dt = NowSeconds() - t0;
    ++result->attempted;
    if (!r.ok() || !r->score_table.has_value()) {
      ++result->failed;
      continue;
    }
    latencies.push_back(dt);
    std::string why;
    if (!SameRanking(want, *r->score_table, &why)) {
      result->Fail("explain_wide statement differs from reference: " + why);
    }
  }
  return latencies;
}

/// Closed loop through the staged replay for `seconds`, with spans on;
/// fills the per-layer metrics and returns latencies.
std::vector<double> TracedLoop(Setup* s, const core::ScoreTable& want,
                               const std::vector<std::string>& want_plans,
                               double seconds, Tracer* tracer,
                               ScanProbe* probe, RunResult* result,
                               LayerMetrics* lm) {
  std::vector<double> latencies;
  RankTotals ranks;
  ExplainCounters totals;
  const tsdb::ScanStats scans = s->world.store->scan_stats();
  tracer->set_active(true);
  const double end = NowSeconds() + seconds;
  while (NowSeconds() < end) {
    const uint64_t request = tracer->NewRequest();
    ExplainCounters counters;
    const double t0 = NowSeconds();
    Result<core::ScoreTable> table = Status::Internal("not run");
    {
      ScopedSpan root(tracer, "op.explain", 0, request);
      probe->request.store(request);
      table = ReplayExplain(s->engine.get(), kStatement, tracer, probe,
                            root.id(), request, &counters);
    }
    const double dt = NowSeconds() - t0;
    ++result->attempted;
    if (!table.ok()) {
      ++result->failed;
      continue;
    }
    latencies.push_back(dt);
    std::string why;
    if (!SameRanking(want, *table, &why)) {
      result->Fail("replayed EXPLAIN differs from Engine::Query: " + why);
    }
    if (counters.plan_texts != want_plans) {
      result->Fail("traced sub-select plan differs from the untraced plan");
    }
    totals.rows_scanned += counters.rows_scanned;
    totals.agg_rows += counters.agg_rows;
    totals.agg_incl_s += counters.agg_incl_s;
    ranks.Add(*table, counters.candidates);
  }
  tracer->set_active(false);
  if (latencies.empty()) {
    result->Fail("the traced half completed no statement");
    return latencies;
  }

  const double n = static_cast<double>(latencies.size());
  const TraceReport report = Analyze(tracer->Snapshot());
  lm->SetStore(*s->world.store, scans, n);
  lm->SetRankStages(ranks);
  lm->tsdb_scan_s = report.Incl("tsdb.scan") / n;
  lm->sql_parse_s = report.Incl("sql.parse") / n;
  lm->sql_plan_s = report.Incl("sql.plan") / n;
  lm->sql_drain_s = report.Incl("sql.drain") / n;
  lm->sql_drain_self_s = report.Self("sql.drain") / n;
  lm->sql_rows_scanned = static_cast<double>(totals.rows_scanned) / n;
  lm->sql_agg_rows = static_cast<double>(totals.agg_rows) / n;
  lm->sql_agg_incl_s = totals.agg_incl_s / n;
  lm->core_normalize_s = report.Incl("core.normalize") / n;
  lm->core_families_s = report.Incl("core.families") / n;
  lm->core_align_s = report.Incl("core.align") / n;
  lm->self_tsdb_s = report.LayerSelf("tsdb") / n;
  lm->self_sql_s = report.LayerSelf("sql") / n;
  lm->self_core_s = report.LayerSelf("core") / n;
  lm->trace_coverage = report.coverage();
  result->layer_table = report.Render("explain_wide, per statement", n);
  return latencies;
}

}  // namespace

RunResult RunExplainWide(const RunInfo& info, Tracer* tracer) {
  RunResult result;
  const WorldSpec spec = Spec(info);
  std::vector<double> setup_seconds;
  std::unique_ptr<Setup> setup = RepeatSetUp<Setup>(
      info, [&] { return SetUp(spec); }, &setup_seconds, &result);
  if (setup == nullptr) return result;

  // Output checks before any timing.
  auto want = Reference(*setup);
  if (!want.ok()) {
    result.Fail("reference failed: " + want.status().ToString());
    return result;
  }
  std::string why;
  if (!SameRanking(*want, setup->warmup, &why)) {
    result.Fail("explain_wide differs from the sql_parallelism=1 reference: " +
                why);
    return result;
  }

  if (!info.trace) {
    const std::vector<double> lat =
        QueryLoop(setup.get(), *want, info.seconds, &result);
    const Tail tail = TailOf(lat);
    AddEndToEnd(&result, setup_seconds, Median(lat),
                std::to_string(lat.size()) + " statements", tail.value,
                TailNote(tail));
    result.AddDetail("explain_p50_s", Median(lat), "s");
    result.AddTail(&result.details, "explain_tail_s", TailOf(lat), 1.0, "s");
    return result;
  }

  // Traced run: an untraced half through Engine::Query, then the staged
  // replay with a timing provider in place of the store table. The
  // provider must not change the plan.
  auto plans = SubSelectPlanTexts(setup->engine.get(), kStatement);
  if (!plans.ok()) {
    result.Fail("plan capture failed: " + plans.status().ToString());
    return result;
  }
  ScanProbe probe;
  probe.tracer = tracer;
  RegisterTimedStoreTable(setup->engine.get(), "tsdb", setup->world.history,
                          &probe);
  const std::vector<double> untraced =
      QueryLoop(setup.get(), *want, info.seconds / 2, &result);
  LayerMetrics lm;
  const std::vector<double> traced =
      TracedLoop(setup.get(), *want, *plans, info.seconds / 2, tracer, &probe,
                 &result, &lm);
  lm.trace_overhead_ms = 1e3 * (Median(traced) - Median(untraced));
  lm.Emit(&result);
  result.AddDetail("untraced_p50_s", Median(untraced), "s",
                   std::to_string(untraced.size()) + " statements");
  result.AddDetail("traced_p50_s", Median(traced), "s",
                   std::to_string(traced.size()) + " statements");
  return result;
}

}  // namespace perfbench
