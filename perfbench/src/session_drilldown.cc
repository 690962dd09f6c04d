// session_drilldown: Algorithm 1 through core::Session in a closed loop
// with one client thread. Each session sets its target and metric-name
// search space once, re-ranks over a fixed sequence of scorers and
// conditions, and ends with a drill-down. No SQL runs; the la kernels,
// the stats scoring cache and the exec fan-out do nearly all the work.
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "checks.h"
#include "common/strings.h"
#include "core/engine.h"
#include "core/pseudocause.h"
#include "world.h"
#include "workloads.h"

namespace perfbench {

using namespace explainit;

namespace {

enum class Condition { kNone, kPseudocause, kInputRate };

struct Step {
  const char* scorer;
  Condition condition;
  bool drill_down;  // DrillDown before this step's Run
};

// Step 0's Run is the session's first Score Table; every later Run is a
// re-rank.
const Step kSteps[] = {
    {"L2", Condition::kNone, false},
    {"L2-P50", Condition::kNone, false},
    {"CorrMax", Condition::kNone, false},
    {"L2", Condition::kPseudocause, false},
    {"L2-P50", Condition::kPseudocause, false},
    {"L2", Condition::kInputRate, false},
    {"CorrMax", Condition::kInputRate, false},
    {"L2", Condition::kNone, true},
};
constexpr size_t kNumSteps = sizeof(kSteps) / sizeof(kSteps[0]);

const char* kTarget = "overall_runtime";
const char* kConditionGlob = "input_rate*";
const std::vector<std::string> kDrillGlobs = {
    "tcp_*", "network_*", "hdfs_*", "disk_*", "cpu_*", "namenode_*"};

bool ChecksCause(const Step& step) {
  const std::string scorer = step.scorer;
  return scorer == "L2" || scorer == "L2-P50";
}

WorldSpec Spec(const RunInfo& info) {
  WorldSpec spec;
  spec.datanodes = info.smoke ? 32 : 256;
  spec.history_minutes = 720;
  spec.seed = info.seed;
  return spec;
}

/// One session's outputs and timings.
struct SessionRun {
  std::vector<core::ScoreTable> tables;  // one per step
  double first_table_s = 0.0;            // construction → first table
  std::vector<double> rerank_s;          // each later Run
};

/// Runs the fixed step sequence through core::Session.
Result<SessionRun> RunSession(core::Engine* engine, const TimeRange& range) {
  SessionRun out;
  const double t0 = NowSeconds();
  core::Session session(engine, range);
  EXPLAINIT_RETURN_IF_ERROR(session.SetTargetByMetric(kTarget));
  core::GroupingOptions grouping;
  grouping.key = core::GroupingKey::kMetricName;
  EXPLAINIT_RETURN_IF_ERROR(session.SetSearchSpaceByGrouping(grouping));
  for (size_t i = 0; i < kNumSteps; ++i) {
    const Step& step = kSteps[i];
    if (step.drill_down) {
      EXPLAINIT_RETURN_IF_ERROR(session.DrillDown(kDrillGlobs));
    }
    switch (step.condition) {
      case Condition::kNone:
        session.ClearCondition();
        break;
      case Condition::kPseudocause:
        EXPLAINIT_RETURN_IF_ERROR(session.ConditionOnPseudocause());
        break;
      case Condition::kInputRate:
        EXPLAINIT_RETURN_IF_ERROR(session.SetConditionByMetric(kConditionGlob));
        break;
    }
    EXPLAINIT_RETURN_IF_ERROR(session.SetScorer(step.scorer));
    const double r0 = NowSeconds();
    EXPLAINIT_ASSIGN_OR_RETURN(core::ScoreTable table, session.Run());
    const double r1 = NowSeconds();
    if (i == 0) {
      out.first_table_s = r1 - t0;
    } else {
      out.rerank_s.push_back(r1 - r0);
    }
    out.tables.push_back(std::move(table));
  }
  return out;
}

/// The same sequence replayed through the public functions Session calls
/// (SeriesStore::ScanAligned, BuildFamilies, MergeFamilies,
/// BuildPseudocause, AlignFamilies, Engine::Rank), one span per stage.
/// Op roots: op.first_table (target + search space + first Run) and
/// op.rerank (each later Run); condition set-up records under
/// op.condition.
class SessionReplay {
 public:
  SessionReplay(core::Engine* engine, TimeRange range, Tracer* tracer,
                RankTotals* ranks)
      : engine_(engine), range_(range), tracer_(tracer), ranks_(ranks) {
    grid_.step_seconds = engine->options().grid_step_seconds;
  }

  Result<SessionRun> Run() {
    SessionRun out;
    for (size_t i = 0; i < kNumSteps; ++i) {
      const Step& step = kSteps[i];
      const uint64_t request = tracer_->NewRequest();
      if (i > 0) {
        EXPLAINIT_RETURN_IF_ERROR(SetCondition(step, request));
      }
      const double t0 = NowSeconds();
      Result<core::ScoreTable> table = Status::Internal("not run");
      {
        ScopedSpan root(tracer_, i == 0 ? "op.first_table" : "op.rerank", 0,
                        request);
        if (i == 0) {
          EXPLAINIT_RETURN_IF_ERROR(FirstTableSetup(root.id(), request));
        }
        table = Rank(step.scorer, root.id(), request);
      }
      const double dt = NowSeconds() - t0;
      EXPLAINIT_RETURN_IF_ERROR(table.status());
      if (i == 0) {
        out.first_table_s = dt;
      } else {
        out.rerank_s.push_back(dt);
      }
      out.tables.push_back(std::move(*table));
    }
    return out;
  }

 private:
  /// Session::SetTargetByMetric + SetSearchSpaceByGrouping.
  Status FirstTableSetup(uint64_t root, uint64_t request) {
    EXPLAINIT_ASSIGN_OR_RETURN(
        target_, FamilyFromMetric(kTarget, kTarget, root, request));
    condition_.reset();
    tsdb::ScanRequest req;
    req.range = range_;
    std::vector<tsdb::SeriesData> series;
    {
      ScopedSpan span(tracer_, "tsdb.scan_aligned", root, request);
      EXPLAINIT_ASSIGN_OR_RETURN(series,
                                 engine_->store().ScanAligned(req, grid_));
    }
    ScopedSpan span(tracer_, "core.build_families", root, request);
    core::GroupingOptions grouping;
    grouping.key = core::GroupingKey::kMetricName;
    EXPLAINIT_ASSIGN_OR_RETURN(candidates_,
                               core::BuildFamilies(series, grouping));
    return Status::OK();
  }

  /// Engine::FamilyFromMetric.
  Result<core::FeatureFamily> FamilyFromMetric(const std::string& glob,
                                               const std::string& name,
                                               uint64_t parent,
                                               uint64_t request) {
    tsdb::ScanRequest req;
    req.metric_glob = glob;
    req.range = range_;
    std::vector<tsdb::SeriesData> series;
    {
      ScopedSpan span(tracer_, "tsdb.scan_aligned", parent, request);
      EXPLAINIT_ASSIGN_OR_RETURN(series,
                                 engine_->store().ScanAligned(req, grid_));
    }
    if (series.empty()) {
      return Status::NotFound("no series match metric glob: " + glob);
    }
    ScopedSpan span(tracer_, "core.build_families", parent, request);
    core::GroupingOptions grouping;
    grouping.key = core::GroupingKey::kMetricName;
    EXPLAINIT_ASSIGN_OR_RETURN(auto families,
                               core::BuildFamilies(series, grouping));
    return core::MergeFamilies(families, name);
  }

  /// DrillDown + the condition calls between Runs.
  Status SetCondition(const Step& step, uint64_t request) {
    ScopedSpan root(tracer_, "op.condition", 0, request);
    if (step.drill_down) {
      ScopedSpan span(tracer_, "core.drill_down", root.id(), request);
      std::vector<core::FeatureFamily> kept;
      for (core::FeatureFamily& f : candidates_) {
        for (const std::string& glob : kDrillGlobs) {
          if (GlobMatch(glob, f.name)) {
            kept.push_back(std::move(f));
            break;
          }
        }
      }
      candidates_ = std::move(kept);
    }
    switch (step.condition) {
      case Condition::kNone:
        condition_.reset();
        return Status::OK();
      case Condition::kPseudocause: {
        ScopedSpan span(tracer_, "core.pseudocause", root.id(), request);
        EXPLAINIT_ASSIGN_OR_RETURN(core::Pseudocause pc,
                                   core::BuildPseudocause(target_));
        condition_ = std::move(pc.systematic);
        return Status::OK();
      }
      case Condition::kInputRate: {
        EXPLAINIT_ASSIGN_OR_RETURN(
            core::FeatureFamily z,
            FamilyFromMetric(kConditionGlob,
                             std::string("Z:") + kConditionGlob, root.id(),
                             request));
        condition_ = std::move(z);
        return Status::OK();
      }
    }
    return Status::OK();
  }

  /// Session::Run: copy the session state into a request, then
  /// AlignAndRank as its two public calls.
  Result<core::ScoreTable> Rank(const std::string& scorer, uint64_t root,
                                uint64_t request) {
    core::RankRequest req;
    std::vector<core::FeatureFamily> all;
    {
      ScopedSpan span(tracer_, "core.request", root, request);
      req.scorer_name = scorer;
      req.ranking.render_viz = true;
      req.condition = condition_;
      req.candidates.resize(candidates_.size());
      all.push_back(target_);
      if (condition_.has_value()) all.push_back(*condition_);
      all.insert(all.end(), candidates_.begin(), candidates_.end());
    }
    {
      ScopedSpan span(tracer_, "core.align", root, request);
      EXPLAINIT_RETURN_IF_ERROR(core::AlignFamilies(&all));
      size_t idx = 0;
      req.target = std::move(all[idx++]);
      if (req.condition.has_value()) req.condition = std::move(all[idx++]);
      for (size_t i = 0; idx < all.size(); ++i, ++idx) {
        req.candidates[i] = std::move(all[idx]);
      }
    }
    Result<core::ScoreTable> table = Status::Internal("not run");
    {
      ScopedSpan span(tracer_, "core.rank", root, request);
      table = engine_->Rank(req);
    }
    if (table.ok()) ranks_->Add(*table, req.candidates.size());
    return table;
  }

  core::Engine* engine_;
  TimeRange range_;
  Tracer* tracer_;
  RankTotals* ranks_;
  tsdb::GridOptions grid_;
  core::FeatureFamily target_;
  std::optional<core::FeatureFamily> condition_;
  std::vector<core::FeatureFamily> candidates_;
};

struct Setup {
  World world;
  std::unique_ptr<core::Engine> engine;
  SessionRun warmup;
  double seconds = 0.0;
};

/// World build, ingest, Flush, engine start and one warm-up session.
Result<std::unique_ptr<Setup>> SetUp(const WorldSpec& spec) {
  const double t0 = NowSeconds();
  auto s = std::make_unique<Setup>();
  EXPLAINIT_ASSIGN_OR_RETURN(s->world, BuildWorld(spec));
  s->engine = std::make_unique<core::Engine>(s->world.store);
  EXPLAINIT_RETURN_IF_ERROR(s->engine->FlushStore());
  EXPLAINIT_ASSIGN_OR_RETURN(s->warmup,
                             RunSession(s->engine.get(), s->world.history));
  s->seconds = NowSeconds() - t0;
  return s;
}

/// Compares every step of `got` with the reference, and requires a
/// tcp_retransmits family in the top 10 at every L2/L2-P50 step.
void CheckSession(const SessionRun& want, const SessionRun& got,
                  const char* what, RunResult* result) {
  for (size_t i = 0; i < kNumSteps; ++i) {
    std::string why;
    if (!SameRanking(want.tables[i], got.tables[i], &why)) {
      result->Fail(std::string(what) + " step " + std::to_string(i) +
                   " differs from its reference: " + why);
    }
    const size_t rank = RankOfPrefix(got.tables[i], "tcp_retransmits");
    if (ChecksCause(kSteps[i]) && (rank == 0 || rank > 10)) {
      result->Fail(std::string(what) + " step " + std::to_string(i) +
                   ": tcp_retransmits ranked " + std::to_string(rank) +
                   ", not in the top 10");
    }
  }
}

}  // namespace

RunResult RunSessionDrilldown(const RunInfo& info, Tracer* tracer) {
  RunResult result;
  const WorldSpec spec = Spec(info);
  std::vector<double> setup_seconds;
  std::unique_ptr<Setup> setup = RepeatSetUp<Setup>(
      info, [&] { return SetUp(spec); }, &setup_seconds, &result);
  if (setup == nullptr) return result;

  // Output checks before any timing: the reference is the same sequence
  // with every hypothesis scored inline on one thread.
  core::EngineOptions serial;
  serial.num_threads = 1;
  core::Engine reference_engine(setup->world.store, serial);
  auto want = RunSession(&reference_engine, setup->world.history);
  if (!want.ok()) {
    result.Fail("reference session failed: " + want.status().ToString());
    return result;
  }
  CheckSession(*want, setup->warmup, "warm-up session", &result);
  if (!result.correct) return result;

  std::vector<double> first_table;
  std::vector<double> rerank;
  std::vector<double> session_rerank_mean;  // one per session
  RankTotals ranks;
  // Whole sessions only, so every run weighs the steps alike.
  auto session_loop = [&](double seconds, bool replay) {
    const double end = NowSeconds() + seconds;
    while (NowSeconds() < end) {
      Result<SessionRun> run = Status::Internal("not run");
      if (replay) {
        SessionReplay r(setup->engine.get(), setup->world.history, tracer,
                        &ranks);
        run = r.Run();
      } else {
        run = RunSession(setup->engine.get(), setup->world.history);
      }
      result.attempted += kNumSteps;
      if (!run.ok()) {
        result.failed += kNumSteps;
        continue;
      }
      CheckSession(*want, *run, replay ? "replayed session" : "session",
                   &result);
      first_table.push_back(run->first_table_s);
      rerank.insert(rerank.end(), run->rerank_s.begin(), run->rerank_s.end());
      session_rerank_mean.push_back(Mean(run->rerank_s));
    }
  };

  if (!info.trace) {
    session_loop(info.seconds, false);
    // The steps' costs differ by scorer, so the median over all re-ranks
    // lands on one step or the next; the median over sessions of each
    // session's mean re-rank weighs every step alike.
    AddEndToEnd(&result, setup_seconds, Median(session_rerank_mean),
                "median over " + std::to_string(session_rerank_mean.size()) +
                    " sessions of the mean re-rank",
                TailOf(rerank).value, TailNote(TailOf(rerank)));
    result.AddDetail("first_table_p50_s", Median(first_table), "s",
                     std::to_string(first_table.size()) + " sessions");
    result.AddDetail("rerank_p50_s", Median(rerank), "s",
                     std::to_string(rerank.size()) + " re-ranks");
    result.AddTail(&result.details, "rerank_tail_s", TailOf(rerank), 1.0,
                   "s");
    return result;
  }

  // Traced run: an untraced half through core::Session, then the staged
  // replay with spans on.
  session_loop(info.seconds / 2, false);
  const double untraced_s = Median(session_rerank_mean);
  const size_t untraced_sessions = session_rerank_mean.size();
  rerank.clear();
  first_table.clear();
  session_rerank_mean.clear();
  const tsdb::ScanStats scans = setup->world.store->scan_stats();
  tracer->set_active(true);
  session_loop(info.seconds / 2, true);
  tracer->set_active(false);
  const double sessions = static_cast<double>(first_table.size());
  if (sessions == 0) {
    result.Fail("the traced half completed no session");
    return result;
  }

  const TraceReport report = Analyze(tracer->Snapshot());
  LayerMetrics lm;
  lm.SetStore(*setup->world.store, scans, sessions);
  lm.SetRankStages(ranks);
  lm.tsdb_scan_aligned_s = report.Incl("tsdb.scan_aligned") / sessions;
  lm.core_build_families_s = report.Incl("core.build_families") / sessions;
  lm.core_align_s =
      report.Incl("core.align") / static_cast<double>(ranks.rankings);
  lm.self_tsdb_s = report.LayerSelf("tsdb") / sessions;
  lm.self_core_s = report.LayerSelf("core") / sessions;
  lm.trace_coverage = report.coverage();
  const double traced_s = Median(session_rerank_mean);
  lm.trace_overhead_ms = 1e3 * (traced_s - untraced_s);
  lm.Emit(&result);
  result.layer_table =
      report.Render("session_drilldown, per session", sessions);
  result.AddDetail("untraced_rerank_s", untraced_s, "s",
                   "median over " + std::to_string(untraced_sessions) +
                       " sessions of the mean re-rank");
  result.AddDetail("traced_rerank_s", traced_s, "s",
                   "median over " +
                       std::to_string(session_rerank_mean.size()) +
                       " sessions of the mean re-rank");
  return result;
}

}  // namespace perfbench
