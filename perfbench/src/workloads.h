// The three workloads of the repo benchmark (see perfbench/DESIGN.md).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/ranking.h"
#include "tsdb/store.h"
#include "trace.h"

namespace perfbench {

/// Untraced runs fill RunResult::metrics with the end-to-end set; traced
/// runs with the per-layer set. A failed output check marks the result
/// incorrect.
RunResult RunExplainWide(const RunInfo& info, Tracer* tracer);
RunResult RunSessionDrilldown(const RunInfo& info, Tracer* tracer);
RunResult RunServeIngest(const RunInfo& info, Tracer* tracer);

/// Set-ups per untraced run; setup_s is their median. The count is fixed:
/// memory the engine keeps after a world is torn down makes later
/// set-ups in one process slower, so a count that varied between runs
/// would move setup_s and peak_rss_mb by itself.
constexpr int kSetupRepeats = 5;

/// Ranking-stage figures summed over the Score Tables of a traced phase.
struct RankTotals {
  explainit::core::RankStageStats stage;
  double rank_s = 0.0;      // summed ScoreTable::total_seconds
  double candidates = 0.0;  // summed families handed to Engine::Rank
  size_t rankings = 0;

  void Add(const explainit::core::ScoreTable& table, size_t num_candidates);
};

/// The per-layer metric set. Every workload reports every field; a layer
/// the workload never enters reads 0. Times are seconds per occurrence of
/// the stage's unit of work (statement, Run, tick, slide, request).
struct LayerMetrics {
  double tsdb_scan_s = 0;
  double tsdb_points_decoded = 0;
  double tsdb_rollup_served_ratio = 0;
  double tsdb_scan_aligned_s = 0;
  double tsdb_write_s = 0;
  double tsdb_seals = 0;
  double tsdb_compactions = 0;
  double tsdb_bytes_per_point = 0;
  double sql_parse_s = 0;
  double sql_plan_s = 0;
  double sql_drain_s = 0;
  double sql_drain_self_s = 0;
  double sql_rows_scanned = 0;
  double sql_agg_rows = 0;
  double sql_agg_incl_s = 0;
  double core_normalize_s = 0;
  double core_families_s = 0;
  double core_build_families_s = 0;
  double core_align_s = 0;
  double core_rank_s = 0;
  double core_candidates = 0;
  double la_gram_s = 0;
  double la_factor_s = 0;
  double la_solve_s = 0;
  double la_predict_s = 0;
  double stats_cache_hit_ratio = 0;
  double stats_factor_hit_ratio = 0;
  double stats_fit_hit_ratio = 0;
  double exec_rank_busy_ratio = 0;
  double monitor_run_once_s = 0;
  double monitor_rows_reused_ratio = 0;
  double monitor_delta_scans = 0;
  double server_exec_ms = 0;
  double server_overhead_ms = 0;
  double server_busy_ratio = 0;
  double server_generator_late_ms = 0;
  double self_tsdb_s = 0;
  double self_sql_s = 0;
  double self_core_s = 0;
  double trace_coverage = 0;
  double trace_overhead_ms = 0;

  /// Sets the core.rank/candidates, la, stats and exec fields, per
  /// ranking.
  void SetRankStages(const RankTotals& ranks);
  /// Sets tsdb.points_decoded (per `ops`) and tsdb.rollup_served_ratio
  /// from the store's scan counters over a phase, and
  /// tsdb.bytes_per_point from the store's current size.
  void SetStore(const explainit::tsdb::SeriesStore& store,
                const explainit::tsdb::ScanStats& before, double ops);
  /// Copies every field into result->metrics under its metric name.
  void Emit(RunResult* result) const;
};

/// "hit ÷ (hit + miss)", 0 when both are 0.
double HitRatio(size_t hits, size_t misses);

/// Runs `set_up` (returning Result<std::unique_ptr<S>>) kSetupRepeats
/// times in an untraced full-size run, once otherwise, keeping the last
/// world; each attempt's S::seconds goes into `seconds`. Null (with the
/// failure recorded) when a set-up fails.
template <typename S, typename Fn>
std::unique_ptr<S> RepeatSetUp(const RunInfo& info, Fn set_up,
                               std::vector<double>* seconds,
                               RunResult* result) {
  const int repeats = info.trace || info.smoke ? 1 : kSetupRepeats;
  std::unique_ptr<S> setup;
  for (int i = 0; i < repeats; ++i) {
    setup.reset();  // one world alive at a time
    auto s = set_up();
    if (!s.ok()) {
      result->Fail("set-up failed: " + s.status().ToString());
      return nullptr;
    }
    setup = std::move(*s);
    seconds->push_back(setup->seconds);
  }
  return setup;
}

/// The end-to-end metric set every untraced run reports: setup_s (median
/// of the set-ups), op_p50_ms and op_tail_ms of the workload's headline
/// operation (with notes saying how each was taken), peak_rss_mb; plus
/// error_ratio as a detail.
void AddEndToEnd(RunResult* result, const std::vector<double>& setup_seconds,
                 double op_p50_s, const std::string& p50_note,
                 double op_tail_s, const std::string& tail_note);

}  // namespace perfbench
