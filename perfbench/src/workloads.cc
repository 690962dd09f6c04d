#include "exec/worker_pool.h"
#include "workloads.h"

namespace perfbench {

double HitRatio(size_t hits, size_t misses) {
  const size_t total = hits + misses;
  return total == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(total);
}

void AddEndToEnd(RunResult* result, const std::vector<double>& setup_seconds,
                 double op_p50_s, const std::string& p50_note,
                 double op_tail_s, const std::string& tail_note) {
  result->AddMetric("setup_s", Median(setup_seconds), "s",
                    "median of " + std::to_string(setup_seconds.size()) +
                        " set-ups");
  result->AddMetric("op_p50_ms", 1e3 * op_p50_s, "ms", p50_note);
  result->AddMetric("op_tail_ms", 1e3 * op_tail_s, "ms", tail_note);
  result->AddMetric("peak_rss_mb", PeakRssMb(), "MB");
  result->AddDetail(
      "error_ratio",
      result->attempted == 0
          ? 0.0
          : static_cast<double>(result->failed) /
                static_cast<double>(result->attempted),
      "ratio", std::to_string(result->failed) + " of " +
                   std::to_string(result->attempted) + " attempted");
}

void RankTotals::Add(const explainit::core::ScoreTable& table,
                     size_t num_candidates) {
  const explainit::core::RankStageStats& s = table.stage;
  stage.gram_ns += s.gram_ns;
  stage.factor_ns += s.factor_ns;
  stage.solve_ns += s.solve_ns;
  stage.predict_ns += s.predict_ns;
  stage.design_hits += s.design_hits;
  stage.design_misses += s.design_misses;
  stage.factor_hits += s.factor_hits;
  stage.factor_misses += s.factor_misses;
  stage.fit_hits += s.fit_hits;
  stage.fit_misses += s.fit_misses;
  rank_s += table.total_seconds;
  candidates += static_cast<double>(num_candidates);
  ++rankings;
}

void LayerMetrics::SetRankStages(const RankTotals& ranks) {
  if (ranks.rankings == 0) return;
  const explainit::core::RankStageStats& stage = ranks.stage;
  const double n = static_cast<double>(ranks.rankings);
  core_rank_s = ranks.rank_s / n;
  core_candidates = ranks.candidates / n;
  la_gram_s = 1e-9 * static_cast<double>(stage.gram_ns) / n;
  la_factor_s = 1e-9 * static_cast<double>(stage.factor_ns) / n;
  la_solve_s = 1e-9 * static_cast<double>(stage.solve_ns) / n;
  la_predict_s = 1e-9 * static_cast<double>(stage.predict_ns) / n;
  stats_cache_hit_ratio = HitRatio(stage.total_hits(), stage.total_misses());
  stats_factor_hit_ratio = HitRatio(stage.factor_hits, stage.factor_misses);
  stats_fit_hit_ratio = HitRatio(stage.fit_hits, stage.fit_misses);
  const double threads = static_cast<double>(
      explainit::exec::WorkerPool::Global().num_threads());
  const double busy = la_gram_s + la_factor_s + la_solve_s + la_predict_s;
  exec_rank_busy_ratio =
      core_rank_s > 0 ? busy / (core_rank_s * threads) : 0.0;
}

void LayerMetrics::SetStore(const explainit::tsdb::SeriesStore& store,
                            const explainit::tsdb::ScanStats& before,
                            double ops) {
  const explainit::tsdb::ScanStats after = store.scan_stats();
  if (ops > 0) {
    tsdb_points_decoded =
        static_cast<double>(after.points_decoded - before.points_decoded) /
        ops;
  }
  tsdb_rollup_served_ratio = HitRatio(
      after.segments_rollup_served - before.segments_rollup_served,
      after.segments_raw_fallback - before.segments_raw_fallback);
  const size_t points = store.num_points();
  tsdb_bytes_per_point =
      points == 0 ? 0.0
                  : static_cast<double>(store.compressed_bytes()) /
                        static_cast<double>(points);
}

void LayerMetrics::Emit(RunResult* r) const {
  r->AddMetric("tsdb.scan_s", tsdb_scan_s, "s");
  r->AddMetric("tsdb.points_decoded", tsdb_points_decoded, "count");
  r->AddMetric("tsdb.rollup_served_ratio", tsdb_rollup_served_ratio,
               "ratio");
  r->AddMetric("tsdb.scan_aligned_s", tsdb_scan_aligned_s, "s");
  r->AddMetric("tsdb.write_s", tsdb_write_s, "s");
  r->AddMetric("tsdb.seals", tsdb_seals, "count");
  r->AddMetric("tsdb.compactions", tsdb_compactions, "count");
  r->AddMetric("tsdb.bytes_per_point", tsdb_bytes_per_point, "B");
  r->AddMetric("sql.parse_s", sql_parse_s, "s");
  r->AddMetric("sql.plan_s", sql_plan_s, "s");
  r->AddMetric("sql.drain_s", sql_drain_s, "s");
  r->AddMetric("sql.drain_self_s", sql_drain_self_s, "s");
  r->AddMetric("sql.rows_scanned", sql_rows_scanned, "count");
  r->AddMetric("sql.agg_rows", sql_agg_rows, "count");
  r->AddMetric("sql.agg_incl_s", sql_agg_incl_s, "s");
  r->AddMetric("core.normalize_s", core_normalize_s, "s");
  r->AddMetric("core.families_s", core_families_s, "s");
  r->AddMetric("core.build_families_s", core_build_families_s, "s");
  r->AddMetric("core.align_s", core_align_s, "s");
  r->AddMetric("core.rank_s", core_rank_s, "s");
  r->AddMetric("core.candidates", core_candidates, "count");
  r->AddMetric("la.gram_s", la_gram_s, "s");
  r->AddMetric("la.factor_s", la_factor_s, "s");
  r->AddMetric("la.solve_s", la_solve_s, "s");
  r->AddMetric("la.predict_s", la_predict_s, "s");
  r->AddMetric("stats.cache_hit_ratio", stats_cache_hit_ratio, "ratio");
  r->AddMetric("stats.factor_hit_ratio", stats_factor_hit_ratio, "ratio");
  r->AddMetric("stats.fit_hit_ratio", stats_fit_hit_ratio, "ratio");
  r->AddMetric("exec.rank_busy_ratio", exec_rank_busy_ratio, "ratio");
  r->AddMetric("monitor.run_once_s", monitor_run_once_s, "s");
  r->AddMetric("monitor.rows_reused_ratio", monitor_rows_reused_ratio,
               "ratio");
  r->AddMetric("monitor.delta_scans", monitor_delta_scans, "count");
  r->AddMetric("server.exec_ms", server_exec_ms, "ms");
  r->AddMetric("server.overhead_ms", server_overhead_ms, "ms");
  r->AddMetric("server.busy_ratio", server_busy_ratio, "ratio");
  r->AddMetric("server.generator_late_ms", server_generator_late_ms, "ms");
  r->AddMetric("self.tsdb_s", self_tsdb_s, "s");
  r->AddMetric("self.sql_s", self_sql_s, "s");
  r->AddMetric("self.core_s", self_core_s, "s");
  r->AddMetric("trace.coverage", trace_coverage, "ratio");
  r->AddMetric("trace.overhead_ms", trace_overhead_ms, "ms");
}

}  // namespace perfbench
