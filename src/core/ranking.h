// The ranking engine: scores every candidate family against the target
// (optionally conditioned) in parallel — Algorithm 1's inner loop — and
// returns the Top-K Score Table of Figure 4.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/feature_family.h"
#include "core/scorer.h"
#include "exec/cancel.h"
#include "exec/worker_pool.h"
#include "table/table.h"

namespace explainit::core {

/// One ranked hypothesis in the Score Table.
struct ScoredHypothesis {
  std::string family_name;
  double score = 0.0;
  double best_lambda = 0.0;
  size_t num_features = 0;
  /// Wall time spent scoring this hypothesis (Figure 10's unit).
  double score_seconds = 0.0;
  /// Serialisation share of score_seconds (simulated executor->kernel hop).
  double serialization_seconds = 0.0;
  /// ASCII sparkline of the target next to its prediction (the `viz` field
  /// of the Score Table schema); empty when the scorer has no overlay.
  std::string viz;
  /// Score restricted to the user's range-to-explain (Figure 2); equals
  /// `score` when no explain range was given.
  double explain_window_score = 0.0;
  /// Approximate p-value of the score under the no-dependence null
  /// (Appendix A: exact Beta tail with the scorer's effective predictor
  /// count); 1.0 when significance annotation is off.
  double p_value = 1.0;
  /// True when the Benjamini–Hochberg procedure at the requested FDR keeps
  /// this hypothesis (Appendix A.2's multiple-testing control).
  bool significant = true;
};

/// Per-stage breakdown of the linear-algebra work inside one ranking pass,
/// plus cross-hypothesis cache effectiveness. Nanoseconds are summed over
/// worker threads, so they can exceed total_seconds under parallelism.
struct RankStageStats {
  int64_t gram_ns = 0;     // standardize + Gram/cross-product construction
  int64_t factor_ns = 0;   // Cholesky factorizations
  int64_t solve_ns = 0;    // triangular solves
  int64_t predict_ns = 0;  // validation predict + r2 passes
  size_t design_hits = 0;  // standardized design + fold plans served cached
  size_t design_misses = 0;
  size_t factor_hits = 0;  // Cholesky factors served cached
  size_t factor_misses = 0;
  size_t fit_hits = 0;  // whole conditional Y~Z fits served cached
  size_t fit_misses = 0;

  size_t total_hits() const { return design_hits + factor_hits + fit_hits; }
  size_t total_misses() const {
    return design_misses + factor_misses + fit_misses;
  }
};

/// The result of one ranking pass.
struct ScoreTable {
  std::vector<ScoredHypothesis> rows;  // sorted by decreasing score
  double total_seconds = 0.0;
  /// Stage timings and cache counters (zeros when the scoring cache is
  /// disabled and the scorer does no regression).
  RankStageStats stage;

  /// Renders as an aligned text table (rank, family, score, ...).
  std::string ToString(size_t max_rows = 20) const;
  /// Converts to a relational table for further SQL processing.
  table::Table ToTable() const;
  /// Position (1-based) of the named family, or 0 when absent.
  size_t RankOf(const std::string& family_name) const;
};

/// Options for RankFamilies.
struct RankingOptions {
  /// Top-K cutoff (paper default 20). 0 keeps everything.
  size_t top_k = 20;
  /// Hypothesis fan-out cap. 0 = the pool's full width; 1 scores inline
  /// on the calling thread (no pool).
  size_t num_threads = 0;
  /// Shared worker pool to fan hypotheses out over (borrowed); null =
  /// exec::WorkerPool::Global(). RankFamilies never constructs a pool of
  /// its own, and the calling thread participates in the fan-out, so
  /// calling from inside a pool task is safe.
  exec::WorkerPool* pool = nullptr;
  /// Cooperative cancellation/deadline checked before each hypothesis;
  /// null = none. A tripped token fails the whole call.
  const exec::CancelToken* cancel = nullptr;
  /// Round-trip matrices through the IPC codec before scoring, charging
  /// the time to serialization_seconds (reproduces §6.2's measurement).
  bool simulate_ipc = false;
  /// Optional range-to-explain (Figure 2): scores are also evaluated on
  /// this window and reported as explain_window_score.
  std::optional<TimeRange> explain_range;
  /// Render sparkline overlays into ScoredHypothesis::viz.
  bool render_viz = false;
  /// Annotate rows with Appendix A p-values and apply Benjamini–Hochberg
  /// across all scored hypotheses at this FDR (0 disables annotation).
  double significance_fdr = 0.0;
  /// Share one ScoringCache across all hypotheses of this call: the
  /// condition/target designs, their Cholesky factors and the Y~Z fit are
  /// identical for every candidate, so the first scorer computes them and
  /// the rest hit the cache. Does not change any score.
  bool share_scoring_cache = true;
};

/// Scores `candidates` against `target` given optional `condition`,
/// in parallel (one hypothesis per task). Families whose scoring fails
/// (e.g. degenerate data) are skipped with a warning rather than failing
/// the whole ranking. The output order is deterministic at every
/// parallelism level: decreasing score, ties broken by family name.
Result<ScoreTable> RankFamilies(const Scorer& scorer,
                                const FeatureFamily& target,
                                const FeatureFamily* condition,
                                const std::vector<FeatureFamily>& candidates,
                                const RankingOptions& options = {});

/// Renders `series` (and optionally `overlay`) as a one-line ASCII
/// sparkline; used for the Score Table viz field.
std::string RenderSparkline(const std::vector<double>& series,
                            size_t width = 60);

}  // namespace explainit::core
