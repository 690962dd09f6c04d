#include "core/ranking.h"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "common/logging.h"
#include "common/strings.h"
#include "common/time_util.h"
#include "exec/ipc.h"
#include "stats/ridge.h"
#include "stats/significance.h"

namespace explainit::core {

std::string ScoreTable::ToString(size_t max_rows) const {
  std::string out = StrFormat("%-4s %-48s %8s %10s %8s\n", "rank", "family",
                              "score", "features", "sec");
  const size_t n = std::min(rows.size(), max_rows);
  for (size_t i = 0; i < n; ++i) {
    const ScoredHypothesis& h = rows[i];
    out += StrFormat("%-4zu %-48s %8.3f %10zu %8.3f\n", i + 1,
                     h.family_name.c_str(), h.score, h.num_features,
                     h.score_seconds);
    if (!h.viz.empty()) {
      out += "     " + h.viz + "\n";
    }
  }
  if (rows.size() > n) {
    out += StrFormat("... (%zu more)\n", rows.size() - n);
  }
  return out;
}

table::Table ScoreTable::ToTable() const {
  table::Schema schema({{"rank", table::DataType::kInt64},
                        {"family", table::DataType::kString},
                        {"score", table::DataType::kDouble},
                        {"num_features", table::DataType::kInt64},
                        {"best_lambda", table::DataType::kDouble},
                        {"score_seconds", table::DataType::kDouble},
                        {"viz", table::DataType::kString}});
  table::Table out(schema);
  for (size_t i = 0; i < rows.size(); ++i) {
    const ScoredHypothesis& h = rows[i];
    out.AppendRow({table::Value::Int(static_cast<int64_t>(i + 1)),
                   table::Value::String(h.family_name),
                   table::Value::Double(h.score),
                   table::Value::Int(static_cast<int64_t>(h.num_features)),
                   table::Value::Double(h.best_lambda),
                   table::Value::Double(h.score_seconds),
                   table::Value::String(h.viz)});
  }
  return out;
}

size_t ScoreTable::RankOf(const std::string& family_name) const {
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].family_name == family_name) return i + 1;
  }
  return 0;
}

std::string RenderSparkline(const std::vector<double>& series, size_t width) {
  static const char* kLevels[] = {" ", "_", ".", "-", "=", "*", "^", "#"};
  if (series.empty() || width == 0) return "";
  double lo = series[0], hi = series[0];
  for (double v : series) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const double span = hi - lo > 1e-12 ? hi - lo : 1.0;
  std::string out;
  const size_t n = series.size();
  for (size_t i = 0; i < std::min(width, n); ++i) {
    // Downsample by taking the max within each bucket (spikes must stay
    // visible — that is the whole point of the plot).
    const size_t begin = i * n / std::min(width, n);
    const size_t end = std::max(begin + 1, (i + 1) * n / std::min(width, n));
    double v = series[begin];
    for (size_t j = begin; j < end && j < n; ++j) v = std::max(v, series[j]);
    const int level = static_cast<int>(std::floor((v - lo) / span * 7.999));
    out += kLevels[std::clamp(level, 0, 7)];
  }
  return out;
}

namespace {

// r2 of the overlay restricted to a window of rows (Figure 2's
// range-to-explain view on a fitted model).
double WindowScore(const FeatureFamily& target, const la::Matrix& fitted,
                   const TimeRange& range) {
  if (fitted.empty() || fitted.rows() != target.num_timestamps()) return 0.0;
  std::vector<size_t> rows;
  for (size_t r = 0; r < target.num_timestamps(); ++r) {
    if (range.Contains(target.timestamps[r])) rows.push_back(r);
  }
  if (rows.size() < 3) return 0.0;
  la::Matrix obs(rows.size(), target.num_features());
  la::Matrix pred(rows.size(), target.num_features());
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t c = 0; c < target.num_features(); ++c) {
      obs(i, c) = target.data(rows[i], c);
      pred(i, c) = fitted(rows[i], c);
    }
  }
  return std::clamp(stats::RSquared(obs, pred), 0.0, 1.0);
}

}  // namespace

Result<ScoreTable> RankFamilies(const Scorer& scorer,
                                const FeatureFamily& target,
                                const FeatureFamily* condition,
                                const std::vector<FeatureFamily>& candidates,
                                const RankingOptions& options) {
  if (target.num_features() == 0 || target.num_timestamps() == 0) {
    return Status::InvalidArgument("target family is empty");
  }
  const double start = MonotonicSeconds();
  la::Matrix z;  // empty = marginal
  if (condition != nullptr) {
    if (condition->num_timestamps() != target.num_timestamps()) {
      return Status::InvalidArgument(
          "condition family is not aligned with the target");
    }
    z = condition->data;
  }

  // Shared cross-hypothesis scoring state for this call: candidates with
  // the same condition/target reuse standardized designs, Cholesky factors
  // and the conditional Y~Z fit instead of recomputing them per hypothesis.
  std::unique_ptr<stats::ScoringCache> cache;
  if (options.share_scoring_cache) {
    cache = std::make_unique<stats::ScoringCache>();
  }
  stats::StageCounters counters;
  ScoringContext ctx;
  ctx.cache = cache.get();
  ctx.counters = &counters;

  std::vector<ScoredHypothesis> scored(candidates.size());
  // NOT vector<bool>: workers write concurrently, and vector<bool> packs
  // bits so adjacent writes would race. One byte per flag is safe.
  std::vector<char> ok(candidates.size(), 0);
  std::mutex log_mutex;
  auto score_one = [&](size_t i) {
    // Cooperative cancellation: a tripped token skips the remaining
    // hypotheses; the post-fan-out check turns it into an error.
    if (options.cancel != nullptr && !options.cancel->Check().ok()) return;
    const FeatureFamily& cand = candidates[i];
    ScoredHypothesis& row = scored[i];
    row.family_name = cand.name;
    row.num_features = cand.num_features();
    if (cand.num_timestamps() != target.num_timestamps() ||
        cand.num_features() == 0) {
      return;  // skip misaligned/empty candidate
    }
    // No overlap between X and (Y, Z) is a hypothesis precondition (§3.3);
    // the engine filters by family name.
    const double t0 = MonotonicSeconds();
    double ser_seconds = 0.0;
    la::Matrix x = cand.data;
    if (options.simulate_ipc) {
      Result<la::Matrix> rt = exec::RoundTripMatrix(x, &ser_seconds);
      if (rt.ok()) x = std::move(rt).value();
    }
    Result<ScoreResult> res = scorer.Score(x, target.data, z, ctx);
    row.score_seconds = MonotonicSeconds() - t0;
    row.serialization_seconds = ser_seconds;
    if (!res.ok()) {
      std::lock_guard<std::mutex> lock(log_mutex);
      LOG_WARN("scoring " << cand.name
                          << " failed: " << res.status().ToString());
      return;
    }
    row.score = res->score;
    row.best_lambda = res->best_lambda;
    row.explain_window_score = row.score;
    if (options.explain_range.has_value()) {
      row.explain_window_score =
          WindowScore(target, res->fitted, *options.explain_range);
    }
    if (options.render_viz && !res->fitted.empty()) {
      row.viz = "Y: " + RenderSparkline(target.data.Col(0)) + " | E[Y|X]: " +
                RenderSparkline(res->fitted.Col(0));
    }
    ok[i] = 1;
  };
  if (options.num_threads == 1 && options.pool == nullptr) {
    for (size_t i = 0; i < candidates.size(); ++i) score_one(i);
  } else {
    // Hypothesis fan-out over the shared pool (the caller's, or the
    // process-wide one) — never a private pool per call. num_threads
    // caps the fan-out; the calling thread participates.
    exec::WorkerPool& pool = options.pool != nullptr
                                 ? *options.pool
                                 : exec::WorkerPool::Global();
    exec::ParallelFor(pool, candidates.size(), score_one,
                      options.num_threads);
  }
  if (options.cancel != nullptr) {
    EXPLAINIT_RETURN_IF_ERROR(options.cancel->Check());
  }

  ScoreTable out;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (ok[i]) out.rows.push_back(std::move(scored[i]));
  }
  if (options.significance_fdr > 0.0 && !out.rows.empty()) {
    // Appendix A: p-value each score against the no-dependence null (the
    // Beta tail with the regression's effective predictor count, capped at
    // T-1 so the distribution stays defined), then run Benjamini–Hochberg
    // across all hypotheses scored in this pass.
    const size_t n = target.num_timestamps();
    std::vector<double> pvalues;
    pvalues.reserve(out.rows.size());
    for (ScoredHypothesis& row : out.rows) {
      const size_t p =
          std::clamp<size_t>(row.num_features, size_t{2}, n > 2 ? n - 2 : 2);
      row.p_value = n > p + 1 ? stats::BetaPValue(row.score, n, p) : 1.0;
      pvalues.push_back(row.p_value);
    }
    const std::vector<double> q = stats::BenjaminiHochbergAdjust(pvalues);
    for (size_t i = 0; i < out.rows.size(); ++i) {
      out.rows[i].significant = q[i] <= options.significance_fdr;
    }
  }
  // Equal scores are ordered by family name so the Score Table is stable
  // across parallelism levels and candidate enumeration order.
  std::stable_sort(out.rows.begin(), out.rows.end(),
                   [](const ScoredHypothesis& a, const ScoredHypothesis& b) {
                     if (a.score != b.score) return a.score > b.score;
                     return a.family_name < b.family_name;
                   });
  if (options.top_k > 0 && out.rows.size() > options.top_k) {
    out.rows.resize(options.top_k);
  }
  out.stage.gram_ns = counters.gram_ns.load(std::memory_order_relaxed);
  out.stage.factor_ns = counters.factor_ns.load(std::memory_order_relaxed);
  out.stage.solve_ns = counters.solve_ns.load(std::memory_order_relaxed);
  out.stage.predict_ns = counters.predict_ns.load(std::memory_order_relaxed);
  if (cache != nullptr) {
    using Slot = stats::ScoringCache::Slot;
    out.stage.design_hits = cache->hits(Slot::kDesign);
    out.stage.design_misses = cache->misses(Slot::kDesign);
    out.stage.factor_hits = cache->hits(Slot::kFactor);
    out.stage.factor_misses = cache->misses(Slot::kFactor);
    out.stage.fit_hits = cache->hits(Slot::kFit);
    out.stage.fit_misses = cache->misses(Slot::kFit);
  }
  out.total_seconds = MonotonicSeconds() - start;
  return out;
}

}  // namespace explainit::core
