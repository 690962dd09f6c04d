// End-to-end SQL query throughput: seed row-at-a-time interpreter
// (bench/seed_executor.h) vs the planner + vectorised operator pipeline
// with scan pushdown (src/sql/), swept across the pipeline's parallelism
// knob {1, 2, hw}. Scales the store to 1k/10k/100k series and runs
//   Q1  scan -> filter -> aggregate   (the pushdown + parallel-agg showcase)
//   Q2  scan -> filter -> join -> aggregate (two per-minute subqueries)
//   Q3  scan -> filter -> join -> sort/limit (the partitioned hash join,
//       sharded top-K sort and parallel materialisation showcase)
//   Q4  star join in worst-case statement order (dimensions cross-joined
//       first, the fact scan last) -> aggregate — the cost-based
//       planner's join-reordering showcase, timed with the optimizer off
//       vs on
//   Q5  EXPLAIN's USING shape: GROUP BY timestamp and a CONCAT of the
//       series' name and host — one group per point, the computed key
//       repeating for every point of a series (the flat group table and
//       per-run key evaluation showcase), reported as input rows/s
// Seed-vs-pipeline result parity is verified for every configuration
// *before* any timing is recorded; mismatches fail the bench. Emits
// BENCH_sql_pipeline.json so the perf trajectory is recorded. On hosts
// with >= 4 cores (and not in --smoke mode) the Q3 parallel path must
// additionally beat the serial pipeline; Q4 with the optimizer on must
// beat the statement-order plan at the top scale.
//
// Usage: sql_pipeline [--smoke] [output.json]
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/seed_executor.h"
#include "common/time_util.h"
#include "sql/executor.h"
#include "tsdb/store.h"

namespace explainit {
namespace {

constexpr int64_t kPointsPerSeries = 12;  // one per minute
const TimeRange kRange{0, kPointsPerSeries * 60};

// Q1: the 3-of-12-minute window over the latency metric only; pushdown
// narrows both the window and the series set at the store.
const char* kQ1 =
    "SELECT tag['host'] AS host, AVG(value) AS v FROM tsdb "
    "WHERE metric_name = 'latency' AND timestamp BETWEEN 240 AND 360 "
    "GROUP BY tag['host']";

// Q2: per-minute latency joined with per-minute load, then aggregated.
const char* kQ2 =
    "SELECT COUNT(*) AS n, AVG(l.v + r.v) AS s FROM "
    "(SELECT timestamp AS ts, AVG(value) AS v FROM tsdb "
    " WHERE metric_name = 'latency' GROUP BY timestamp) l "
    "JOIN "
    "(SELECT timestamp AS ts, AVG(value) AS v FROM tsdb "
    " WHERE metric_name = 'load' GROUP BY timestamp) r "
    "ON l.ts = r.ts";

// Q3: row-level join of the latency sweep against the (10x smaller) load
// side on (timestamp, host), topped by ORDER BY ... LIMIT — the
// partitioned hash join + sharded top-K sort + parallel materialisation
// path. The ORDER BY keys (v, ts) cover every selected column, so rows
// tied on the full key are identical and any LIMIT cut among them leaves
// the row count and the checksum (sum of v) unchanged.
const char* kQ3 =
    "SELECT l.timestamp AS ts, l.value + r.value AS v FROM tsdb l "
    "JOIN tsdb r ON l.timestamp = r.timestamp "
    "AND l.tag['host'] = r.tag['host'] "
    "WHERE l.metric_name = 'latency' AND r.metric_name = 'load' "
    "ORDER BY v DESC, ts LIMIT 100";

// Q4: a star join written in the worst statement order — both dimension
// tables first (their cross product has 12x the host count in rows), the
// fact scan last. Statement order materialises the hosts x slots cross
// product through a nested-loop join before the fact table prunes it;
// the cost-based planner starts from the fact-connected dimension
// instead. The time window is slot-aligned, so the ON condition, not the
// window, does the pruning.
const char* kQ4 =
    "SELECT h.grp AS g, SUM(f.value) AS s, COUNT(*) AS n "
    "FROM hosts h CROSS JOIN slots sl "
    "JOIN tsdb f ON f.tag['host'] = h.host AND f.timestamp = sl.b "
    "WHERE f.metric_name = 'latency' AND f.timestamp BETWEEN 240 AND 360 "
    "GROUP BY h.grp ORDER BY g";

// Q5: the USING sub-select of an EXPLAIN over the latency metric.
const char* kQ5 =
    "SELECT timestamp, CONCAT(metric_name, '@', tag['host']) AS family, "
    "AVG(value) AS v FROM tsdb WHERE metric_name = 'latency' "
    "GROUP BY timestamp, CONCAT(metric_name, '@', tag['host'])";

std::shared_ptr<tsdb::SeriesStore> BuildStore(size_t num_series) {
  auto store = std::make_shared<tsdb::SeriesStore>();
  // One latency series per host; one load series per ten hosts.
  for (size_t h = 0; h < num_series; ++h) {
    const tsdb::TagSet tags{{"host", "h" + std::to_string(h)}};
    std::vector<EpochSeconds> ts(kPointsPerSeries);
    std::vector<double> vals(kPointsPerSeries);
    for (int64_t i = 0; i < kPointsPerSeries; ++i) {
      ts[i] = i * 60;
      vals[i] = static_cast<double>((h * 13 + i * 7) % 97);
    }
    if (!store->WriteSeries("latency", tags, ts, vals).ok()) std::abort();
    if (h % 10 == 0) {
      if (!store->WriteSeries("load", tags, ts, vals).ok()) std::abort();
    }
  }
  return store;
}

struct QueryResult {
  double seconds = 0;
  size_t rows = 0;
  double checksum = 0;  // sum of the last column, for cross-validation
};

double Checksum(const table::Table& t) {
  double acc = 0;
  const size_t c = t.num_columns() - 1;
  for (size_t r = 0; r < t.num_rows(); ++r) acc += t.At(r, c).AsDouble();
  return acc;
}

template <typename Exec>
QueryResult Run(Exec& exec, const char* query) {
  const double t0 = MonotonicSeconds();
  auto res = exec.Query(query);
  QueryResult out;
  out.seconds = MonotonicSeconds() - t0;
  if (!res.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 res.status().ToString().c_str());
    std::abort();
  }
  out.rows = res->num_rows();
  out.checksum = Checksum(*res);
  return out;
}

void KeepMin(QueryResult* best, const QueryResult& sample) {
  if (sample.seconds < best->seconds) {
    *best = sample;
  } else {
    best->rows = sample.rows;
    best->checksum = sample.checksum;
  }
}

/// HashAggregate self time (exclusive of its input) of the last query —
/// the operator the parallelism sweep is really about.
double AggSelfSeconds(const sql::Executor& exec) {
  double agg = 0, input = 0;
  for (const sql::OperatorStats& op : exec.last_stats().operators) {
    if (op.name == "HashAggregate" && agg == 0) {
      agg = static_cast<double>(op.elapsed_ns) / 1e9;
    } else if ((op.name == "Filter" || op.name == "Scan") && agg != 0 &&
               input == 0) {
      input = static_cast<double>(op.elapsed_ns) / 1e9;
    }
  }
  return agg > input ? agg - input : 0;
}

bool Close(double a, double b) {
  return std::abs(a - b) <= 1e-6 * (1.0 + std::abs(a) + std::abs(b));
}

bool Matches(const QueryResult& seed, const QueryResult& pipe) {
  return seed.rows == pipe.rows && Close(seed.checksum, pipe.checksum);
}

struct ParallelReport {
  size_t parallelism;
  QueryResult q1, q2, q3, q5;
  double q1_agg_self_sec = 1e300;  // HashAggregate self time in Q1
  double q5_agg_self_sec = 1e300;  // and in Q5
};

struct ScaleReport {
  size_t series;
  QueryResult q1_seed, q2_seed, q3_seed, q5_seed;
  std::vector<ParallelReport> pipeline;  // one entry per parallelism level
  bool match = true;
  /// Whole-query q1 at parallelism 1 over the best parallel level.
  double q1_parallel_speedup = 0;
  /// The parallel HashAggregate's speedup over the serial pipeline's
  /// HashAggregate (operator self time, q1) — the tentpole metric,
  /// insensitive to the shared scan cost.
  double q1_agg_speedup = 0;
  /// Whole-query q3 (join + ORDER BY LIMIT) at parallelism 1 over the
  /// best parallel level — the partitioned join / sharded sort metric.
  double q3_parallel_speedup = 0;
  /// Q4 star join: statement-order plan (optimizer off) vs the
  /// cost-based plan (optimizer on), both at parallelism 1.
  QueryResult q4_seed, q4_off, q4_on;
  double q4_reorder_speedup = 0;
  size_t q4_joins_reordered = 0;
};

std::vector<size_t> ParallelismSweep() {
  const size_t hw =
      std::max<size_t>(2, std::thread::hardware_concurrency());
  std::vector<size_t> sweep{1, 2, hw};
  sweep.erase(std::unique(sweep.begin(), sweep.end()), sweep.end());
  return sweep;
}

ScaleReport RunScale(size_t num_series) {
  auto store = BuildStore(num_series);
  sql::Catalog catalog;
  // Engine-style registration: the live estimator feeds the cost-based
  // planner the fact table's true size, which is what makes Q4's reorder
  // decision real rather than a default-guess coin flip.
  sql::HintedProviderOptions provider_options;
  provider_options.estimated_rows = [store] { return store->num_points(); };
  provider_options.exact_rollups = true;
  catalog.RegisterHintedProvider(
      "tsdb",
      [store](const tsdb::ScanHints& hints) -> Result<table::Table> {
        tsdb::ScanRequest req;
        req.range = kRange;
        req.hints = hints;
        return store->ScanToTable(req);
      },
      provider_options);
  // Q4's dimension tables: one row per host, and the 12 minute slots.
  table::Table hosts(table::Schema{{{"host", table::DataType::kString},
                                    {"grp", table::DataType::kString}}});
  for (size_t h = 0; h < num_series; ++h) {
    hosts.AppendRow({table::Value::String("h" + std::to_string(h)),
                     table::Value::String("g" + std::to_string(h % 8))});
  }
  catalog.RegisterTable("hosts", std::move(hosts));
  table::Table slots(
      table::Schema{{{"b", table::DataType::kTimestamp}}});
  for (int64_t i = 0; i < kPointsPerSeries; ++i) {
    slots.AppendRow({table::Value::Timestamp(i * 60)});
  }
  catalog.RegisterTable("slots", std::move(slots));
  sql::FunctionRegistry functions = sql::FunctionRegistry::Builtins();
  bench::SeedExecutor seed(&catalog, &functions);
  sql::Executor pipeline(&catalog, &functions);

  ScaleReport rep;
  rep.series = num_series;

  // Parity gate: every configuration must reproduce the seed's result
  // before a single timing is recorded.
  const QueryResult q1_ref = Run(seed, kQ1);
  const QueryResult q2_ref = Run(seed, kQ2);
  const QueryResult q3_ref = Run(seed, kQ3);
  const QueryResult q5_ref = Run(seed, kQ5);
  for (size_t p : ParallelismSweep()) {
    pipeline.set_parallelism(p);
    const QueryResult q1 = Run(pipeline, kQ1);
    const QueryResult q2 = Run(pipeline, kQ2);
    const QueryResult q3 = Run(pipeline, kQ3);
    const QueryResult q5 = Run(pipeline, kQ5);
    if (!Matches(q1_ref, q1) || !Matches(q2_ref, q2) ||
        !Matches(q3_ref, q3) || !Matches(q5_ref, q5)) {
      std::fprintf(stderr,
                   "parity FAILED at %zu series, parallelism %zu\n",
                   num_series, p);
      rep.match = false;
    }
  }
  // Q4 parity: seed vs statement-order plan vs cost-based plan, and the
  // reorder must actually fire (otherwise the speedup below measures
  // nothing).
  sql::PlannerOptions optimizer_off;
  optimizer_off.enabled = false;
  const QueryResult q4_ref = Run(seed, kQ4);
  pipeline.set_parallelism(1);
  pipeline.set_optimizer(optimizer_off);
  const QueryResult q4_off = Run(pipeline, kQ4);
  pipeline.set_optimizer(sql::PlannerOptions{});
  const QueryResult q4_on = Run(pipeline, kQ4);
  rep.q4_joins_reordered = pipeline.last_stats().joins_reordered;
  if (!Matches(q4_ref, q4_off) || !Matches(q4_ref, q4_on)) {
    std::fprintf(stderr, "Q4 parity FAILED at %zu series\n", num_series);
    rep.match = false;
  }
  if (rep.q4_joins_reordered == 0) {
    std::fprintf(stderr, "Q4 join reorder did not fire at %zu series\n",
                 num_series);
    rep.match = false;
  }

  // Timed runs: three rounds with the configurations *interleaved*
  // (seed, then each parallelism, back to back within one round), so a
  // drifting heap or background load hits every configuration equally;
  // best-of-rounds damps scheduler noise on busy hosts.
  constexpr int kRounds = 3;
  const std::vector<size_t> sweep = ParallelismSweep();
  rep.q1_seed.seconds = rep.q2_seed.seconds = rep.q3_seed.seconds =
      rep.q5_seed.seconds = 1e300;
  rep.q4_seed.seconds = rep.q4_off.seconds = rep.q4_on.seconds = 1e300;
  rep.pipeline.resize(sweep.size());
  for (size_t j = 0; j < sweep.size(); ++j) {
    rep.pipeline[j].parallelism = sweep[j];
    rep.pipeline[j].q1.seconds = rep.pipeline[j].q2.seconds =
        rep.pipeline[j].q3.seconds = rep.pipeline[j].q5.seconds = 1e300;
  }
  for (int round = 0; round < kRounds; ++round) {
    KeepMin(&rep.q1_seed, Run(seed, kQ1));
    for (size_t j = 0; j < sweep.size(); ++j) {
      pipeline.set_parallelism(sweep[j]);
      KeepMin(&rep.pipeline[j].q1, Run(pipeline, kQ1));
      rep.pipeline[j].q1_agg_self_sec =
          std::min(rep.pipeline[j].q1_agg_self_sec,
                   AggSelfSeconds(pipeline));
    }
    KeepMin(&rep.q2_seed, Run(seed, kQ2));
    for (size_t j = 0; j < sweep.size(); ++j) {
      pipeline.set_parallelism(sweep[j]);
      KeepMin(&rep.pipeline[j].q2, Run(pipeline, kQ2));
    }
    KeepMin(&rep.q3_seed, Run(seed, kQ3));
    for (size_t j = 0; j < sweep.size(); ++j) {
      pipeline.set_parallelism(sweep[j]);
      KeepMin(&rep.pipeline[j].q3, Run(pipeline, kQ3));
    }
    KeepMin(&rep.q5_seed, Run(seed, kQ5));
    for (size_t j = 0; j < sweep.size(); ++j) {
      pipeline.set_parallelism(sweep[j]);
      KeepMin(&rep.pipeline[j].q5, Run(pipeline, kQ5));
      rep.pipeline[j].q5_agg_self_sec =
          std::min(rep.pipeline[j].q5_agg_self_sec,
                   AggSelfSeconds(pipeline));
    }
    // Q4 off/on back to back within the round, parallelism 1 (the
    // reorder win is plan-level, not thread-level).
    pipeline.set_parallelism(1);
    KeepMin(&rep.q4_seed, Run(seed, kQ4));
    pipeline.set_optimizer(optimizer_off);
    KeepMin(&rep.q4_off, Run(pipeline, kQ4));
    pipeline.set_optimizer(sql::PlannerOptions{});
    KeepMin(&rep.q4_on, Run(pipeline, kQ4));
  }
  double best_parallel_q1 = 1e300;
  double best_parallel_agg = 1e300;
  double best_parallel_q3 = 1e300;
  for (const ParallelReport& pr : rep.pipeline) {
    if (pr.parallelism > 1) {
      best_parallel_q1 = std::min(best_parallel_q1, pr.q1.seconds);
      best_parallel_agg = std::min(best_parallel_agg, pr.q1_agg_self_sec);
      best_parallel_q3 = std::min(best_parallel_q3, pr.q3.seconds);
    }
  }
  rep.q1_parallel_speedup = rep.pipeline[0].q1.seconds / best_parallel_q1;
  rep.q1_agg_speedup = rep.pipeline[0].q1_agg_self_sec / best_parallel_agg;
  rep.q3_parallel_speedup = rep.pipeline[0].q3.seconds / best_parallel_q3;
  rep.q4_reorder_speedup = rep.q4_off.seconds / rep.q4_on.seconds;
  return rep;
}

/// Q5's input rows (every latency point) per second.
double Q5RowsPerSecond(const ScaleReport& r, const QueryResult& q5) {
  return static_cast<double>(r.series * kPointsPerSeries) / q5.seconds;
}

void PrintScale(const ScaleReport& r) {
  std::printf(
      "%8zu series | Q1 seed %8.4fs | Q2 seed %8.4fs | Q3 seed %8.4fs "
      "| results %s\n",
      r.series, r.q1_seed.seconds, r.q2_seed.seconds, r.q3_seed.seconds,
      r.match ? "match" : "MISMATCH");
  for (const ParallelReport& pr : r.pipeline) {
    std::printf(
        "          p=%zu | Q1 %8.4fs (%5.1fx seed) | Q2 %8.4fs "
        "(%5.1fx seed) | Q3 %8.4fs (%5.1fx seed)\n",
        pr.parallelism, pr.q1.seconds, r.q1_seed.seconds / pr.q1.seconds,
        pr.q2.seconds, r.q2_seed.seconds / pr.q2.seconds, pr.q3.seconds,
        r.q3_seed.seconds / pr.q3.seconds);
  }
  std::printf(
      "          parallel-vs-serial-pipeline speedups: Q1 %.2fx "
      "(HashAggregate operator: %.2fx), Q3 join+sort %.2fx\n",
      r.q1_parallel_speedup, r.q1_agg_speedup, r.q3_parallel_speedup);
  std::printf(
      "          Q4 star join: seed %8.4fs | optimizer off %8.4fs | "
      "on %8.4fs | reorder %.2fx (%zu joins reordered)\n",
      r.q4_seed.seconds, r.q4_off.seconds, r.q4_on.seconds,
      r.q4_reorder_speedup, r.q4_joins_reordered);
  std::printf("          Q5 group per point: seed %8.4fs (%.3g rows/s)",
              r.q5_seed.seconds, Q5RowsPerSecond(r, r.q5_seed));
  for (const ParallelReport& pr : r.pipeline) {
    std::printf(" | p=%zu %8.4fs (%.3g rows/s, HashAggregate %.4fs)",
                pr.parallelism, pr.q5.seconds, Q5RowsPerSecond(r, pr.q5),
                pr.q5_agg_self_sec);
  }
  std::printf("\n");
}

int Main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_sql_pipeline.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }
  std::vector<size_t> scales =
      smoke ? std::vector<size_t>{200}
            : std::vector<size_t>{1000, 10000, 100000};

  std::printf(
      "SQL pipeline bench: seed interpreter vs planner+vectorised "
      "pipeline, parallelism sweep {1, 2, hw}%s\n",
      smoke ? " [smoke]" : "");
  std::vector<ScaleReport> reports;
  bool all_match = true;
  bool pipeline_wins_at_top = true;
  for (size_t s : scales) {
    ScaleReport r = RunScale(s);
    PrintScale(r);
    all_match = all_match && r.match;
    if (s == scales.back()) {
      pipeline_wins_at_top =
          r.pipeline[0].q1.seconds < r.q1_seed.seconds;
    }
    reports.push_back(r);
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"sql_pipeline\",\n  \"scales\": [\n");
  for (size_t i = 0; i < reports.size(); ++i) {
    const ScaleReport& r = reports[i];
    std::fprintf(
        f,
        "    {\"series\": %zu, \"points\": %zu,\n"
        "     \"q1_seed_sec\": %.6f, \"q2_seed_sec\": %.6f, "
        "\"q3_seed_sec\": %.6f, \"q5_seed_sec\": %.6f,\n"
        "     \"pipeline\": [\n",
        r.series, r.series * kPointsPerSeries, r.q1_seed.seconds,
        r.q2_seed.seconds, r.q3_seed.seconds, r.q5_seed.seconds);
    for (size_t j = 0; j < r.pipeline.size(); ++j) {
      const ParallelReport& pr = r.pipeline[j];
      std::fprintf(
          f,
          "       {\"parallelism\": %zu, \"q1_sec\": %.6f, "
          "\"q1_rows\": %zu, \"q1_speedup_vs_seed\": %.2f, "
          "\"q1_hashagg_self_sec\": %.6f, "
          "\"q2_sec\": %.6f, \"q2_rows\": %zu, "
          "\"q2_speedup_vs_seed\": %.2f, "
          "\"q3_sec\": %.6f, \"q3_rows\": %zu, "
          "\"q3_speedup_vs_seed\": %.2f, "
          "\"q5_sec\": %.6f, \"q5_rows\": %zu, "
          "\"q5_rows_per_sec\": %.0f, \"q5_hashagg_self_sec\": %.6f}%s\n",
          pr.parallelism, pr.q1.seconds, pr.q1.rows,
          r.q1_seed.seconds / pr.q1.seconds, pr.q1_agg_self_sec,
          pr.q2.seconds, pr.q2.rows, r.q2_seed.seconds / pr.q2.seconds,
          pr.q3.seconds, pr.q3.rows, r.q3_seed.seconds / pr.q3.seconds,
          pr.q5.seconds, pr.q5.rows, Q5RowsPerSecond(r, pr.q5),
          pr.q5_agg_self_sec, j + 1 < r.pipeline.size() ? "," : "");
    }
    std::fprintf(
        f,
        "     ],\n"
        "     \"q1_parallel_speedup_vs_serial_pipeline\": %.2f,\n"
        "     \"q1_hashaggregate_parallel_speedup\": %.2f,\n"
        "     \"q3_parallel_speedup_vs_serial_pipeline\": %.2f,\n"
        "     \"q4_seed_sec\": %.6f, \"q4_off_sec\": %.6f, "
        "\"q4_on_sec\": %.6f, \"q4_rows\": %zu,\n"
        "     \"q4_reorder_speedup\": %.2f, "
        "\"q4_joins_reordered\": %zu,\n"
        "     \"results_match\": %s}%s\n",
        r.q1_parallel_speedup, r.q1_agg_speedup, r.q3_parallel_speedup,
        r.q4_seed.seconds, r.q4_off.seconds, r.q4_on.seconds, r.q4_on.rows,
        r.q4_reorder_speedup, r.q4_joins_reordered,
        r.match ? "true" : "false", i + 1 < reports.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  if (!all_match) {
    std::printf("FAIL: seed and pipeline disagree\n");
    return 1;
  }
  if (!smoke && !pipeline_wins_at_top) {
    std::printf("FAIL: pipeline slower than seed at the top scale\n");
    return 1;
  }
  // Q3 speedup gate: on hosts with >= 4 cores the partitioned join +
  // sharded sort must beat the serial pipeline at the top scale. (On
  // fewer cores parallel ~= serial is expected; parity still gates.)
  if (!smoke && std::thread::hardware_concurrency() >= 4 &&
      reports.back().q3_parallel_speedup < 1.1) {
    std::printf("FAIL: Q3 join+sort parallel speedup %.2fx < 1.1x on a "
                ">=4-core host\n",
                reports.back().q3_parallel_speedup);
    return 1;
  }
  // Q4 reorder gate: the cost-based join order must beat the
  // worst-case statement order at the top scale. The win is plan
  // shape, not threads, so it holds regardless of core count.
  if (!smoke && reports.back().q4_reorder_speedup < 1.1) {
    std::printf("FAIL: Q4 join reorder speedup %.2fx < 1.1x\n",
                reports.back().q4_reorder_speedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace explainit

int main(int argc, char** argv) { return explainit::Main(argc, argv); }
