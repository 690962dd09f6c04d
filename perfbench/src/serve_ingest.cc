// serve_ingest: an open loop against an in-process server::Server with a
// MonitorService attached, over a store holding sealed history while a
// writer replays the trace's continuation. Load comes from four threads:
//   - 1 writer: each tick writes every series at the next data minute
//     through SeriesStore::Write, at a fixed tick rate;
//   - 2 client connections, each on a fixed-rate schedule of dashboard
//     SELECTs (hour/minute grid aggregates over history, served from
//     rollup tiers, plus a per-host raw lookup) and every tenth request a
//     bounded-history EXPLAIN;
//   - 1 slider: MonitorService::RunOnce on a standing EXPLAIN ... EVERY
//     10m each time the writer crosses a 10-minute stride of data time.
// Every operation is timed from its due time. The offered request rate
// steps through a fixed ladder; latency metrics come from its nominal
// (first) rung.
#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "core/engine.h"
#include "layers.h"
#include "monitor/monitor.h"
#include "server/client.h"
#include "server/server.h"
#include "sql/executor.h"
#include "world.h"
#include "workloads.h"

namespace perfbench {

using namespace explainit;

namespace {

constexpr double kTickHz = 20.0;          // data minutes written per second
constexpr int64_t kStrideSeconds = 600;   // EVERY 10m
constexpr int64_t kStrideTicks = kStrideSeconds / kSecondsPerMinute;
constexpr int64_t kWindowSeconds = 3600;  // the standing EXPLAIN's window
constexpr double kNominalRate = 10.0;     // requests/s per connection
constexpr double kLadder[] = {1.0, 2.0, 4.0};  // × nominal, ascending
constexpr size_t kRungs = sizeof(kLadder) / sizeof(kLadder[0]);
constexpr double kNominalShare = 0.6;  // of the run, at the nominal rung
/// select_tail_ms limit a rung must meet to count toward
/// max_qps_within_slo.
constexpr double kSloSelectTailMs = 100.0;
constexpr size_t kExplainEvery = 10;  // every 10th request is an EXPLAIN
const char* kMonitorName = "serve_hist";

WorldSpec Spec(const RunInfo& info) {
  WorldSpec spec;
  spec.datanodes = info.smoke ? 2 : 16;
  spec.history_minutes = info.smoke ? 240 : 1440;
  // Enough continuation for the whole run at the tick rate, plus slack.
  spec.continuation_minutes =
      static_cast<size_t>(kTickHz * (info.seconds + 5.0)) + 1;
  // Four-hour sealed segments: the history seals into six per series,
  // and the writer's continuation seals two more, which triggers
  // compaction during the run.
  spec.store_options.seal_max_points = 240;
  spec.store_options.compact_min_segments = 8;
  spec.seed = info.seed;
  return spec;
}

std::string Bounds(int64_t lo, int64_t hi) {
  return "timestamp >= " + std::to_string(lo) + " AND timestamp < " +
         std::to_string(hi);
}

/// Dashboard SELECTs over the sealed history [0, h).
std::vector<std::string> DashboardSelects(int64_t h) {
  const std::string all = Bounds(0, h);
  return {
      "SELECT DATE_TRUNC('hour', timestamp) AS h, MAX(value) AS peak "
      "FROM tsdb WHERE metric_name = 'overall_runtime' AND " + all +
          " GROUP BY DATE_TRUNC('hour', timestamp) ORDER BY h",
      "SELECT DATE_TRUNC('hour', timestamp) AS h, tag['host'] AS host, "
      "MAX(value) AS peak FROM tsdb WHERE metric_name = 'tcp_retransmits' "
      "AND " + all +
          " GROUP BY DATE_TRUNC('hour', timestamp), tag['host'] "
          "ORDER BY h, host",
      "SELECT DATE_TRUNC('minute', timestamp) AS m, MIN(value) AS lo "
      "FROM tsdb WHERE metric_name = 'network_latency_ms' AND " +
          Bounds(h - 6 * 3600, h) +
          " GROUP BY DATE_TRUNC('minute', timestamp) ORDER BY m",
      "SELECT DATE_TRUNC('hour', timestamp) AS h, COUNT(*) AS n FROM tsdb "
      "WHERE metric_name = 'disk_utilization' AND " + all +
          " GROUP BY DATE_TRUNC('hour', timestamp) ORDER BY h",
      "SELECT timestamp, value FROM tsdb WHERE metric_name = "
      "'cpu_utilization' AND tag['host'] = 'datanode-1' AND " +
          Bounds(h - 3600, h) + " ORDER BY timestamp",
  };
}

/// The EXPLAIN a client sends: explicit data bounds over the last hour
/// of history.
std::string ClientExplain(int64_t h) {
  const std::string b = Bounds(h - 3600, h);
  return "EXPLAIN (SELECT timestamp, AVG(value) AS y FROM tsdb "
         "WHERE metric_name = 'overall_runtime' AND " + b +
         " GROUP BY timestamp) "
         "USING (SELECT timestamp, metric_name, AVG(value) AS v FROM tsdb "
         "WHERE metric_name != 'overall_runtime' AND " + b +
         " GROUP BY timestamp, metric_name) SCORE BY 'L2' TOP 10";
}

/// The standing EXPLAIN; run 0 explains the last hour of history.
std::string StandingSql(int64_t h) {
  return "EXPLAIN (SELECT timestamp, AVG(value) AS y FROM tsdb "
         "WHERE metric_name = 'overall_runtime' GROUP BY timestamp) "
         "USING (SELECT timestamp, metric_name, AVG(value) AS v FROM tsdb "
         "WHERE metric_name != 'overall_runtime' "
         "GROUP BY timestamp, metric_name) SCORE BY 'L2' TOP 10 BETWEEN " +
         std::to_string(h - kWindowSeconds) + " AND " + std::to_string(h - 1) +
         " EVERY 10m INTO " + kMonitorName;
}

/// The one-shot equivalent of a slide over [w0, w1]: explicit data bounds
/// in every WHERE plus the slid BETWEEN.
std::string OneShotSql(int64_t w0, int64_t w1) {
  const std::string lo = std::to_string(w0);
  const std::string hi = std::to_string(w1);
  return "EXPLAIN (SELECT timestamp, AVG(value) AS y FROM tsdb "
         "WHERE metric_name = 'overall_runtime' AND timestamp >= " + lo +
         " AND timestamp <= " + hi +
         " GROUP BY timestamp) "
         "USING (SELECT timestamp, metric_name, AVG(value) AS v FROM tsdb "
         "WHERE metric_name != 'overall_runtime' AND timestamp >= " + lo +
         " AND timestamp <= " + hi +
         " GROUP BY timestamp, metric_name) "
         "SCORE BY 'L2' TOP 10 BETWEEN " + lo + " AND " + hi;
}

struct Setup {
  World world;
  int64_t h = 0;  // history end, seconds
  std::unique_ptr<core::Engine> engine;
  std::unique_ptr<monitor::MonitorService> monitors;
  std::unique_ptr<server::Server> server;
  /// Request texts (dashboard SELECTs, then the client EXPLAIN) and their
  /// canonical reply bytes from a direct Engine::Query.
  std::vector<std::string> requests;
  std::vector<std::vector<uint8_t>> want;
  double seconds = 0.0;
};

/// World build, ingest, Flush, engine/monitor/server start, reference
/// replies, and warm-up (run 0 of the standing query plus one round of
/// every request over the wire).
Result<std::unique_ptr<Setup>> SetUp(const WorldSpec& spec, Tracer* tracer,
                                     ScanProbe* probe) {
  const double t0 = NowSeconds();
  auto s = std::make_unique<Setup>();
  EXPLAINIT_ASSIGN_OR_RETURN(s->world, BuildWorld(spec));
  s->h = s->world.history.end;
  core::EngineOptions options;
  options.sql_parallelism = 1;  // as each server session executes
  s->engine = std::make_unique<core::Engine>(s->world.store, options);
  EXPLAINIT_RETURN_IF_ERROR(s->engine->FlushStore());
  const TimeRange all{0, s->h + static_cast<int64_t>(
                                    spec.continuation_minutes) *
                                    kSecondsPerMinute};
  if (tracer != nullptr) {
    RegisterTimedStoreTable(s->engine.get(), "tsdb", all, probe);
  } else {
    s->engine->RegisterStoreTable("tsdb", all);
  }

  s->requests = DashboardSelects(s->h);
  s->requests.push_back(ClientExplain(s->h));
  for (const std::string& sql : s->requests) {
    EXPLAINIT_ASSIGN_OR_RETURN(core::QueryResult r, s->engine->Query(sql));
    if (r.table.num_rows() == 0) {
      return Status::Internal("reference request returned no rows: " + sql);
    }
    s->want.push_back(CanonicalTableBytes(r.table));
  }

  s->monitors = std::make_unique<monitor::MonitorService>(s->engine.get());
  sql::Executor executor(&s->engine->catalog(), &s->engine->functions(), 1);
  EXPLAINIT_RETURN_IF_ERROR(
      s->monitors->Query(executor, StandingSql(s->h)).status());
  EXPLAINIT_RETURN_IF_ERROR(s->monitors->RunOnce(kMonitorName));

  server::ServerOptions server_options;
  server_options.sql_parallelism = 1;
  server_options.monitors = s->monitors.get();
  s->server = std::make_unique<server::Server>(s->engine.get(),
                                               server_options);
  EXPLAINIT_RETURN_IF_ERROR(s->server->Start());
  EXPLAINIT_ASSIGN_OR_RETURN(
      server::Client client,
      server::Client::Connect("127.0.0.1", s->server->port()));
  for (size_t i = 0; i < s->requests.size(); ++i) {
    EXPLAINIT_ASSIGN_OR_RETURN(server::QueryReply reply,
                               client.Query(s->requests[i]));
    if (!ReplyMatches(reply.table, s->want[i])) {
      return Status::Internal("warm-up reply differs from Engine::Query: " +
                              s->requests[i]);
    }
  }
  s->seconds = NowSeconds() - t0;
  return s;
}

/// One client request's outcome.
struct Sample {
  size_t rung = 0;
  size_t kind = 0;  // index into Setup::requests
  bool explain = false;
  bool ok = false;
  double latency_s = 0;  // due time → reply decoded
  double late_s = 0;     // due time → request sent
  double rtt_s = 0;      // request sent → reply decoded
  double exec_s = 0;     // QueryReply::latency_us
  double send_at = 0;    // seconds since the rung began
};

/// Everything the load threads record.
struct Load {
  std::vector<std::vector<Sample>> client_samples;  // per connection
  std::vector<double> tick_latency_s;  // tick due → last point written
  std::vector<double> tick_write_s;    // time inside Write calls
  std::vector<double> slide_s;         // stride crossed → RunOnce returns
  std::vector<double> run_once_s;      // RunOnce wall
  size_t write_failures = 0;
  size_t slide_failures = 0;
  size_t mismatches = 0;
  std::string first_mismatch;
};

/// A schedule of rungs: each runs `rates[i]` requests/s per connection
/// for `durations[i]` seconds.
struct Schedule {
  std::vector<double> rates;
  std::vector<double> durations;
  double total() const {
    double t = 0;
    for (double d : durations) t += d;
    return t;
  }
};

/// Runs the writer, the slider and the client connections for the whole
/// schedule; spans go to `tracer` while it is active.
Load RunLoad(Setup* s, const Schedule& schedule, size_t connections,
             Tracer* tracer, int64_t first_tick) {
  Load load;
  load.client_samples.resize(connections);
  const double start = NowSeconds() + 0.05;
  const double end = start + schedule.total();
  tsdb::SeriesStore& store = *s->world.store;

  std::mutex mu;
  std::condition_variable cv;
  std::vector<double> stride_at;  // guarded by mu; wall time per stride
  bool writer_done = false;       // guarded by mu

  std::thread writer([&] {
    const size_t max_ticks = s->world.continuation.rows();
    for (int64_t k = first_tick;; ++k) {
      const double due = start + static_cast<double>(k - first_tick) / kTickHz;
      if (due >= end || static_cast<size_t>(k) >= max_ticks) break;
      SleepUntil(due);
      const EpochSeconds ts = s->h + k * kSecondsPerMinute;
      const uint64_t request = tracer->NewRequest();
      const double w0 = NowSeconds();
      {
        ScopedSpan tick(tracer, "op.write_tick", 0, request);
        ScopedSpan span(tracer, "tsdb.write", tick.id(), request);
        for (size_t i = 0; i < s->world.series.size(); ++i) {
          const SeriesKey& key = s->world.series[i];
          if (!store.Write(key.metric_name, key.tags, ts,
                           s->world.continuation(k, i))
                   .ok()) {
            ++load.write_failures;
          }
        }
      }
      const double w1 = NowSeconds();
      load.tick_latency_s.push_back(w1 - due);
      load.tick_write_s.push_back(w1 - w0);
      if ((k + 1) % kStrideTicks == 0) {
        std::lock_guard<std::mutex> lock(mu);
        stride_at.push_back(w1);
        cv.notify_all();
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    writer_done = true;
    cv.notify_all();
  });

  // One RunOnce per stride crossed, in order; strides still pending when
  // the writer stops are slid before the load ends.
  std::thread slider([&] {
    for (size_t next = 0;; ++next) {
      double crossed = 0;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return writer_done || stride_at.size() > next; });
        if (stride_at.size() <= next) return;
        crossed = stride_at[next];
      }
      const uint64_t request = tracer->NewRequest();
      const double r0 = NowSeconds();
      Status st;
      {
        ScopedSpan slide(tracer, "op.slide", 0, request);
        ScopedSpan span(tracer, "monitor.run_once", slide.id(), request);
        st = s->monitors->RunOnce(kMonitorName);
      }
      const double r1 = NowSeconds();
      if (!st.ok()) {
        ++load.slide_failures;
      } else {
        load.slide_s.push_back(r1 - crossed);
        load.run_once_s.push_back(r1 - r0);
      }
    }
  });

  std::vector<std::thread> clients;
  std::mutex mismatch_mu;
  for (size_t c = 0; c < connections; ++c) {
    clients.emplace_back([&, c] {
      std::vector<Sample>& out = load.client_samples[c];
      auto client = server::Client::Connect("127.0.0.1", s->server->port());
      size_t j = 0;  // request index on this connection
      double rung_start = start;
      for (size_t r = 0; r < schedule.rates.size(); ++r) {
        const double rate = schedule.rates[r];
        const double rung_end = rung_start + schedule.durations[r];
        // Connections interleave: client c is offset by c/connections of
        // an interval.
        const double offset =
            static_cast<double>(c) / static_cast<double>(connections) / rate;
        for (size_t i = 0;; ++i) {
          const double due =
              rung_start + offset + static_cast<double>(i) / rate;
          if (due >= rung_end) break;
          const bool explain = j % kExplainEvery == kExplainEvery - 1;
          const size_t which =
              explain ? s->requests.size() - 1
                      : (j - j / kExplainEvery) % (s->requests.size() - 1);
          ++j;
          SleepUntil(due);
          Sample sample;
          sample.rung = r;
          sample.kind = which;
          sample.explain = explain;
          const double sent = NowSeconds();
          sample.late_s = sent - due;
          sample.send_at = sent - rung_start;
          if (!client.ok()) {
            out.push_back(sample);
            continue;
          }
          const uint64_t request = tracer->NewRequest();
          Result<server::QueryReply> reply = Status::Internal("not sent");
          {
            ScopedSpan span(tracer, explain ? "op.explain" : "op.select", 0,
                            request);
            reply = client->Query(s->requests[which]);
          }
          const double done = NowSeconds();
          sample.latency_s = done - due;
          sample.rtt_s = done - sent;
          if (reply.ok()) {
            sample.ok = true;
            sample.exec_s = 1e-6 * static_cast<double>(reply->latency_us);
            if (!ReplyMatches(reply->table, s->want[which])) {
              std::lock_guard<std::mutex> lock(mismatch_mu);
              if (load.mismatches++ == 0) {
                load.first_mismatch = s->requests[which];
              }
            }
          }
          out.push_back(sample);
        }
        rung_start = rung_end;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  writer.join();
  slider.join();
  return load;
}

/// Latency samples of one kind in one rung.
std::vector<double> Pick(const Load& load, size_t rung, bool explain,
                         double Sample::*field) {
  std::vector<double> out;
  for (const std::vector<Sample>& samples : load.client_samples) {
    for (const Sample& x : samples) {
      if (x.rung == rung && x.explain == explain && x.ok) {
        out.push_back(x.*field);
      }
    }
  }
  return out;
}

/// The means over the dashboard SELECT kinds of each kind's median and
/// tail latency in one rung. The kinds differ in cost, so the median and
/// the tail over all SELECTs land on one kind or the next from run to
/// run; these weigh every kind alike. The tail is that of each kind's
/// own samples.
struct KindSummary {
  double median_s = 0;
  double tail_s = 0;
  std::string tail_note;
};

KindSummary SummarizeKinds(const Load& load, size_t rung, size_t kinds) {
  std::vector<std::vector<double>> by_kind(kinds);
  for (const std::vector<Sample>& samples : load.client_samples) {
    for (const Sample& x : samples) {
      if (x.rung == rung && !x.explain && x.ok) {
        by_kind[x.kind].push_back(x.latency_s);
      }
    }
  }
  std::vector<double> medians;
  std::vector<double> tails;
  Tail smallest;  // the kind with the fewest samples sets the note
  smallest.samples = SIZE_MAX;
  for (const std::vector<double>& v : by_kind) {
    medians.push_back(Median(v));
    const Tail t = TailOf(v);
    tails.push_back(t.value);
    if (t.samples < smallest.samples) smallest = t;
  }
  char note[128];
  std::snprintf(note, sizeof(note),
                "mean over %zu SELECT kinds of each kind's tail, p%.1f of "
                ">= %zu samples",
                kinds, smallest.percentile, smallest.samples);
  return KindSummary{Mean(medians), Mean(tails), note};
}

/// A rung meets the SLO when its SELECT tail is within kSloSelectTailMs
/// (failed requests count as misses) and the generator's lateness is not
/// growing (last fifth of the rung no later than the first fifth + 5 ms).
bool RungMeetsSlo(const Load& load, size_t rung, double duration) {
  std::vector<double> lat;
  double early = 0, late = 0;
  size_t n_early = 0, n_late = 0;
  for (const std::vector<Sample>& samples : load.client_samples) {
    for (const Sample& x : samples) {
      if (x.rung != rung) continue;
      if (!x.explain) lat.push_back(x.ok ? x.latency_s : 1e9);
      if (x.send_at < duration / 5) {
        early += x.late_s;
        ++n_early;
      } else if (x.send_at > duration * 4 / 5) {
        late += x.late_s;
        ++n_late;
      }
    }
  }
  if (lat.empty()) return false;
  const bool growing = n_early > 0 && n_late > 0 &&
                       late / static_cast<double>(n_late) >
                           early / static_cast<double>(n_early) + 0.005;
  return 1e3 * TailOf(lat).value <= kSloSelectTailMs && !growing;
}

/// Folds the load's operation counts and failures into the result.
void CountOperations(const Load& load, RunResult* result) {
  for (const std::vector<Sample>& samples : load.client_samples) {
    for (const Sample& x : samples) {
      ++result->attempted;
      if (!x.ok) ++result->failed;
    }
  }
  result->attempted += load.tick_latency_s.size() +
                       load.slide_s.size() + load.slide_failures;
  result->failed += load.slide_failures + (load.write_failures > 0 ? 1 : 0);
  if (load.mismatches > 0) {
    result->Fail(std::to_string(load.mismatches) +
                 " replies differ from Engine::Query, first: " +
                 load.first_mismatch);
  }
}

/// The last slide's history rows must equal a one-shot EXPLAIN with
/// explicit bounds over the same window.
void CheckLastSlide(Setup* s, RunResult* result) {
  auto statuses = s->monitors->Statuses();
  auto history = s->monitors->History(kMonitorName);
  if (statuses.empty() || !history.ok()) {
    result->Fail("standing EXPLAIN has no status or history");
    return;
  }
  const table::Table snapshot = (*history)->Snapshot();
  int64_t last = -1;
  for (size_t r = 0; r < snapshot.num_rows(); ++r) {
    last = std::max(last, snapshot.At(r, 0).AsInt());
  }
  const int64_t w0 = s->h - kWindowSeconds + last * kStrideSeconds;
  const int64_t w1 = s->h - 1 + last * kStrideSeconds;
  auto oneshot = s->engine->Query(OneShotSql(w0, w1));
  if (!oneshot.ok()) {
    result->Fail("one-shot EXPLAIN failed: " + oneshot.status().ToString());
    return;
  }
  const size_t bad = CompareHistoryRun(snapshot, last, oneshot->table);
  if (bad > 0) {
    result->Fail("slide " + std::to_string(last) + ": " +
                 std::to_string(bad) +
                 " history rows differ from the one-shot EXPLAIN");
  }
}

size_t Connections() {
  // Writer + slider + one thread per connection stay within nproc.
  const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  return std::clamp<size_t>(nproc > 2 ? nproc - 2 : 1, 1, 2);
}

}  // namespace

RunResult RunServeIngest(const RunInfo& info, Tracer* tracer) {
  RunResult result;
  const WorldSpec spec = Spec(info);
  ScanProbe probe;
  probe.tracer = tracer;
  std::vector<double> setup_seconds;
  std::unique_ptr<Setup> setup = RepeatSetUp<Setup>(
      info,
      [&] { return SetUp(spec, info.trace ? tracer : nullptr, &probe); },
      &setup_seconds, &result);
  if (setup == nullptr) return result;
  const size_t connections = Connections();

  if (!info.trace) {
    // kNominalShare of the run at the nominal rate, the rest split over
    // the higher rungs.
    Schedule schedule;
    for (size_t r = 0; r < kRungs; ++r) {
      schedule.rates.push_back(kNominalRate * kLadder[r]);
      schedule.durations.push_back(
          r == 0 ? info.seconds * kNominalShare
                 : info.seconds * (1 - kNominalShare) /
                       static_cast<double>(kRungs - 1));
    }
    const Load load = RunLoad(setup.get(), schedule, connections, tracer, 0);
    CountOperations(load, &result);
    CheckLastSlide(setup.get(), &result);

    const std::vector<double> select =
        Pick(load, 0, false, &Sample::latency_s);
    const std::vector<double> explain =
        Pick(load, 0, true, &Sample::latency_s);
    const size_t kinds = setup->requests.size() - 1;
    const KindSummary by_kind = SummarizeKinds(load, 0, kinds);
    AddEndToEnd(&result, setup_seconds, by_kind.median_s,
                "mean over " + std::to_string(kinds) +
                    " SELECT kinds of each kind's median, " +
                    std::to_string(select.size()) + " nominal-rung SELECTs",
                by_kind.tail_s, by_kind.tail_note);
    result.AddDetail("select_p50_ms", 1e3 * Median(select), "ms");
    result.AddTail(&result.details, "select_tail_ms", TailOf(select), 1e3,
                   "ms");
    result.AddDetail("explain_p50_s", Median(explain), "s",
                     std::to_string(explain.size()) + " nominal-rung EXPLAINs");
    result.AddTail(&result.details, "explain_tail_s", TailOf(explain), 1.0,
                   "s");
    result.AddTail(&result.details, "write_tick_tail_ms",
                   TailOf(load.tick_latency_s), 1e3, "ms");
    result.AddDetail("slide_p50_s", Median(load.slide_s), "s",
                     std::to_string(load.slide_s.size()) + " slides");
    double max_qps = 0;
    for (size_t r = 0; r < kRungs; ++r) {
      if (!RungMeetsSlo(load, r, schedule.durations[r])) break;
      max_qps = schedule.rates[r] * static_cast<double>(connections);
    }
    char slo[96];
    std::snprintf(slo, sizeof(slo),
                  "SLO select tail <= %.0f ms, ladder x1/x2/x4",
                  kSloSelectTailMs);
    result.AddDetail("max_qps_within_slo", max_qps, "req/s", slo);
    for (size_t r = 0; r < kRungs; ++r) {
      const std::vector<double> lat = Pick(load, r, false, &Sample::latency_s);
      result.AddTail(&result.details,
                     "rung" + std::to_string(r) + "_select_tail_ms",
                     TailOf(lat), 1e3, "ms");
    }
    return result;
  }

  // Traced run: the nominal rate untraced for half the run, then traced
  // for the other half; the writer and slider run throughout.
  Schedule half;
  half.rates = {kNominalRate};
  half.durations = {info.seconds / 2};
  const Load untraced = RunLoad(setup.get(), half, connections, tracer, 0);
  CountOperations(untraced, &result);

  tsdb::SeriesStore& store = *setup->world.store;
  const tsdb::ScanStats scans0 = store.scan_stats();
  const tsdb::StorageStats storage0 = store.storage_stats();
  const server::ServerStats server0 = setup->server->stats();
  auto monitor0 = setup->monitors->ScanStats(kMonitorName);
  const int64_t ticks_done =
      static_cast<int64_t>(untraced.tick_latency_s.size());
  tracer->set_active(true);
  const Load traced =
      RunLoad(setup.get(), half, connections, tracer, ticks_done);
  tracer->set_active(false);
  CountOperations(traced, &result);
  CheckLastSlide(setup.get(), &result);

  const std::vector<double> exec = Pick(traced, 0, false, &Sample::exec_s);
  const std::vector<double> rtt = Pick(traced, 0, false, &Sample::rtt_s);
  std::vector<double> late;
  size_t requests = 0;
  for (const std::vector<Sample>& samples : traced.client_samples) {
    requests += samples.size();
    for (const Sample& x : samples) late.push_back(x.late_s);
  }
  if (requests == 0 || traced.tick_write_s.empty()) {
    result.Fail("the traced half completed no request or write tick");
    return result;
  }
  const double n = static_cast<double>(requests);
  const TraceReport report = Analyze(tracer->Snapshot());
  LayerMetrics lm;
  lm.SetStore(store, scans0, n);
  lm.tsdb_scan_s = report.Incl("tsdb.scan") / n;
  lm.tsdb_write_s = Mean(traced.tick_write_s);
  const tsdb::StorageStats storage1 = store.storage_stats();
  lm.tsdb_seals = static_cast<double>(storage1.seals - storage0.seals);
  lm.tsdb_compactions =
      static_cast<double>(storage1.compactions - storage0.compactions);
  lm.monitor_run_once_s = Mean(traced.run_once_s);
  auto monitor1 = setup->monitors->ScanStats(kMonitorName);
  if (monitor0.ok() && monitor1.ok()) {
    lm.monitor_rows_reused_ratio =
        HitRatio(monitor1->rows_reused - monitor0->rows_reused,
                 monitor1->rows_delta - monitor0->rows_delta);
    lm.monitor_delta_scans =
        static_cast<double>(monitor1->delta_scans - monitor0->delta_scans);
  }
  lm.server_exec_ms = 1e3 * Mean(exec);
  lm.server_overhead_ms = 1e3 * (Mean(rtt) - Mean(exec));
  const server::ServerStats server1 = setup->server->stats();
  const uint64_t busy = server1.queries_busy - server0.queries_busy;
  const uint64_t answered =
      (server1.queries_ok + server1.queries_error) -
      (server0.queries_ok + server0.queries_error);
  lm.server_busy_ratio = HitRatio(busy, answered);
  lm.server_generator_late_ms = 1e3 * TailOf(late).value;
  lm.self_tsdb_s = report.LayerSelf("tsdb") / n;
  lm.trace_coverage = report.coverage();
  const std::vector<double> select_untraced =
      Pick(untraced, 0, false, &Sample::latency_s);
  const std::vector<double> select_traced =
      Pick(traced, 0, false, &Sample::latency_s);
  lm.trace_overhead_ms =
      1e3 * (Median(select_traced) - Median(select_untraced));
  lm.Emit(&result);
  result.layer_table = report.Render("serve_ingest, per client request", n);
  result.AddDetail("untraced_select_p50_ms", 1e3 * Median(select_untraced),
                   "ms", std::to_string(select_untraced.size()) + " SELECTs");
  result.AddDetail("traced_select_p50_ms", 1e3 * Median(select_traced), "ms",
                   std::to_string(select_traced.size()) + " SELECTs");
  return result;
}

}  // namespace perfbench
