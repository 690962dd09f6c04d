#include "selftest.h"

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "core/engine.h"
#include "monitor/history.h"
#include "server/protocol.h"
#include "workloads.h"
#include "world.h"

namespace perfbench {

using namespace explainit;

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

/// A copy of `t` with cell (row, col) replaced.
table::Table WithCell(const table::Table& t, size_t row, size_t col,
                      table::Value v) {
  table::Table out(t.schema());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    std::vector<table::Value> cells = t.Row(r);
    if (r == row) cells[col] = v;
    out.AppendRow(std::move(cells));
  }
  return out;
}

/// Each check accepts a real output and rejects it perturbed: one Score
/// Table row swapped, one reply byte flipped, one history score changed.
void CheckPerturbations() {
  WorldSpec spec;
  spec.datanodes = 2;
  spec.history_minutes = 120;
  spec.seed = 7;
  auto world = BuildWorld(spec);
  Expect(world.ok(), "smoke world builds");
  if (!world.ok()) return;
  core::Engine engine(world->store);
  engine.RegisterStoreTable("tsdb", world->history);
  auto r = engine.Query(
      "EXPLAIN (SELECT timestamp, AVG(value) AS y FROM tsdb "
      "WHERE metric_name = 'overall_runtime' GROUP BY timestamp) "
      "USING (SELECT timestamp, metric_name, AVG(value) AS v FROM tsdb "
      "WHERE metric_name != 'overall_runtime' "
      "GROUP BY timestamp, metric_name) SCORE BY 'L2' TOP 10");
  Expect(r.ok() && r->score_table.has_value() &&
             r->score_table->rows.size() >= 2,
         "reference EXPLAIN ranks at least two families");
  if (!r.ok() || !r->score_table.has_value() ||
      r->score_table->rows.size() < 2) {
    return;
  }
  const core::ScoreTable& st = *r->score_table;

  // Ranking parity.
  std::string why;
  Expect(SameRanking(st, st, &why), "SameRanking accepts an equal table");
  core::ScoreTable swapped = st;
  std::swap(swapped.rows[0], swapped.rows[1]);
  const bool swapped_rejected = !SameRanking(st, swapped, &why);
  Expect(swapped_rejected,
         "SameRanking rejects two swapped rows (" + why + ")");

  // Reply byte parity: flip the last byte of the encoded reply (the last
  // character of the last row's sparkline) and decode it as a client
  // would.
  const std::vector<uint8_t> want = CanonicalTableBytes(r->table);
  Expect(ReplyMatches(r->table, want), "ReplyMatches accepts the reference");
  server::ByteWriter w;
  server::EncodeTable(r->table, &w);
  std::vector<uint8_t> bytes = w.Take();
  bytes.back() ^= 0x01;
  server::ByteReader reader(bytes.data(), bytes.size());
  auto flipped = server::DecodeTable(&reader);
  Expect(!flipped.ok() || !ReplyMatches(*flipped, want),
         "ReplyMatches rejects a reply with one byte flipped");

  // Standing-query history against a one-shot Score Table.
  monitor::ScoreHistory history;
  history.Append(0, world->history.end - 1, st);
  const table::Table snapshot = history.Snapshot();
  const table::Table oneshot = st.ToTable();
  Expect(CompareHistoryRun(snapshot, 0, oneshot) == 0,
         "CompareHistoryRun accepts the run it was appended from");
  const size_t score_col = 4;
  const table::Table changed = WithCell(
      snapshot, 0, score_col,
      table::Value::Double(snapshot.At(0, score_col).AsDouble() * (1 + 1e-12)));
  Expect(CompareHistoryRun(changed, 0, oneshot) > 0,
         "CompareHistoryRun rejects one changed history score");
}

/// Every workload completes a smoke-size run, untraced and traced, with
/// its output checks passing.
void SmokeWorkloads() {
  using Runner = RunResult (*)(const RunInfo&, Tracer*);
  const std::pair<const char*, Runner> workloads[] = {
      {"explain_wide", RunExplainWide},
      {"session_drilldown", RunSessionDrilldown},
      {"serve_ingest", RunServeIngest},
  };
  for (const auto& [name, run] : workloads) {
    for (bool trace : {false, true}) {
      RunInfo info;
      info.workload = name;
      info.seed = 3;
      info.seconds = 1.0;
      info.trace = trace;
      info.smoke = true;
      Tracer tracer;
      const RunResult result = run(info, &tracer);
      std::string detail;
      for (const std::string& f : result.check_failures) detail += "; " + f;
      Expect(result.correct && result.attempted > 0 && result.failed == 0 &&
                 !result.metrics.empty(),
             std::string("smoke ") + name + (trace ? " traced" : "") + ": " +
                 std::to_string(result.attempted) + " operations" + detail);
    }
  }
}

}  // namespace

int RunSelfTest() {
  CheckPerturbations();
  SmokeWorkloads();
  std::printf("self-test: %d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
