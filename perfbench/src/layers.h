// Layer timing from outside the engine: a timing store provider for the
// sql→tsdb boundary, and a replay of the EXPLAIN statement through its
// public stages (ParseStatement → PlanSelect → ExecuteTree per sub-select
// → NormalizeToFeatureFamilyTable → FamiliesFromTable / MergeFamilies /
// BuildPseudocause → AlignFamilies → Engine::Rank), one span per stage.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/engine.h"
#include "trace.h"

namespace perfbench {

/// Where the timing provider hangs its tsdb.scan spans. The replaying
/// thread sets `parent`/`request` to the stage span it has open; scans
/// made by other callers (server sessions) record under whatever is set,
/// or as roots when nothing is.
struct ScanProbe {
  Tracer* tracer = nullptr;
  std::atomic<uint64_t> parent{0};
  std::atomic<uint64_t> request{0};
};

/// Registers `table_name` exactly as Engine::RegisterStoreTable does (same
/// HintedProviderOptions: live num_points estimate, exact rollups), with
/// every SeriesStore::ScanToTable call recorded as a tsdb.scan span.
void RegisterTimedStoreTable(explainit::core::Engine* engine,
                             const std::string& table_name,
                             const explainit::TimeRange& range,
                             ScanProbe* probe);

/// Counters of one replayed statement, read from the executor after each
/// sub-select.
struct ExplainCounters {
  size_t rows_scanned = 0;
  size_t agg_rows = 0;       // rows out of HashAggregate operators
  double agg_incl_s = 0.0;   // HashAggregate wall, inclusive of children
  size_t candidates = 0;     // families handed to Engine::Rank
  std::vector<std::string> plan_texts;  // one per sub-select
};

/// Replays one EXPLAIN statement through the engine's executor, recording
/// a span per stage under `root`. Produces the same Score Table as
/// Engine::Query on the same statement.
explainit::Result<explainit::core::ScoreTable> ReplayExplain(
    explainit::core::Engine* engine, const std::string& sql, Tracer* tracer,
    ScanProbe* probe, uint64_t root, uint64_t request,
    ExplainCounters* counters);

/// The logical plan text of each sub-select of an EXPLAIN, planned and
/// run through the engine's executor with no tracing.
explainit::Result<std::vector<std::string>> SubSelectPlanTexts(
    explainit::core::Engine* engine, const std::string& sql);

}  // namespace perfbench
