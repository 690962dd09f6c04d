// The benchmark's worlds: a sim::DatacentreModel with the §5.1 packet-drop
// intervention on every tcp_retransmits series, simulated from the run's
// seed and ingested through SeriesStore::Write.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/time_util.h"
#include "la/matrix.h"
#include "tsdb/store.h"

namespace perfbench {

struct WorldSpec {
  size_t datanodes = 16;
  size_t history_minutes = 720;
  /// Minutes simulated past the history and kept in memory for a live
  /// writer to replay (not written to the store).
  size_t continuation_minutes = 0;
  uint64_t seed = 1;
  explainit::tsdb::StoreOptions store_options;
};

struct SeriesKey {
  std::string metric_name;
  explainit::tsdb::TagSet tags;
};

struct World {
  std::shared_ptr<explainit::tsdb::SeriesStore> store;
  /// Every monitored series, in simulation-node order.
  std::vector<SeriesKey> series;
  /// continuation(t, i): series i at minute history_minutes + t.
  explainit::la::Matrix continuation;
  /// [0, history_minutes * 60): the data in the store.
  explainit::TimeRange history;
};

/// Simulates history + continuation from spec.seed and writes the history
/// series-major through SeriesStore::Write (the store is not flushed).
explainit::Result<World> BuildWorld(const WorldSpec& spec);

}  // namespace perfbench
