// SeriesStore: the embedded time series database that stands in for
// OpenTSDB/Druid as ExplainIt!'s data source — a tiered, concurrency-safe
// engine that ingests while EXPLAIN queries run.
//
// Each series is split into a small *mutable head* (an in-progress
// Gorilla encoder behind a lock stripe) and a list of *immutable sealed
// segments* (reference-counted; built with downsampled rollup tiers,
// raw -> 1m -> 1h, at seal time). A background sealer/compactor on the
// store's worker pool seals heads that exceed a size threshold and
// merges segment runs. Scans capture a per-series snapshot (shared_ptr
// segments + a copy of the bounded head block) under the stripe lock and
// decode entirely lock-free, so readers never block writers and every
// scan sees a prefix-consistent view of each series.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/time_util.h"
#include "exec/worker_pool.h"
#include "table/table.h"
#include "tsdb/compression.h"
#include "tsdb/rollup.h"
#include "tsdb/segment.h"
#include "tsdb/tags.h"

namespace explainit::tsdb {

/// Identity of one univariate series.
struct SeriesMeta {
  std::string metric_name;
  TagSet tags;

  /// "metric{k=v,...}" — the display form used for feature names.
  std::string ToString() const;
};

/// Decoded points for one series in a scan result.
struct SeriesData {
  SeriesMeta meta;
  std::vector<EpochSeconds> timestamps;
  std::vector<double> values;
  /// The tag set rendered as a table::Value map, shared from the store's
  /// per-series cache (built at series creation; shared_ptr copy here).
  /// ScanToTable replicates it per row without rebuilding the map.
  table::Value tags_value;
};

/// Planner-derived scan narrowing, attached to a ScanRequest by the SQL
/// layer's predicate pushdown. The range/glob/tag/projection hints only
/// ever *restrict* a scan: the effective window is the intersection of
/// the request range and the hint range, and hinted glob/tag filters
/// apply in addition to the request's.
///
/// min_step_seconds + rollup form the *resolution* hint and are
/// different in kind: they declare that the consumer aggregates each
/// min_step_seconds-wide bucket with `rollup` (SUM/MIN/MAX) and never
/// looks at finer structure, which licenses the store to serve sealed
/// segments from a rollup tier — one (bucket_start, bucket_aggregate)
/// point per covered bucket instead of the raw points. Mixed output is
/// exact for these aggregates (sums of partial sums, mins of partial
/// mins); a provider must either implement that contract fully, as
/// SeriesStore does, or ignore the pair outright.
struct ScanHints {
  /// Narrowed time window (from WHERE ts BETWEEN ... / comparisons).
  std::optional<TimeRange> range;
  /// Extra metric-name constraint ("" = unconstrained).
  std::string metric_glob;
  /// Extra tag constraints (from WHERE tag['k'] = 'v').
  TagSet tag_filter;
  /// Advisory: columns the query actually reads (providers may use this
  /// to skip materialising unused columns).
  std::vector<std::string> projection;
  /// Resolution floor in seconds (0 = raw resolution required). Set
  /// together with `rollup` by the planner for grid-aligned aggregating
  /// queries (date_trunc / ts - ts % k GROUP BY shapes).
  int64_t min_step_seconds = 0;
  /// The per-bucket aggregate the consumer applies (kNone = raw).
  RollupAggregate rollup = RollupAggregate::kNone;

  bool empty() const {
    return !range.has_value() && metric_glob.empty() && tag_filter.empty() &&
           projection.empty() && min_step_seconds == 0;
  }
};

/// A scan request: which series (by metric-name glob and tag filter) and
/// which time window, plus optional pushdown hints.
struct ScanRequest {
  /// Glob over metric names ("disk*", "*" for all).
  std::string metric_glob = "*";
  /// Every entry must glob-match the series tags.
  TagSet tag_filter;
  /// Time window; start == end means "unbounded" (scan everything).
  TimeRange range;
  /// Pushdown narrowing from the query planner.
  ScanHints hints;

  /// The window actually scanned: range ∩ hints.range (a start == end
  /// request range is unbounded, so the hint window wins outright).
  TimeRange EffectiveRange() const;
};

/// Per-store scan observability, now mutex-guarded so concurrent scans
/// stay exact (and TSan-clean). Counters accumulate across scans
/// (ResetScanStats clears); `series_matched`, `last_range` and
/// `last_metric_glob` describe the most recent scan only.
struct ScanStats {
  size_t scans = 0;
  size_t series_matched = 0;  // most recent scan
  /// Raw points decoded from Gorilla blocks (head + raw-served
  /// segments). Rollup-served segments decode nothing raw.
  size_t points_decoded = 0;
  size_t points_returned = 0;
  /// Per-tier breakdown of points_decoded / rollup service.
  size_t head_points_decoded = 0;
  size_t segment_points_decoded = 0;
  /// Bucket rows returned from rollup tiers instead of raw decode.
  size_t rollup_points_returned = 0;
  /// Raw points whose decode the rollup tiers avoided.
  size_t rollup_points_skipped = 0;
  size_t minute_tier_points = 0;
  size_t hour_tier_points = 0;
  /// Segments served from a rollup tier / forced back to raw because a
  /// window-cut bucket made the tier inexact.
  size_t segments_rollup_served = 0;
  size_t segments_raw_fallback = 0;
  /// Effective window of the most recent scan — the pushdown tests assert
  /// this shrank below the registered table range.
  TimeRange last_range;
  /// Effective metric constraint of the most recent scan ("glob" or
  /// "glob&hint" when both applied).
  std::string last_metric_glob;

  /// Adds `o`'s counters (scans, points, tiers, segments) into this one;
  /// series_matched, last_range and last_metric_glob are left as is.
  void Add(const ScanStats& o);
};

/// Lifetime storage-maintenance counters plus a point-in-time census of
/// the tiers (head vs sealed).
struct StorageStats {
  size_t seals = 0;        // seal operations since construction
  size_t compactions = 0;  // segment-merge operations
  size_t sealed_segments = 0;  // current total across series
  size_t head_points = 0;      // points still in mutable heads
  size_t sealed_points = 0;    // points in sealed segments
  size_t retention_evicted_segments = 0;  // TTL-dropped sealed segments
  size_t retention_evicted_points = 0;    // points inside those segments
};

/// Tiering/maintenance knobs.
struct StoreOptions {
  /// Seal a head once it holds this many points...
  size_t seal_max_points = 4096;
  /// ...or this many compressed bytes (Flush seals every head).
  size_t seal_max_bytes = 64 * 1024;
  /// Seal on the store's worker pool (false: inline on the writing
  /// thread — deterministic, used by tests).
  bool background_seal = true;
  /// Merge a series' sealed segments into one once it accumulates this
  /// many (0 disables compaction).
  size_t compact_min_segments = 8;
  /// TTL for sealed data, in *data time*: a sealed segment is evicted
  /// once its newest point is older than the store's high-water
  /// timestamp (the max ever written) minus this many seconds. 0
  /// disables retention. The mutable head is never evicted, and a
  /// segment only goes once it is entirely expired, so always-on
  /// ingestion stays bounded without ever cutting a window mid-segment.
  /// Enforced on the background maintenance path (and by EvictExpired).
  int64_t retention_seconds = 0;
  /// Shared worker pool scans fan out over and background maintenance
  /// (sealing/compaction, serialised via a max-concurrency-1 task group)
  /// runs on. Borrowed, never owned; null = exec::WorkerPool::Global().
  /// Stores no longer construct private pools, so a box full of stores
  /// and sessions shares one set of workers.
  exec::WorkerPool* worker_pool = nullptr;
};

/// Options for converting scans to a fixed minute grid.
struct GridOptions {
  int64_t step_seconds = kSecondsPerMinute;
};

/// An in-memory, write-optimised, concurrency-safe time series store.
///
/// Writes and scans may run concurrently from any number of threads.
/// Moving or destroying the store itself still requires external
/// quiescence (no call may be in flight), as for any C++ object.
class SeriesStore {
 public:
  explicit SeriesStore(StoreOptions options = {});
  ~SeriesStore();

  SeriesStore(SeriesStore&&) noexcept;
  SeriesStore& operator=(SeriesStore&&) noexcept;

  const StoreOptions& options() const;

  /// Appends one observation. Creates the series on first write.
  /// Timestamps must be non-decreasing per series; concurrent writers
  /// must target distinct series for that to hold.
  Status Write(const std::string& metric_name, const TagSet& tags,
               EpochSeconds timestamp, double value);

  /// Bulk append of an aligned vector of points for one series.
  Status WriteSeries(const std::string& metric_name, const TagSet& tags,
                     const std::vector<EpochSeconds>& timestamps,
                     const std::vector<double>& values);

  size_t num_series() const;
  size_t num_points() const;
  /// Total compressed payload bytes across all series (heads + segments).
  size_t compressed_bytes() const;

  /// Seals every non-empty head into a segment and drains any background
  /// maintenance — afterwards the store is quiesced: all data sealed,
  /// rollups built. The lifecycle hook tests and benches use.
  Status Flush();

  /// Observer invoked synchronously after every accepted Write, outside
  /// the series' stripe lock — the monitor subsystem's head tap for the
  /// online anomaly detector. Must be cheap and thread-safe (called
  /// concurrently from writer threads), and must not call back into
  /// SetWriteObserver. An empty function clears it; SetWriteObserver
  /// returns only once no writer is still inside the previous observer
  /// (quiescence barrier).
  using WriteObserver =
      std::function<void(const SeriesMeta& meta, EpochSeconds timestamp,
                         double value)>;
  void SetWriteObserver(WriteObserver observer);

  /// Synchronously drops every sealed segment that is entirely older
  /// than the retention cutoff (see StoreOptions::retention_seconds).
  /// Returns the number of segments evicted; no-op when retention is
  /// disabled. The background maintenance path calls this periodically —
  /// this entry point makes eviction deterministic for tests.
  size_t EvictExpired();

  /// Flush, then merge every series' segments into a single segment.
  Status Compact();

  /// All series metadata (creation order, stable per store).
  std::vector<SeriesMeta> ListSeries() const;

  /// Decodes every series matching the request, restricted to the window
  /// (honouring request.hints). Multi-series scans are morsel-parallel
  /// over the store's pool. Snapshot-isolated: concurrent writers are
  /// never blocked and each series decodes a prefix-consistent snapshot.
  ///
  /// With a resolution hint (hints.min_step_seconds + rollup), sealed
  /// segments fully covered by the window are served from the coarsest
  /// qualifying rollup tier as (bucket_start, aggregate) points; within
  /// such a series, timestamps can repeat a bucket or regress at segment
  /// boundaries — consumers are grid-aligned aggregators by contract.
  Result<std::vector<SeriesData>> Scan(const ScanRequest& request) const;

  ScanStats scan_stats() const;
  void ResetScanStats();
  StorageStats storage_stats() const;

  /// Scans and aligns to a regular grid over request.range; the last
  /// observation in a slot wins and empty slots are interpolated to the
  /// nearest observation (Appendix C). All returned series share the
  /// same timestamps vector length.
  Result<std::vector<SeriesData>> ScanAligned(
      const ScanRequest& request, const GridOptions& options = {}) const;

  /// Renders a scan as a Table with schema
  /// (timestamp: TIMESTAMP, metric_name: STRING, tag: MAP, value: DOUBLE) —
  /// the raw-events shape the Appendix C queries run over (`tsdb` table).
  /// Honours hints.projection: only the referenced standard columns are
  /// materialised (per-row tag maps dominate the cost), falling back to
  /// all four when the projection is empty or names none of them.
  Result<table::Table> ScanToTable(const ScanRequest& request) const;

  /// Writes a binary snapshot of the whole store: per series, every
  /// sealed segment block plus the head block with its encoder state, so
  /// writes continue seamlessly after a reload. Concurrent writers make
  /// the snapshot a per-series-consistent (not globally atomic) backup.
  Status SaveSnapshot(const std::string& path) const;

  /// Loads a snapshot written by SaveSnapshot, replacing this store's
  /// contents. Understands both the current tiered format and the
  /// original single-block-per-series seed format (loaded as all-head
  /// stores that reseal under the current thresholds as writes resume).
  /// Not safe against concurrent use of this store.
  Status LoadSnapshot(const std::string& path);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Fills NaN slots with the closest non-NaN neighbour (ties prefer the
/// earlier observation). A series of all-NaN becomes all zero.
void InterpolateMissing(std::vector<double>& values);

}  // namespace explainit::tsdb
