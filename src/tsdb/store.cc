#include "tsdb/store.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <unordered_map>

#include "common/strings.h"
#include "exec/worker_pool.h"
#include "tsdb/head.h"

namespace explainit::tsdb {

std::string SeriesMeta::ToString() const {
  std::string out = metric_name;
  out += '{';
  out += tags.Encode();
  out += '}';
  return out;
}

TimeRange ScanRequest::EffectiveRange() const {
  if (!hints.range.has_value()) return range;
  if (range.end == range.start) return *hints.range;
  return TimeRange{std::max(range.start, hints.range->start),
                   std::min(range.end, hints.range->end)};
}

namespace {

/// Minimum matched-series count before a scan fans out over the pool;
/// below this the thread handoff costs more than the decode.
constexpr size_t kParallelScanThreshold = 64;

std::string SeriesKey(const std::string& metric_name, const TagSet& tags) {
  return metric_name + "{" + tags.Encode() + "}";
}

table::Value MakeTagsValue(const TagSet& tags) {
  table::ValueMap map;
  for (const auto& [k, v] : tags.entries()) {
    map[k] = table::Value::String(v);
  }
  return table::Value::Map(std::move(map));
}

// Decodes `block` into `data`, keeping points inside `range`
// (unrestricted when `bounded` is false). Returns how many points the
// block held before windowing.
Result<size_t> DecodeBlockInto(const CompressedBlock& block,
                               const TimeRange& range, bool bounded,
                               SeriesData* data) {
  EXPLAINIT_ASSIGN_OR_RETURN(auto points, block.Decode());
  for (const auto& [t, v] : points) {
    if (bounded && !range.Contains(t)) continue;
    data->timestamps.push_back(t);
    data->values.push_back(v);
  }
  return points.size();
}

}  // namespace

/// One series of the tiered store. `meta`/`tags_value`/`stripe` are
/// immutable after creation; the tier state below them is guarded by the
/// owning stripe's mutex in SeriesStore::Impl.
struct SeriesEntry {
  SeriesMeta meta;
  table::Value tags_value;
  size_t stripe = 0;

  SeriesHead head;
  std::vector<std::shared_ptr<const SealedSegment>> segments;
  /// A background maintenance task for this series is queued (suppresses
  /// duplicate submissions from subsequent writes).
  bool maintenance_scheduled = false;
};

struct SeriesStore::Impl {
  static constexpr size_t kStripeCount = 16;

  StoreOptions options;

  /// Guards the series map/order only (not the entries' tier state).
  /// Writers take it shared on the hot path; only first-write-of-a-series
  /// and LoadSnapshot take it exclusive.
  mutable std::shared_mutex map_mutex;
  std::unordered_map<std::string, std::shared_ptr<SeriesEntry>> by_key;
  std::vector<std::shared_ptr<SeriesEntry>> order;  // creation order

  /// Lock stripes for entry tier state; a series maps to a fixed stripe
  /// by key hash. Appends, seals and compactions of a series all run
  /// under its stripe; scans only take it long enough to copy the head
  /// block and the segment pointer vector.
  mutable std::array<std::mutex, kStripeCount> stripe_mutexes;

  std::atomic<size_t> total_points{0};
  std::atomic<size_t> seals{0};
  std::atomic<size_t> compactions{0};

  /// High-water data timestamp across all series (INT64_MIN until the
  /// first write) — the retention cutoff reference, so TTL is measured
  /// in data time, not wall time.
  std::atomic<int64_t> max_timestamp{std::numeric_limits<int64_t>::min()};
  std::atomic<size_t> retention_evicted_segments{0};
  std::atomic<size_t> retention_evicted_points{0};
  /// Writes since the last background retention sweep was queued.
  std::atomic<size_t> writes_since_sweep{0};
  static constexpr size_t kRetentionSweepInterval = 4096;

  /// Post-write observer (the monitor layer's anomaly-detector tap).
  /// has_observer is the hot-path gate: writers pay one relaxed load
  /// when no observer is installed.
  std::shared_mutex observer_mutex;
  std::shared_ptr<const SeriesStore::WriteObserver> observer;
  std::atomic<bool> has_observer{false};

  mutable std::mutex stats_mutex;
  ScanStats scan_stats;  // guarded by stats_mutex

  std::mutex error_mutex;
  Status background_error = Status::OK();  // first background-seal failure

  /// Shared worker pool (borrowed; the process-wide pool unless the
  /// options injected another). Scans fan out over it directly; the
  /// maintenance group below serialises sealing/compaction on it.
  exec::WorkerPool* pool;

  /// Serialised background maintenance (sealing/compaction), used only
  /// when options.background_seal. Declared last so it is destroyed
  /// first: its destructor drains every in-flight task while all the
  /// members those tasks touch are still alive. max_concurrency 1
  /// preserves the old single-threaded maintenance ordering without
  /// dedicating a thread, and keeps a scan's ParallelForChunks from
  /// waiting on (or stealing exceptions from) maintenance work — task
  /// groups are isolated per caller.
  std::unique_ptr<exec::TaskGroup> maintenance_group;

  explicit Impl(StoreOptions opts)
      : options(opts),
        pool(opts.worker_pool != nullptr ? opts.worker_pool
                                         : &exec::WorkerPool::Global()) {
    if (options.background_seal) {
      maintenance_group =
          std::make_unique<exec::TaskGroup>(pool, /*max_concurrency=*/1);
    }
  }

  std::mutex& StripeFor(const SeriesEntry& e) const {
    return stripe_mutexes[e.stripe];
  }

  std::shared_ptr<SeriesEntry> GetOrCreate(const std::string& metric_name,
                                           const TagSet& tags) {
    const std::string key = SeriesKey(metric_name, tags);
    {
      std::shared_lock<std::shared_mutex> lock(map_mutex);
      auto it = by_key.find(key);
      if (it != by_key.end()) return it->second;
    }
    std::unique_lock<std::shared_mutex> lock(map_mutex);
    auto it = by_key.find(key);
    if (it != by_key.end()) return it->second;
    auto e = std::make_shared<SeriesEntry>();
    e->meta.metric_name = metric_name;
    e->meta.tags = tags;
    e->tags_value = MakeTagsValue(tags);
    e->stripe = std::hash<std::string>{}(key) % kStripeCount;
    by_key.emplace(key, e);
    order.push_back(e);
    return e;
  }

  bool ShouldSeal(const SeriesHead& head) const {
    if (head.empty()) return false;
    if (head.num_points() >= options.seal_max_points) return true;
    return head.byte_size() >= options.seal_max_bytes;
  }

  /// Seals the entry's head into a new segment; stripe lock must be held.
  /// Seals from a copy so a (never-expected) decode failure loses nothing.
  Status SealLocked(SeriesEntry& e) {
    if (e.head.empty()) return Status::OK();
    EXPLAINIT_ASSIGN_OR_RETURN(auto segment,
                               SealedSegment::Seal(e.head.block()));
    e.head.Take();  // reset; the sealed copy now owns the points
    e.segments.push_back(std::move(segment));
    seals.fetch_add(1, std::memory_order_relaxed);
    return MaybeCompactLocked(e, options.compact_min_segments);
  }

  /// Merges the entry's segments into one when it has at least
  /// `min_segments` (0 disables); stripe lock must be held.
  Status MaybeCompactLocked(SeriesEntry& e, size_t min_segments) {
    if (min_segments == 0 || e.segments.size() < min_segments ||
        e.segments.size() < 2) {
      return Status::OK();
    }
    EXPLAINIT_ASSIGN_OR_RETURN(auto merged, SealedSegment::Merge(e.segments));
    e.segments.clear();
    e.segments.push_back(std::move(merged));
    compactions.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }

  void RecordBackgroundError(const Status& status) {
    std::lock_guard<std::mutex> lock(error_mutex);
    if (background_error.ok()) background_error = status;
  }

  /// Retention cutoff in data time; nullopt when retention is disabled
  /// or nothing has been written yet.
  std::optional<EpochSeconds> RetentionCutoff() const {
    if (options.retention_seconds <= 0) return std::nullopt;
    const int64_t high = max_timestamp.load(std::memory_order_relaxed);
    if (high == std::numeric_limits<int64_t>::min()) return std::nullopt;
    return high - options.retention_seconds;
  }

  /// Drops the entry's fully expired sealed segments (newest point older
  /// than `cutoff`); stripe lock must be held. Snapshot scans stay safe:
  /// in-flight readers hold shared_ptr copies of the segment vector.
  size_t EvictExpiredLocked(SeriesEntry& e, EpochSeconds cutoff) {
    size_t evicted = 0;
    size_t points = 0;
    auto& segs = e.segments;
    auto keep = segs.begin();
    for (auto it = segs.begin(); it != segs.end(); ++it) {
      if ((*it)->max_timestamp() < cutoff) {
        ++evicted;
        points += (*it)->num_points();
      } else {
        *keep++ = std::move(*it);
      }
    }
    segs.erase(keep, segs.end());
    if (evicted > 0) {
      retention_evicted_segments.fetch_add(evicted,
                                           std::memory_order_relaxed);
      retention_evicted_points.fetch_add(points, std::memory_order_relaxed);
      total_points.fetch_sub(points, std::memory_order_relaxed);
    }
    return evicted;
  }

  /// Store-wide retention sweep (background task and EvictExpired body).
  size_t SweepRetention() {
    const auto cutoff = RetentionCutoff();
    if (!cutoff.has_value()) return 0;
    size_t evicted = 0;
    for (const auto& e : SnapshotOrder()) {
      std::lock_guard<std::mutex> lock(StripeFor(*e));
      evicted += EvictExpiredLocked(*e, *cutoff);
    }
    return evicted;
  }

  /// The background maintenance task for one series.
  void Maintain(const std::shared_ptr<SeriesEntry>& e) {
    std::lock_guard<std::mutex> lock(StripeFor(*e));
    e->maintenance_scheduled = false;
    if (const auto cutoff = RetentionCutoff(); cutoff.has_value()) {
      EvictExpiredLocked(*e, *cutoff);
    }
    if (!ShouldSeal(e->head)) return;  // a flush got here first
    const Status status = SealLocked(*e);
    if (!status.ok()) RecordBackgroundError(status);
  }

  std::vector<std::shared_ptr<SeriesEntry>> SnapshotOrder() const {
    std::shared_lock<std::shared_mutex> lock(map_mutex);
    return order;
  }
};

SeriesStore::SeriesStore(StoreOptions options)
    : impl_(std::make_unique<Impl>(options)) {}
SeriesStore::~SeriesStore() = default;
SeriesStore::SeriesStore(SeriesStore&&) noexcept = default;
SeriesStore& SeriesStore::operator=(SeriesStore&&) noexcept = default;

const StoreOptions& SeriesStore::options() const { return impl_->options; }

Status SeriesStore::Write(const std::string& metric_name, const TagSet& tags,
                          EpochSeconds timestamp, double value) {
  std::shared_ptr<SeriesEntry> e = impl_->GetOrCreate(metric_name, tags);
  bool schedule = false;
  {
    std::lock_guard<std::mutex> lock(impl_->StripeFor(*e));
    EXPLAINIT_RETURN_IF_ERROR(e->head.Append(timestamp, value));
    if (impl_->ShouldSeal(e->head)) {
      if (impl_->options.background_seal) {
        if (!e->maintenance_scheduled) {
          e->maintenance_scheduled = true;
          schedule = true;
        }
      } else {
        EXPLAINIT_RETURN_IF_ERROR(impl_->SealLocked(*e));
      }
    }
  }
  impl_->total_points.fetch_add(1, std::memory_order_relaxed);
  // High-water timestamp (fetch-max): the retention cutoff reference.
  int64_t seen = impl_->max_timestamp.load(std::memory_order_relaxed);
  while (timestamp > seen &&
         !impl_->max_timestamp.compare_exchange_weak(
             seen, timestamp, std::memory_order_relaxed)) {
  }
  if (impl_->has_observer.load(std::memory_order_acquire)) {
    // Invoked under the shared lock so SetWriteObserver (unique lock)
    // doubles as a quiescence barrier: once it returns, no thread is
    // still inside the old observer.
    std::shared_lock<std::shared_mutex> lock(impl_->observer_mutex);
    if (impl_->observer && *impl_->observer) {
      (*impl_->observer)(e->meta, timestamp, value);
    }
  }
  if (schedule) {
    Impl* impl = impl_.get();
    impl->maintenance_group->Submit(
        [impl, e = std::move(e)] { impl->Maintain(e); }, "tsdb.maintenance");
  }
  // Periodic store-wide retention sweep: series that stopped receiving
  // writes never hit Maintain, so their expired segments are swept here.
  if (impl_->options.retention_seconds > 0 && impl_->maintenance_group &&
      impl_->writes_since_sweep.fetch_add(1, std::memory_order_relaxed) + 1 >=
          Impl::kRetentionSweepInterval) {
    impl_->writes_since_sweep.store(0, std::memory_order_relaxed);
    Impl* impl = impl_.get();
    impl->maintenance_group->Submit([impl] { impl->SweepRetention(); },
                                    "tsdb.maintenance");
  }
  return Status::OK();
}

void SeriesStore::SetWriteObserver(WriteObserver observer) {
  const bool installed = static_cast<bool>(observer);
  auto shared = installed
                    ? std::make_shared<const WriteObserver>(std::move(observer))
                    : nullptr;
  std::unique_lock<std::shared_mutex> lock(impl_->observer_mutex);
  impl_->observer = std::move(shared);
  impl_->has_observer.store(installed, std::memory_order_release);
}

size_t SeriesStore::EvictExpired() { return impl_->SweepRetention(); }

Status SeriesStore::WriteSeries(const std::string& metric_name,
                                const TagSet& tags,
                                const std::vector<EpochSeconds>& timestamps,
                                const std::vector<double>& values) {
  if (timestamps.size() != values.size()) {
    return Status::InvalidArgument("timestamps/values size mismatch");
  }
  for (size_t i = 0; i < timestamps.size(); ++i) {
    EXPLAINIT_RETURN_IF_ERROR(Write(metric_name, tags, timestamps[i],
                                    values[i]));
  }
  return Status::OK();
}

size_t SeriesStore::num_series() const {
  std::shared_lock<std::shared_mutex> lock(impl_->map_mutex);
  return impl_->order.size();
}

size_t SeriesStore::num_points() const {
  return impl_->total_points.load(std::memory_order_relaxed);
}

size_t SeriesStore::compressed_bytes() const {
  size_t total = 0;
  for (const auto& e : impl_->SnapshotOrder()) {
    std::lock_guard<std::mutex> lock(impl_->StripeFor(*e));
    total += e->head.byte_size();
    for (const auto& seg : e->segments) total += seg->byte_size();
  }
  return total;
}

Status SeriesStore::Flush() {
  // Drain queued maintenance first so no task races the inline seals
  // below into double-sealing decisions (Maintain re-checks thresholds
  // under the stripe lock, so the race would be benign — this just makes
  // the post-Flush state deterministic).
  if (impl_->maintenance_group) impl_->maintenance_group->Wait();
  for (const auto& e : impl_->SnapshotOrder()) {
    std::lock_guard<std::mutex> lock(impl_->StripeFor(*e));
    EXPLAINIT_RETURN_IF_ERROR(impl_->SealLocked(*e));
  }
  std::lock_guard<std::mutex> lock(impl_->error_mutex);
  Status first = impl_->background_error;
  impl_->background_error = Status::OK();
  return first;
}

Status SeriesStore::Compact() {
  EXPLAINIT_RETURN_IF_ERROR(Flush());
  for (const auto& e : impl_->SnapshotOrder()) {
    std::lock_guard<std::mutex> lock(impl_->StripeFor(*e));
    EXPLAINIT_RETURN_IF_ERROR(impl_->MaybeCompactLocked(*e, 2));
  }
  return Status::OK();
}

std::vector<SeriesMeta> SeriesStore::ListSeries() const {
  std::vector<SeriesMeta> out;
  auto entries = impl_->SnapshotOrder();
  out.reserve(entries.size());
  for (const auto& e : entries) out.push_back(e->meta);
  return out;
}

StorageStats SeriesStore::storage_stats() const {
  StorageStats stats;
  stats.seals = impl_->seals.load(std::memory_order_relaxed);
  stats.compactions = impl_->compactions.load(std::memory_order_relaxed);
  stats.retention_evicted_segments =
      impl_->retention_evicted_segments.load(std::memory_order_relaxed);
  stats.retention_evicted_points =
      impl_->retention_evicted_points.load(std::memory_order_relaxed);
  for (const auto& e : impl_->SnapshotOrder()) {
    std::lock_guard<std::mutex> lock(impl_->StripeFor(*e));
    stats.sealed_segments += e->segments.size();
    stats.head_points += e->head.num_points();
    for (const auto& seg : e->segments) stats.sealed_points += seg->num_points();
  }
  return stats;
}

namespace {

/// A prefix-consistent snapshot of one series' tier state, captured under
/// its stripe lock: segment pointers (immutable payloads) plus a copy of
/// the in-progress head block. Everything after capture is lock-free.
struct SeriesSnapshot {
  std::vector<std::shared_ptr<const SealedSegment>> segments;
  CompressedBlock head;
};

// Decodes one captured series into `data`. Sealed segments are served
// from the rollup tier with `tier_step` when every window-overlapping
// bucket lies entirely inside the window (tier_step 0: always raw).
Status DecodeSnapshot(const SeriesSnapshot& snap, const TimeRange& window,
                      bool bounded, int64_t tier_step, RollupAggregate agg,
                      SeriesData* data, ScanStats* counters) {
  for (const auto& seg : snap.segments) {
    // Time pruning: a segment entirely outside the window decodes nothing.
    if (bounded && (seg->max_timestamp() < window.start ||
                    seg->min_timestamp() >= window.end)) {
      continue;
    }
    const RollupTier* tier =
        tier_step > 0 ? seg->TierFor(tier_step) : nullptr;
    bool rollup_ok = tier != nullptr;
    std::vector<const RollupPoint*> rows;
    if (tier != nullptr) {
      rows.reserve(tier->points.size());
      for (const RollupPoint& p : tier->points) {
        if (bounded) {
          if (p.last_ts < window.start || p.first_ts >= window.end) {
            continue;  // bucket entirely outside
          }
          if (p.first_ts < window.start || p.last_ts >= window.end) {
            // The window cuts this bucket: its aggregate mixes in-window
            // and out-of-window points, so the tier is inexact here.
            // Fall back to the raw block for the whole segment.
            rollup_ok = false;
            break;
          }
        }
        rows.push_back(&p);
      }
    }
    if (rollup_ok) {
      for (const RollupPoint* p : rows) {
        data->timestamps.push_back(p->bucket);
        data->values.push_back(RollupValue(*p, agg));
        counters->rollup_points_skipped += p->count;
      }
      counters->rollup_points_returned += rows.size();
      if (tier_step == kSecondsPerMinute) {
        counters->minute_tier_points += rows.size();
      } else {
        counters->hour_tier_points += rows.size();
      }
      ++counters->segments_rollup_served;
    } else {
      const size_t before = data->values.size();
      EXPLAINIT_ASSIGN_OR_RETURN(
          size_t decoded,
          DecodeBlockInto(seg->block(), window, bounded, data));
      counters->points_decoded += decoded;
      counters->segment_points_decoded += decoded;
      if (tier_step > 0) ++counters->segments_raw_fallback;
      if (agg == RollupAggregate::kCount) {
        // A count-routed scan returns point counts, not samples: each
        // raw-fallback point contributes a count of one.
        std::fill(data->values.begin() + before, data->values.end(), 1.0);
      }
    }
  }
  if (snap.head.num_points() > 0) {
    const size_t before = data->values.size();
    EXPLAINIT_ASSIGN_OR_RETURN(
        size_t decoded, DecodeBlockInto(snap.head, window, bounded, data));
    counters->points_decoded += decoded;
    counters->head_points_decoded += decoded;
    if (agg == RollupAggregate::kCount) {
      std::fill(data->values.begin() + before, data->values.end(), 1.0);
    }
  }
  counters->points_returned += data->timestamps.size();
  return Status::OK();
}

}  // namespace

Result<std::vector<SeriesData>> SeriesStore::Scan(
    const ScanRequest& request) const {
  const TimeRange window = request.EffectiveRange();
  const ScanHints& hints = request.hints;
  // The start == end sentinel only means "unbounded" on a hint-free
  // request; a hinted intersection that degenerates to an empty window
  // must scan nothing, not everything.
  const bool bounded =
      hints.range.has_value() || request.range.end != request.range.start;
  const bool empty_window = bounded && window.start >= window.end;
  const int64_t tier_step = hints.rollup != RollupAggregate::kNone
                                ? EffectiveRollupTierStep(hints.min_step_seconds)
                                : 0;

  // Pass 1: match series metadata (immutable after creation — only the
  // map lock is needed, no stripe locks).
  std::vector<std::shared_ptr<SeriesEntry>> matched;
  if (!empty_window) {
    std::shared_lock<std::shared_mutex> lock(impl_->map_mutex);
    for (const auto& e : impl_->order) {
      if (!GlobMatch(request.metric_glob, e->meta.metric_name)) continue;
      if (!hints.metric_glob.empty() &&
          !GlobMatch(hints.metric_glob, e->meta.metric_name)) {
        continue;
      }
      if (!e->meta.tags.Matches(request.tag_filter)) continue;
      if (!hints.tag_filter.empty() &&
          !e->meta.tags.Matches(hints.tag_filter)) {
        continue;
      }
      matched.push_back(e);
    }
  }

  // Pass 2: snapshot + decode, one morsel per series; large scans fan out
  // across the pool and the per-morsel results merge back in store order.
  // Each task holds the stripe lock only while copying the head block and
  // the segment pointers — decoding is entirely lock-free, so scans never
  // block writers (and vice versa).
  std::vector<SeriesData> slots(matched.size());
  std::vector<ScanStats> counters(matched.size());
  std::vector<Status> statuses(matched.size(), Status::OK());
  auto decode_one = [&](size_t i) {
    const SeriesEntry& e = *matched[i];
    SeriesSnapshot snap;
    {
      std::lock_guard<std::mutex> lock(impl_->StripeFor(e));
      snap.segments = e.segments;
      snap.head = e.head.block();
    }
    slots[i].meta = e.meta;
    slots[i].tags_value = e.tags_value;
    Status s = DecodeSnapshot(snap, window, bounded, tier_step, hints.rollup,
                              &slots[i], &counters[i]);
    if (!s.ok()) statuses[i] = std::move(s);
  };
  if (matched.size() >= kParallelScanThreshold) {
    // Chunked fan-out over the shared pool: one task per worker-sized run
    // of series instead of one queue round-trip per series (large stores
    // match 100k+ series). The calling thread participates, so scans
    // issued from inside a pool task (a morsel-parallel operator) make
    // progress even when every worker is busy.
    exec::ParallelForChunks(*impl_->pool, matched.size(),
                            /*min_grain=*/16, [&](size_t begin, size_t end) {
                              for (size_t i = begin; i < end; ++i) {
                                decode_one(i);
                              }
                            });
  } else {
    for (size_t i = 0; i < matched.size(); ++i) decode_one(i);
  }

  std::vector<SeriesData> out;
  out.reserve(matched.size());
  ScanStats total;
  total.scans = 1;
  for (size_t i = 0; i < matched.size(); ++i) {
    EXPLAINIT_RETURN_IF_ERROR(statuses[i]);
    total.Add(counters[i]);
    if (!slots[i].timestamps.empty()) out.push_back(std::move(slots[i]));
  }

  {
    std::lock_guard<std::mutex> lock(impl_->stats_mutex);
    ScanStats& st = impl_->scan_stats;
    st.Add(total);
    st.series_matched = matched.size();
    st.last_range = window;
    st.last_metric_glob =
        hints.metric_glob.empty()
            ? request.metric_glob
            : (request.metric_glob == "*"
                   ? hints.metric_glob
                   : request.metric_glob + "&" + hints.metric_glob);
  }
  return out;
}

void ScanStats::Add(const ScanStats& o) {
  scans += o.scans;
  points_decoded += o.points_decoded;
  points_returned += o.points_returned;
  head_points_decoded += o.head_points_decoded;
  segment_points_decoded += o.segment_points_decoded;
  rollup_points_returned += o.rollup_points_returned;
  rollup_points_skipped += o.rollup_points_skipped;
  minute_tier_points += o.minute_tier_points;
  hour_tier_points += o.hour_tier_points;
  segments_rollup_served += o.segments_rollup_served;
  segments_raw_fallback += o.segments_raw_fallback;
}

ScanStats SeriesStore::scan_stats() const {
  std::lock_guard<std::mutex> lock(impl_->stats_mutex);
  return impl_->scan_stats;
}

void SeriesStore::ResetScanStats() {
  std::lock_guard<std::mutex> lock(impl_->stats_mutex);
  impl_->scan_stats = ScanStats{};
}

void InterpolateMissing(std::vector<double>& values) {
  const size_t n = values.size();
  // Forward pass records the distance to the previous valid value; the
  // backward pass picks whichever neighbour is nearer.
  std::vector<int64_t> prev_valid(n, -1);
  int64_t last = -1;
  for (size_t i = 0; i < n; ++i) {
    if (!std::isnan(values[i])) last = static_cast<int64_t>(i);
    prev_valid[i] = last;
  }
  int64_t next = -1;
  for (size_t ii = n; ii-- > 0;) {
    if (!std::isnan(values[ii])) {
      next = static_cast<int64_t>(ii);
      continue;
    }
    const int64_t p = prev_valid[ii];
    double fill = 0.0;
    if (p >= 0 && next >= 0) {
      const int64_t dp = static_cast<int64_t>(ii) - p;
      const int64_t dn = next - static_cast<int64_t>(ii);
      fill = dp <= dn ? values[p] : values[next];
    } else if (p >= 0) {
      fill = values[p];
    } else if (next >= 0) {
      fill = values[next];
    }
    values[ii] = fill;
  }
}

Result<std::vector<SeriesData>> SeriesStore::ScanAligned(
    const ScanRequest& request, const GridOptions& options) const {
  if (request.range.end <= request.range.start) {
    return Status::InvalidArgument("ScanAligned requires a non-empty range");
  }
  if (options.step_seconds <= 0) {
    return Status::InvalidArgument("grid step must be positive");
  }
  EXPLAINIT_ASSIGN_OR_RETURN(std::vector<SeriesData> raw, Scan(request));
  const int64_t step = options.step_seconds;
  const size_t slots = static_cast<size_t>(
      (request.range.end - request.range.start + step - 1) / step);
  std::vector<EpochSeconds> grid(slots);
  for (size_t i = 0; i < slots; ++i) {
    grid[i] = request.range.start + static_cast<int64_t>(i) * step;
  }
  for (SeriesData& s : raw) {
    std::vector<double> aligned(slots,
                                std::numeric_limits<double>::quiet_NaN());
    for (size_t i = 0; i < s.timestamps.size(); ++i) {
      const int64_t slot = (s.timestamps[i] - request.range.start) / step;
      if (slot < 0 || static_cast<size_t>(slot) >= slots) continue;
      // Last observation per slot wins.
      aligned[static_cast<size_t>(slot)] = s.values[i];
    }
    InterpolateMissing(aligned);
    s.timestamps = grid;
    s.values = std::move(aligned);
  }
  return raw;
}

Result<table::Table> SeriesStore::ScanToTable(
    const ScanRequest& request) const {
  EXPLAINIT_ASSIGN_OR_RETURN(std::vector<SeriesData> raw, Scan(request));
  // Honour the projection hint: materialise only the standard columns the
  // query references (the planner always includes every referenced
  // column, so skipping the rest can never lose a lookup — it only saves
  // building per-row tag maps / name strings, which dominate the cost).
  // An empty projection, or one naming none of our columns, keeps all
  // four so "column not found" errors still surface naturally.
  const std::vector<std::string>& projection = request.hints.projection;
  auto wanted = [&projection](std::string_view name) {
    for (const std::string& p : projection) {
      if (EqualsIgnoreCase(p, name)) return true;
    }
    return false;
  };
  bool keep_ts = wanted("timestamp");
  bool keep_metric = wanted("metric_name");
  bool keep_tag = wanted("tag");
  bool keep_value = wanted("value");
  if (!keep_ts && !keep_metric && !keep_tag && !keep_value) {
    keep_ts = keep_metric = keep_tag = keep_value = true;
  }

  size_t total = 0;
  for (const SeriesData& s : raw) total += s.timestamps.size();

  table::Schema schema;
  std::vector<std::vector<table::Value>> columns;
  columns.reserve(4);  // keeps add_column's returned pointers stable
  auto add_column = [&](const char* name, table::DataType type) {
    schema.AddField({name, type});
    columns.emplace_back();
    columns.back().reserve(total);
    return &columns.back();
  };
  std::vector<table::Value>* ts_col =
      keep_ts ? add_column("timestamp", table::DataType::kTimestamp)
              : nullptr;
  std::vector<table::Value>* metric_col =
      keep_metric ? add_column("metric_name", table::DataType::kString)
                  : nullptr;
  std::vector<table::Value>* tag_col =
      keep_tag ? add_column("tag", table::DataType::kMap) : nullptr;
  std::vector<table::Value>* value_col =
      keep_value ? add_column("value", table::DataType::kDouble) : nullptr;

  for (const SeriesData& s : raw) {
    const size_t n = s.timestamps.size();
    if (ts_col != nullptr) {
      for (size_t i = 0; i < n; ++i) {
        ts_col->push_back(table::Value::Timestamp(s.timestamps[i]));
      }
    }
    if (metric_col != nullptr) {
      const table::Value name = table::Value::String(s.meta.metric_name);
      metric_col->insert(metric_col->end(), n, name);
    }
    if (tag_col != nullptr) {
      tag_col->insert(tag_col->end(), n, s.tags_value);
    }
    if (value_col != nullptr) {
      for (size_t i = 0; i < n; ++i) {
        value_col->push_back(table::Value::Double(s.values[i]));
      }
    }
  }
  return table::Table::FromColumns(std::move(schema), std::move(columns));
}

namespace {
void PutString(std::vector<uint8_t>* out, const std::string& s) {
  const uint64_t n = s.size();
  const size_t at = out->size();
  out->resize(at + sizeof(n) + s.size());
  std::memcpy(out->data() + at, &n, sizeof(n));
  std::memcpy(out->data() + at + sizeof(n), s.data(), s.size());
}

bool GetString(const std::vector<uint8_t>& data, size_t* offset,
               std::string* s) {
  uint64_t n = 0;
  if (*offset > data.size() || sizeof(n) > data.size() - *offset) {
    return false;
  }
  std::memcpy(&n, data.data() + *offset, sizeof(n));
  *offset += sizeof(n);
  if (n > data.size() - *offset) return false;
  s->assign(reinterpret_cast<const char*>(data.data() + *offset), n);
  *offset += n;
  return true;
}

/// The seed (v1) format: one block per series, no tiers. Still loadable.
constexpr uint32_t kSnapshotMagic = 0x45585453;  // "EXTS"
/// The tiered (v2) format: per series, every sealed segment block then
/// the head block (encoder state included).
constexpr uint32_t kSnapshotMagicV2 = 0x32545845;  // "EXT2"

Result<TagSet> ParseTagEncoding(const std::string& tag_encoding) {
  std::map<std::string, std::string> tags;
  if (!tag_encoding.empty()) {
    for (const std::string& kv : StrSplit(tag_encoding, ',')) {
      const auto parts = StrSplit(kv, '=');
      if (parts.size() != 2) {
        return Status::ParseError("bad tag encoding: " + kv);
      }
      tags[parts[0]] = parts[1];
    }
  }
  return TagSet(std::move(tags));
}
}  // namespace

Status SeriesStore::SaveSnapshot(const std::string& path) const {
  std::vector<uint8_t> buf;
  auto entries = impl_->SnapshotOrder();
  buf.resize(sizeof(kSnapshotMagicV2) + sizeof(uint64_t));
  std::memcpy(buf.data(), &kSnapshotMagicV2, sizeof(kSnapshotMagicV2));
  const uint64_t count = entries.size();
  std::memcpy(buf.data() + sizeof(kSnapshotMagicV2), &count, sizeof(count));
  for (const auto& e : entries) {
    PutString(&buf, e->meta.metric_name);
    PutString(&buf, e->meta.tags.Encode());
    // Capture the tier state under the stripe lock, then serialize
    // outside it (segment payloads are immutable; the head is a copy).
    std::vector<std::shared_ptr<const SealedSegment>> segments;
    CompressedBlock head;
    {
      std::lock_guard<std::mutex> lock(impl_->StripeFor(*e));
      segments = e->segments;
      head = e->head.block();
    }
    const uint64_t num_segments = segments.size();
    const size_t at = buf.size();
    buf.resize(at + sizeof(num_segments));
    std::memcpy(buf.data() + at, &num_segments, sizeof(num_segments));
    for (const auto& seg : segments) seg->block().Serialize(&buf);
    head.Serialize(&buf);
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open for writing: " + path);
  }
  const size_t written = std::fwrite(buf.data(), 1, buf.size(), f);
  std::fclose(f);
  if (written != buf.size()) {
    return Status::IOError("short write to " + path);
  }
  return Status::OK();
}

Status SeriesStore::LoadSnapshot(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open for reading: " + path);
  }
  // Read in chunks until EOF: a size from ftell is not trustworthy (a
  // directory opens fine and reports a huge size; ftell may fail with -1).
  constexpr size_t kChunk = size_t{1} << 16;
  std::vector<uint8_t> buf;
  while (true) {
    const size_t used = buf.size();
    buf.resize(used + kChunk);
    const size_t read = std::fread(buf.data() + used, 1, kChunk, f);
    buf.resize(used + read);
    if (read < kChunk) break;
  }
  const bool read_failed = std::ferror(f) != 0;
  std::fclose(f);
  if (read_failed) {
    return Status::IOError("cannot read " + path);
  }
  size_t offset = 0;
  uint32_t magic = 0;
  uint64_t count = 0;
  if (buf.size() < sizeof(magic) + sizeof(count)) {
    return Status::ParseError("snapshot too short");
  }
  std::memcpy(&magic, buf.data(), sizeof(magic));
  offset += sizeof(magic);
  if (magic != kSnapshotMagic && magic != kSnapshotMagicV2) {
    return Status::ParseError("bad snapshot magic");
  }
  const bool tiered = magic == kSnapshotMagicV2;
  std::memcpy(&count, buf.data() + offset, sizeof(count));
  offset += sizeof(count);

  std::unordered_map<std::string, std::shared_ptr<SeriesEntry>> by_key;
  std::vector<std::shared_ptr<SeriesEntry>> order;
  size_t points = 0;
  for (uint64_t i = 0; i < count; ++i) {
    std::string metric, tag_encoding;
    if (!GetString(buf, &offset, &metric) ||
        !GetString(buf, &offset, &tag_encoding)) {
      return Status::ParseError("truncated series header");
    }
    auto e = std::make_shared<SeriesEntry>();
    e->meta.metric_name = metric;
    EXPLAINIT_ASSIGN_OR_RETURN(e->meta.tags, ParseTagEncoding(tag_encoding));
    e->tags_value = MakeTagsValue(e->meta.tags);
    if (tiered) {
      uint64_t num_segments = 0;
      if (offset + sizeof(num_segments) > buf.size()) {
        return Status::ParseError("truncated segment count");
      }
      std::memcpy(&num_segments, buf.data() + offset, sizeof(num_segments));
      offset += sizeof(num_segments);
      for (uint64_t s = 0; s < num_segments; ++s) {
        EXPLAINIT_ASSIGN_OR_RETURN(
            CompressedBlock block, CompressedBlock::Deserialize(buf, &offset));
        // Re-sealing rebuilds the rollup tiers from the raw block —
        // rollups are derived data and stay out of the snapshot format.
        EXPLAINIT_ASSIGN_OR_RETURN(auto segment,
                                   SealedSegment::Seal(std::move(block)));
        points += segment->num_points();
        e->segments.push_back(std::move(segment));
      }
      EXPLAINIT_ASSIGN_OR_RETURN(CompressedBlock head,
                                 CompressedBlock::Deserialize(buf, &offset));
      points += head.num_points();
      if (head.num_points() > 0) e->head.Restore(std::move(head));
    } else {
      // Seed format: the whole series is one block — load it as the head;
      // it reseals under the current thresholds as writes resume.
      EXPLAINIT_ASSIGN_OR_RETURN(CompressedBlock block,
                                 CompressedBlock::Deserialize(buf, &offset));
      points += block.num_points();
      if (block.num_points() > 0) e->head.Restore(std::move(block));
    }
    const std::string key = SeriesKey(e->meta.metric_name, e->meta.tags);
    e->stripe = std::hash<std::string>{}(key) % Impl::kStripeCount;
    if (!by_key.emplace(key, e).second) {
      return Status::ParseError("duplicate series in snapshot: " + key);
    }
    order.push_back(std::move(e));
  }
  std::unique_lock<std::shared_mutex> lock(impl_->map_mutex);
  impl_->by_key = std::move(by_key);
  impl_->order = std::move(order);
  impl_->total_points.store(points, std::memory_order_relaxed);
  return Status::OK();
}

}  // namespace explainit::tsdb
