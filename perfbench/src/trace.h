// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code, around the calls it
// makes into each layer's public functions; nothing inside the engine is
// instrumented. A span is named "<layer>.<stage>" (tsdb.scan, sql.drain,
// core.rank, ...) or "op.<kind>" for the root of one timed operation.
// Spans of one operation share a request id. They stay in memory and are
// written out when the run ends.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0: a root span
  uint64_t request = 0;  // 0: not attributable to one operation
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;  // 0 while open
};

/// Thread-safe span recorder. While inactive, Begin returns 0 and records
/// nothing, so one code path serves traced and untraced phases.
class Tracer {
 public:
  void set_active(bool active) { active_.store(active); }
  bool active() const { return active_.load(); }

  uint64_t NewRequest() { return next_request_.fetch_add(1); }
  /// Opens a span; returns its id (0 when inactive).
  uint64_t Begin(const std::string& name, uint64_t parent, uint64_t request);
  void End(uint64_t id);

  std::vector<Span> Snapshot() const;
  /// Writes every span as a JSON array; false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  std::atomic<bool> active_{false};
  std::atomic<uint64_t> next_request_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // spans_[id - 1]
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, uint64_t parent,
             uint64_t request)
      : tracer_(tracer), id_(tracer->Begin(name, parent, request)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint64_t id_;
};

/// Self/inclusive time per layer and per span name, and the coverage of
/// operation roots by their child spans.
struct TraceReport {
  /// Seconds summed over every closed span.
  std::map<std::string, double> self_by_layer;
  std::map<std::string, double> incl_by_name;
  std::map<std::string, double> self_by_name;
  /// Summed wall time of the operation roots (parentless "op." spans),
  /// and the part of it their direct children cover.
  double root_wall_s = 0.0;
  double root_covered_s = 0.0;
  size_t roots = 0;

  double coverage() const {
    return root_wall_s > 0 ? root_covered_s / root_wall_s : 0.0;
  }
  /// Summed inclusive / self seconds of spans named `name`, and self
  /// seconds of `layer`; 0 when absent.
  double Incl(const std::string& name) const;
  double Self(const std::string& name) const;
  double LayerSelf(const std::string& layer) const;
  /// Renders the per-layer self-time table: seconds per one of `units`
  /// (the workload's unit of work) and share of operation wall time.
  std::string Render(const std::string& title, double units) const;
};

/// A span's self time is its duration minus the union of its children's
/// intervals (clipped to it). An operation root's self time is the part
/// no layer span covers, reported under the layer "uncovered".
TraceReport Analyze(const std::vector<Span>& spans);

}  // namespace perfbench
