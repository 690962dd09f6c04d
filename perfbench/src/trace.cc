#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <unordered_map>

#include "common.h"

namespace perfbench {

uint64_t Tracer::Begin(const std::string& name, uint64_t parent,
                       uint64_t request) {
  if (!active()) return 0;
  const int64_t now = NowNanos();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{spans_.size() + 1, parent, request, name, now, 0});
  return spans_.size();
}

void Tracer::End(uint64_t id) {
  if (id == 0) return;
  const int64_t now = NowNanos();
  std::lock_guard<std::mutex> lock(mutex_);
  if (id <= spans_.size()) spans_[id - 1].end_ns = now;
}

std::vector<Span> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool Tracer::WriteJson(const std::string& path) const {
  const std::vector<Span> spans = Snapshot();
  std::ofstream out(path);
  out << "[\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "  {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request
        << ", \"name\": " << JsonString(s.name)
        << ", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << "}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

namespace {

/// The layer of a span name: the text before the first '.'.
std::string LayerOf(const std::string& name) {
  const size_t dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

/// Length of the union of [start, end) intervals.
int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  int64_t total = 0;
  int64_t cur_start = 0;
  int64_t cur_end = 0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (e <= s) continue;
    if (!open || s > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
      open = true;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

}  // namespace

TraceReport Analyze(const std::vector<Span>& spans) {
  TraceReport report;
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  std::unordered_map<uint64_t, const Span*> by_id;
  for (const Span& s : spans) {
    if (s.end_ns == 0) continue;
    by_id[s.id] = &s;
  }
  for (const Span& s : spans) {
    if (s.end_ns == 0 || s.parent == 0) continue;
    auto it = by_id.find(s.parent);
    if (it == by_id.end()) continue;
    const Span& p = *it->second;
    children[s.parent].push_back({std::max(s.start_ns, p.start_ns),
                                  std::min(s.end_ns, p.end_ns)});
  }
  for (const Span& s : spans) {
    if (s.end_ns == 0) continue;
    const int64_t dur = s.end_ns - s.start_ns;
    auto it = children.find(s.id);
    const int64_t covered =
        it == children.end() ? 0 : UnionLength(it->second);
    const double self_s = 1e-9 * static_cast<double>(dur - covered);
    report.incl_by_name[s.name] += 1e-9 * static_cast<double>(dur);
    report.self_by_name[s.name] += self_s;
    if (s.parent == 0 && LayerOf(s.name) == "op") {
      report.root_wall_s += 1e-9 * static_cast<double>(dur);
      report.root_covered_s += 1e-9 * static_cast<double>(covered);
      report.self_by_layer["uncovered"] += self_s;
      ++report.roots;
    } else if (LayerOf(s.name) != "op") {
      report.self_by_layer[LayerOf(s.name)] += self_s;
    }
  }
  return report;
}

namespace {

double Lookup(const std::map<std::string, double>& m, const std::string& k) {
  auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

}  // namespace

double TraceReport::Incl(const std::string& name) const {
  return Lookup(incl_by_name, name);
}

double TraceReport::Self(const std::string& name) const {
  return Lookup(self_by_name, name);
}

double TraceReport::LayerSelf(const std::string& layer) const {
  return Lookup(self_by_layer, layer);
}

std::string TraceReport::Render(const std::string& title,
                                double units) const {
  std::string out = "per-layer self time (" + title + "), " +
                    std::to_string(roots) + " traced operations:\n";
  char line[160];
  std::snprintf(line, sizeof(line), "  %-12s %14s %10s\n", "layer",
                "s/unit", "share");
  out += line;
  for (const auto& [layer, seconds] : self_by_layer) {
    const double per_unit = units > 0 ? seconds / units : seconds;
    const double share = root_wall_s > 0 ? seconds / root_wall_s : 0.0;
    std::snprintf(line, sizeof(line), "  %-12s %14.6f %9.1f%%\n",
                  layer.c_str(), per_unit, 100.0 * share);
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "  named layer spans cover %.1f%% of operation wall time\n",
                100.0 * coverage());
  out += line;
  return out;
}

}  // namespace perfbench
