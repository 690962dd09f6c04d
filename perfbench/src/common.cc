#include "common.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "exec/worker_pool.h"
#include "la/simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntil(double deadline_s) {
  // Sleep to within a millisecond of the deadline, then spin: a thread
  // woken from a long sleep can start late by more than the operations
  // it times take.
  constexpr double kSpinSeconds = 1e-3;
  const double wait = deadline_s - NowSeconds() - kSpinSeconds;
  if (wait > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
  while (NowSeconds() < deadline_s) {
  }
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail TailOf(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n < 11) {
    t.value = v.back();
    t.percentile = 100.0;
    return t;
  }
  const size_t idx = n - 11;  // exactly ten samples lie beyond it
  t.value = v[idx];
  t.percentile = 100.0 * static_cast<double>(idx) / static_cast<double>(n - 1);
  return t;
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

void RunResult::Fail(const std::string& reason) {
  // A check that fails on every operation keeps only its first reasons.
  constexpr size_t kMaxReasons = 20;
  correct = false;
  if (check_failures.size() < kMaxReasons) check_failures.push_back(reason);
}

std::string TailNote(const Tail& tail) {
  char note[96];
  std::snprintf(note, sizeof(note), "p%.1f of %zu samples", tail.percentile,
                tail.samples);
  return note;
}

void RunResult::AddTail(std::vector<Metric>* into, const std::string& name,
                        const Tail& tail, double scale,
                        const std::string& unit) {
  into->push_back(Metric{name, tail.value * scale, unit, TailNote(tail)});
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

namespace {

size_t AffinityCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  return std::thread::hardware_concurrency();
}

std::string MetricsJson(const std::vector<Metric>& metrics, bool with_notes) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ", ";
    out += JsonString(m.name);
    out += ": {\"value\": ";
    out += JsonNumber(m.value);
    out += ", \"unit\": ";
    out += JsonString(m.unit);
    if (with_notes && !m.note.empty()) {
      out += ", \"note\": ";
      out += JsonString(m.note);
    }
    out += "}";
  }
  out += "}";
  return out;
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  if (metrics.empty()) return;
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6f %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

}  // namespace

void EmitResult(const RunInfo& info, const RunResult& result) {
  const std::string isa =
      explainit::la::simd::IsaName(explainit::la::simd::ActiveIsa());
  const size_t nproc = AffinityCpus();
  const size_t pool = explainit::exec::WorkerPool::Global().num_threads();

  std::printf(
      "host: nproc=%zu pool_threads=%zu simd=%s build=%s source=%s\n",
      nproc, pool, isa.c_str(), PERFBENCH_BUILD_TYPE,
      info.source_id.c_str());
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d\n",
              info.workload.c_str(),
              static_cast<unsigned long long>(info.seed), info.seconds,
              info.trace ? 1 : 0);
  PrintMetrics(info.trace ? "per-layer metrics:" : "end-to-end metrics:",
               result.metrics);
  PrintMetrics("workload detail:", result.details);
  if (!result.layer_table.empty()) {
    std::printf("%s", result.layer_table.c_str());
  }
  for (const std::string& f : result.check_failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }

  std::string failures = "[";
  for (size_t i = 0; i < result.check_failures.size(); ++i) {
    if (i > 0) failures += ", ";
    failures += JsonString(result.check_failures[i]);
  }
  failures += "]";

  if (!info.out_dir.empty()) {
    const std::string path = info.out_dir + "/" + info.workload + "-seed" +
                             std::to_string(info.seed) + "-trace" +
                             (info.trace ? "1" : "0") + ".json";
    std::ofstream out(path);
    out << "{\n  \"workload\": " << JsonString(info.workload) << ",\n"
        << "  \"seed\": " << info.seed << ",\n"
        << "  \"seconds\": " << JsonNumber(info.seconds) << ",\n"
        << "  \"trace\": " << (info.trace ? "true" : "false") << ",\n"
        << "  \"nproc\": " << nproc << ",\n"
        << "  \"pool_threads\": " << pool << ",\n"
        << "  \"simd\": " << JsonString(isa) << ",\n"
        << "  \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\",\n"
        << "  \"source\": " << JsonString(info.source_id) << ",\n"
        << "  \"correct\": " << (result.correct ? "true" : "false") << ",\n"
        << "  \"attempted\": " << result.attempted << ",\n"
        << "  \"failed\": " << result.failed << ",\n"
        << "  \"check_failures\": " << failures << ",\n"
        << "  \"metrics\": " << MetricsJson(result.metrics, true) << ",\n"
        << "  \"details\": " << MetricsJson(result.details, true) << "\n}\n";
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }
  }

  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "%s}\n",
      result.correct ? "true" : "false", result.attempted, result.failed,
      MetricsJson(result.metrics, false).c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
