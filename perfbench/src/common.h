// Shared plumbing of the repo benchmark: clocks, latency summaries, the
// per-run result record and its printers.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic time in seconds / nanoseconds (std::chrono::steady_clock).
double NowSeconds();
int64_t NowNanos();

/// Sleeps until the monotonic clock reads `deadline_s` (returns at once
/// when it already has).
void SleepUntil(double deadline_s);

/// A tail summary: the highest percentile with at least ten samples
/// beyond it, i.e. the 11th-largest sample, with that percentile and the
/// sample count it was taken from. With fewer than 11 samples it is the
/// maximum, flagged by `percentile` = 100.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  size_t samples = 0;
};

/// Median (mean of the two middle samples for an even count); 0 when
/// empty.
double Median(std::vector<double> v);
Tail TailOf(std::vector<double> v);
double Mean(const std::vector<double>& v);
/// "p<percentile> of <samples> samples".
std::string TailNote(const Tail& tail);

/// Peak resident set size of this process (VmHWM), in MB.
double PeakRssMb();

/// One named metric with its unit. `note` carries context printed beside
/// it (a tail's percentile and sample count, a ratio's base).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

/// Everything one workload run reports.
struct RunResult {
  bool correct = true;
  size_t attempted = 0;
  size_t failed = 0;
  /// Human-readable reasons for every failed output check.
  std::vector<std::string> check_failures;
  /// The reported metrics of this run: the end-to-end set when untraced,
  /// the per-layer set when traced (see BENCHMARK.json).
  std::vector<Metric> metrics;
  /// Workload-specific end-to-end figures printed beside the reported
  /// set (the serving workload's per-operation latencies, rate ladder).
  std::vector<Metric> details;
  /// Rendered per-layer self-time table (traced runs only).
  std::string layer_table;

  void Fail(const std::string& reason);
  void AddMetric(const std::string& name, double value,
                 const std::string& unit, const std::string& note = "") {
    metrics.push_back(Metric{name, value, unit, note});
  }
  void AddDetail(const std::string& name, double value,
                 const std::string& unit, const std::string& note = "") {
    details.push_back(Metric{name, value, unit, note});
  }
  /// Appends `tail` as a metric plus a note naming its percentile.
  void AddTail(std::vector<Metric>* into, const std::string& name,
               const Tail& tail, double scale, const std::string& unit);
};

/// How the run was invoked and where it ran; recorded in every result.
struct RunInfo {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool smoke = false;     // small worlds, for the self-test
  std::string source_id;  // git sha or source-tree hash from the launcher
  std::string out_dir;    // where the result and span files go ("" = none)
};

/// `s` as a quoted, escaped JSON string literal.
std::string JsonString(const std::string& s);
/// A finite double printed with all its digits (%.17g).
std::string JsonNumber(double v);

/// Prints the human-readable report, writes the full result file under
/// info.out_dir, and prints the result JSON object as the last line of
/// standard output.
void EmitResult(const RunInfo& info, const RunResult& result);

}  // namespace perfbench
