// The repo benchmark's binary.
//
//   perfbench --workload <explain_wide|session_drilldown|serve_ingest>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--source <id>]
//   perfbench --self-test
//
// Prints a human-readable report and, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// when untraced, the per-layer metrics when traced. Exits 1 when an output
// check failed, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "selftest.h"
#include "trace.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <explain_wide|session_drilldown|"
               "serve_ingest> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>] [--source <id>]\n"
               "       perfbench --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunInfo info;
  info.seconds = 10.0;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--workload" && has_value) {
      info.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      info.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      info.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      info.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--out-dir" && has_value) {
      info.out_dir = argv[++i];
    } else if (arg == "--source" && has_value) {
      info.source_id = argv[++i];
    } else {
      return Usage();
    }
  }
  if (self_test) return RunSelfTest();
  if (!(info.seconds > 0)) return Usage();

  Tracer tracer;
  RunResult result;
  if (info.workload == "explain_wide") {
    result = RunExplainWide(info, &tracer);
  } else if (info.workload == "session_drilldown") {
    result = RunSessionDrilldown(info, &tracer);
  } else if (info.workload == "serve_ingest") {
    result = RunServeIngest(info, &tracer);
  } else {
    return Usage();
  }
  if (result.attempted == 0) result.Fail("no operation was attempted");
  if (info.trace && !info.out_dir.empty()) {
    const std::string path = info.out_dir + "/" + info.workload + "-seed" +
                             std::to_string(info.seed) + "-spans.json";
    if (!tracer.WriteJson(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }
  }
  EmitResult(info, result);
  return result.correct ? 0 : 1;
}
