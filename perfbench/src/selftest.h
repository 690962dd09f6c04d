// Self-test of the benchmark's output checks and a smoke pass of every
// workload.
#pragma once

namespace perfbench {

/// Returns 0 when every check rejects its perturbed input, accepts the
/// unperturbed one, and every workload completes a smoke-size run.
int RunSelfTest();

}  // namespace perfbench
