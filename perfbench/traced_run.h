// The traced per-layer pass (see traced_run.cc).

#ifndef PERFBENCH_TRACED_RUN_H_
#define PERFBENCH_TRACED_RUN_H_

#include "runner.h"
#include "inputs.h"

namespace perfbench {

/// Runs the traced pass of `w` in process and prints the per-layer metrics.
/// Returns the process exit code.
int RunTraced(const Args& args, const Workload& w);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_RUN_H_
