// The untraced socket run (see socket_run.cc).

#ifndef PERFBENCH_SOCKET_RUN_H_
#define PERFBENCH_SOCKET_RUN_H_

#include "runner.h"
#include "inputs.h"

namespace perfbench {

/// Runs `w` against forked servers and prints the end-to-end metrics.
/// Returns the process exit code.
int RunSocket(const Args& args, const Workload& w);

}  // namespace perfbench

#endif  // PERFBENCH_SOCKET_RUN_H_
