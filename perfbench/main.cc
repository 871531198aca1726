// hazy_perfbench: the paper's workload end to end over the socket.
//
//   hazy_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--workdir <dir>]
//
// --trace 0 runs the workload against a forked server over TCP and prints
// the end-to-end metrics; --trace 1 runs the traced in-process pass of the
// same operation sequence and prints the per-layer metrics. The last line
// of standard output is the result as one JSON object. The whole run, the
// forked servers included, is pinned to one CPU. See README.md.

#include <sched.h>
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "runner.h"
#include "inputs.h"
#include "socket_run.h"
#include "traced_run.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: hazy_perfbench --workload <name> --seed <n> --seconds <1-60> "
               "--trace <0|1> [--workdir <dir>]\nworkloads:");
  for (const std::string& n : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

/// Pins the process, and every thread and child it starts later, to the
/// highest-numbered CPU it may run on. Request hand-offs between threads then
/// stay on one CPU and need no cross-CPU wake-up, whose cost on a VM
/// follows the host's load (README.md, "Why one CPU").
bool PinToOneCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return false;
  int cpu = -1;
  for (int i = 0; i < CPU_SETSIZE; ++i) {
    if (CPU_ISSET(i, &set)) cpu = i;
  }
  if (cpu < 0) return false;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return ::sched_setaffinity(0, sizeof(set), &set) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* v = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      args.workload = v;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args.seconds = std::atoi(v);
    } else if (std::strcmp(flag, "--trace") == 0) {
      args.trace = std::atoi(v) != 0;
    } else if (std::strcmp(flag, "--workdir") == 0) {
      args.workdir = v;
    } else {
      return Usage();
    }
  }
  const perfbench::Workload* w = perfbench::FindWorkload(args.workload);
  if (w == nullptr || args.seconds < 1 || args.seconds > 60) return Usage();
  if (!PinToOneCpu()) {
    std::fprintf(stderr, "could not pin to one CPU\n");
    return 1;
  }
  ::mkdir(args.workdir.c_str(), 0755);
  return args.trace ? perfbench::RunTraced(args, *w) : perfbench::RunSocket(args, *w);
}
