// Pieces shared by the socket run and the traced pass: running a round of
// operations through a HazyClient, checking every answer, per-operation
// accounting, registry counters read through STATS, spans, and the result
// line.

#ifndef PERFBENCH_RUNNER_H_
#define PERFBENCH_RUNNER_H_

#include <time.h>

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "client/hazy_client.h"
#include "inputs.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_build/work";
};

double Percentile(std::vector<double> v, double q);
double Median(std::vector<double> v);
int64_t NowNs();
/// CPU time in ns: the process CPU clock `server` (see
/// clock_getcpuclockid) plus the calling thread's own.
int64_t CpuNs(clockid_t server);

/// A fixed task run beside the requests, whose CPU time the CPU-time
/// metrics are scaled by: 20,000 random lookups, half of them hits, in a
/// hash map of 65,536 keys (~4 MiB), hashing and cache misses like the
/// program's own lookups and scans. Its inputs never change, so its CPU time
/// moves only with how fast the host runs this CPU at the time.
class ReferenceTask {
 public:
  ReferenceTask();
  /// Runs the task once; returns its CPU time in microseconds.
  double RunUs();

 private:
  std::unordered_map<uint64_t, uint32_t> map_;
  std::vector<uint64_t> probes_;
  volatile uint64_t sink_ = 0;
};

/// A named metric of the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Prints the last line of the run: {"correct", "attempted", "failed",
/// "metrics"}.
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics);

/// Attempted/failed counts and successful-request latencies per Op.
struct OpLog {
  std::array<uint64_t, kNumOps> attempted{};
  std::array<uint64_t, kNumOps> failed{};
  std::array<std::vector<double>, kNumOps> us;
  /// CPU time of each successful request, the server process's plus the
  /// client thread's (socket run only).
  std::array<std::vector<double>, kNumOps> cpu_us;
  /// CPU time of each ReferenceTask run beside these requests.
  std::vector<double> ref_us;
  /// Traced pass only: latencies of the entity reads run without a span.
  std::vector<double> untraced_entity_read_us;

  /// Adds `o`'s counts and latencies (not its untraced reads).
  void Merge(const OpLog& o);
  uint64_t total_attempted() const;
  uint64_t total_failed() const;
  double P50(Op op) const { return Percentile(us[static_cast<int>(op)], 0.5); }
  /// Table of attempts, failures, p50/p99 and sample counts.
  void Print(const char* title) const;
};

/// Collects failed output checks (the first few messages are kept).
class Checker {
 public:
  void Fail(const std::string& msg);
  bool ok() const { return failures_ == 0; }
  void Print() const;

 private:
  uint64_t failures_ = 0;
  std::vector<std::string> messages_;
};

/// Span recorder: (name, start, end, parent) kept in memory.
class Tracer {
 public:
  void Begin(const char* name);
  void End();
  template <typename F>
  auto Time(const char* name, F&& f) {
    Begin(name);
    auto r = f();
    End();
    return r;
  }

  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;  ///< index in spans(), -1 at the top
  };
  const std::vector<Span>& spans() const { return spans_; }
  /// Durations in microseconds of every span called `name`.
  std::vector<double> DurationsUs(const std::string& name) const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// Writes spans as one JSON object per line.
bool WriteSpans(const std::string& path, const Tracer& tracer);

/// The benchmark's own count of the entities in the table.
struct Tally {
  int64_t issued = 0;    ///< highest entity id an INSERT was sent for
  int64_t inserted = 0;  ///< entities whose INSERT succeeded
};

/// Runs `ops` in order through `client`, timing each request, counting
/// attempts and failures, and checking every answer. `tracer` (optional)
/// records a "request.<type>" span around each request, except every other
/// entity read, which runs without one as the baseline of the tracing
/// overhead. With `server_clock`, each request's CPU time (CpuNs) is logged
/// as well.
void RunRound(hazy::client::HazyClient* client,
              const hazy::client::PreparedHandle& entity_read,
              const std::vector<OpItem>& ops, Tally* tally, OpLog* log,
              Checker* check, Tracer* tracer = nullptr,
              const clockid_t* server_clock = nullptr);

/// Checks a quiescent view against the benchmark's own facts: COUNT per
/// label sums to the tally, All Members partitions the inserted ids, and a
/// sample of Single Entity reads agrees. Returns the label of every id
/// (index id - 1) in *labels, and the ground-truth agreement.
void CheckQuiescent(hazy::client::HazyClient* client,
                    const hazy::client::PreparedHandle& entity_read,
                    const std::string& view, int64_t tally, const Inputs& in,
                    Checker* check, std::vector<int8_t>* labels,
                    double* truth_agreement);

/// Registry counters of interest, read through STATS.
using Counters = std::map<std::string, double>;
Counters ReadCounters(hazy::client::HazyClient* client, Checker* check);
/// after - before for each counter.
Counters Delta(const Counters& before, const Counters& after);
void PrintCounters(const char* title, const Counters& c);

/// Ground-truth agreement below this fails the run (a correct view agrees
/// on ~95% of entities at the default sizes).
constexpr double kTruthFloor = 0.85;

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_H_
