// The untraced run: the paper's mix against a forked server process, driven
// over TCP exactly as a client would, on one connection. Every end-to-end
// metric comes from here.
//
// The time metrics are scaled CPU time. Around each request and each set-up
// the run reads the server process's CPU clock (all its threads) plus the
// client thread's; a fixed ReferenceTask runs after every round, and each
// window's CPU times are scaled by kReferenceUs over the reference's median
// CPU time in that window (the set-ups by its median over the run), so that
// a host running this CPU slower or faster for a while moves the metrics
// less. Wall-clock latency is
// printed in the report but is not a metric: on a shared host each thread
// wake-up of a closed-loop request waits for the host to run that vCPU
// again, so wall time follows the host's steal. See README.md.
//
// The server is forked, not exec'd, so it can embed server::Server over an
// engine::Database whose views use the tuple-count cost model (hazy_server
// cannot select it). All server processes are forked before the inputs are
// generated, so their peak RSS holds nothing of the client's.

#include "socket_run.h"

#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>

#include "common/strings.h"
#include "engine/database.h"
#include "server/server.h"
#include "storage/wal.h"

namespace perfbench {

using hazy::StrFormat;
using hazy::client::HazyClient;

namespace {

/// Set-ups per run; setup_s is the median of their scaled CPU time, and the
/// last one is measured.
/// db_file_mib is the median size of the others' databases, each closed
/// cleanly right after set-up: the timed phase adds to the database with
/// every round, so its final size would read smaller for a slower program.
constexpr int kSetups = 5;
/// Windows the workload's measured rounds are cut into, by round number; a
/// per-request metric is the median over the windows of each window's
/// scaled median.
constexpr int kWindows = 20;
/// Scaled CPU time = CPU time * kReferenceUs / the reference's CPU time
/// beside it: CPU time on a host that runs ReferenceTask in 1 ms, about what
/// a 4-vCPU Xeon VM does beside these workloads.
constexpr double kReferenceUs = 1000;

/// Parent-side pipe ends of every forked server, closed in each new child
/// so a server sees EOF on its control pipe as soon as the parent closes it.
std::vector<int>& ParentFds() {
  static std::vector<int> fds;
  return fds;
}

/// One forked server. The child idles until Start(), serves until the
/// control pipe closes, then stops the server, closes the database cleanly
/// and exits.
class ServerProcess {
 public:
  bool Fork(const Workload& w, const std::string& path) {
    int ctl[2], status[2];
    if (::pipe(ctl) != 0 || ::pipe(status) != 0) return false;
    pid_ = ::fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      ::close(ctl[1]);
      ::close(status[0]);
      for (int fd : ParentFds()) ::close(fd);
      ::_exit(ServeChild(w, path, ctl[0], status[1]));
    }
    ::close(ctl[0]);
    ::close(status[1]);
    ctl_ = ctl[1];
    status_ = status[0];
    ParentFds().push_back(ctl_);
    ParentFds().push_back(status_);
    path_ = path;
    return true;
  }

  /// Opens the database and starts serving; returns the port (0 on error).
  uint16_t Start() {
    uint16_t port = 0;
    if (::write(ctl_, "g", 1) != 1) return 0;
    if (::read(status_, &port, sizeof(port)) != sizeof(port)) return 0;
    return port;
  }

  /// The server's own peak RSS so far, in MiB (< 0 on error).
  double PeakRssMiB() {
    int64_t kib = 0;
    if (::write(ctl_, "r", 1) != 1) return -1;
    if (::read(status_, &kib, sizeof(kib)) != sizeof(kib)) return -1;
    return static_cast<double>(kib) / 1024;
  }

  /// Closes the control pipe and reaps the child. Returns false if the
  /// child did not exit cleanly.
  bool Stop(struct rusage* ru) {
    if (pid_ <= 0) return true;
    ::close(ctl_);
    ::close(status_);
    int wstatus = 0;
    struct rusage local;
    const pid_t r = ::wait4(pid_, &wstatus, 0, ru != nullptr ? ru : &local);
    pid_ = -1;
    return r > 0 && WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0;
  }

  ~ServerProcess() { Stop(nullptr); }

  const std::string& path() const { return path_; }

  /// The server process's CPU clock.
  bool CpuClock(clockid_t* clock) const {
    return pid_ > 0 && ::clock_getcpuclockid(pid_, clock) == 0;
  }

 private:
  static int ServeChild(const Workload& w, const std::string& path, int ctl,
                        int status) {
    char c;
    if (::read(ctl, &c, 1) != 1) return 0;  // never started
    {
      hazy::engine::Database db(DatabaseOptionsFor(w, path));
      if (!db.Open().ok()) return 2;
      hazy::server::Server server(&db);
      if (!server.Start().ok()) return 3;
      const uint16_t port = server.port();
      if (::write(status, &port, sizeof(port)) != sizeof(port)) return 4;
      // 'r' asks for the peak RSS so far; EOF stops the server.
      while (::read(ctl, &c, 1) > 0) {
        struct rusage ru {};
        ::getrusage(RUSAGE_SELF, &ru);
        const int64_t kib = ru.ru_maxrss;
        if (c == 'r' && ::write(status, &kib, sizeof(kib)) != sizeof(kib)) return 5;
      }
      server.Stop();
    }
    return 0;
  }

  pid_t pid_ = -1;
  int ctl_ = -1;
  int status_ = -1;
  std::string path_;
};

double FileMiB(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<double>(st.st_size) / (1 << 20)
                                        : 0;
}

/// Data file plus WAL.
double DbMiB(const std::string& path) {
  return FileMiB(path) + FileMiB(hazy::storage::WalPathFor(path));
}

void RemoveDb(const std::string& path) {
  ::unlink(path.c_str());
  ::unlink(hazy::storage::WalPathFor(path).c_str());
}

struct Connection {
  std::unique_ptr<HazyClient> client;
  hazy::client::PreparedHandle entity_read;
};

bool Connect(uint16_t port, Connection* c, Checker* check) {
  auto client = HazyClient::Connect("127.0.0.1", port, "perfbench");
  if (!client.ok()) {
    check->Fail("connect: " + client.status().ToString());
    return false;
  }
  c->client = std::move(*client);
  auto h = c->client->Prepare("SELECT class FROM V WHERE id = ?");
  if (!h.ok()) {
    check->Fail("prepare: " + h.status().ToString());
    return false;
  }
  c->entity_read = *h;
  return true;
}

/// A set-up's CPU time (CpuNs over the server) and wall time.
struct SetupTime {
  double cpu_s = 0;
  double wall_s = 0;
};

/// Runs the set-up statements; returns false on failure.
bool RunSetup(HazyClient* client, clockid_t server,
              const std::vector<std::string>& stmts, Checker* check,
              SetupTime* time) {
  const int64_t t0 = NowNs();
  const int64_t c0 = CpuNs(server);
  for (const std::string& sql : stmts) {
    auto rs = client->Query(sql);
    if (!rs.ok()) {
      check->Fail("set-up statement failed: " + rs.status().ToString());
      return false;
    }
  }
  time->cpu_s = static_cast<double>(CpuNs(server) - c0) / 1e9;
  time->wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  return true;
}

/// Whole rounds until `end_ns`, and at least w.measured_rounds, after which
/// the server's peak RSS is read into *rss_mib. Measured round r is logged in
/// window r * kWindows / w.measured_rounds, every later round in *extra.
void RunRounds(const Workload& w, Connection* c, OpStream* stream, int64_t end_ns,
               ServerProcess* server, clockid_t server_clock, ReferenceTask* ref,
               Tally* tally, std::vector<OpLog>* windows, OpLog* extra,
               Checker* check, uint64_t* rounds, double* rss_mib) {
  std::vector<OpItem> ops;
  do {
    OpLog* log = *rounds < w.measured_rounds
                     ? &(*windows)[*rounds * kWindows / w.measured_rounds]
                     : extra;
    stream->NextRound(&ops);
    RunRound(c->client.get(), c->entity_read, ops, tally, log, check, nullptr,
             &server_clock);
    log->ref_us.push_back(ref->RunUs());
    ++*rounds;
    if (*rounds == w.measured_rounds) *rss_mib = server->PeakRssMiB();
  } while (NowNs() < end_ns || *rounds < w.measured_rounds);
}

/// A window's median CPU time of `op`, scaled by the window's reference.
double ScaledCpuUs(const OpLog& window, Op op) {
  return Median(window.cpu_us[static_cast<size_t>(op)]) * kReferenceUs /
         Median(window.ref_us);
}

/// Median over the windows of each window's scaled CPU time: a spell shorter
/// than half the measured rounds moves it less than the median of them all.
double WindowedScaledCpuUs(const std::vector<OpLog>& windows, Op op) {
  std::vector<double> scaled;
  for (const OpLog& w : windows) {
    if (!w.cpu_us[static_cast<size_t>(op)].empty()) scaled.push_back(ScaledCpuUs(w, op));
  }
  return Median(scaled);
}

}  // namespace

int RunSocket(const Args& args, const Workload& w) {
  Checker check;
  ServerProcess servers[kSetups];
  for (int i = 0; i < kSetups; ++i) {
    const std::string path =
        StrFormat("%s/%s-%d.db", args.workdir.c_str(), w.name, i);
    RemoveDb(path);
    if (!servers[i].Fork(w, path)) {
      std::fprintf(stderr, "fork failed\n");
      return 1;
    }
  }

  const Inputs in = MakeInputs(w, args.seed);
  const std::vector<std::string> setup = SetupStatements(w, in);

  // Set up kSetups times; the last set-up is the one the run measures.
  std::vector<SetupTime> setups;
  std::vector<double> setup_db_mib;
  Connection main;
  ServerProcess& server = servers[kSetups - 1];
  clockid_t server_clock{};
  for (int i = 0; i < kSetups; ++i) {
    const uint16_t port = servers[i].Start();
    if (port == 0 || !servers[i].CpuClock(&server_clock) ||
        !Connect(port, &main, &check)) {
      check.Fail("server did not start");
      break;
    }
    SetupTime t;
    if (!RunSetup(main.client.get(), server_clock, setup, &check, &t)) break;
    setups.push_back(t);
    if (i + 1 == kSetups) break;
    main.client->Close().ok();
    if (!servers[i].Stop(nullptr)) check.Fail("server did not exit cleanly");
    setup_db_mib.push_back(DbMiB(servers[i].path()));
    RemoveDb(servers[i].path());
  }
  if (!check.ok()) {
    check.Print();
    return 1;
  }

  const Counters before = ReadCounters(main.client.get(), &check);
  Tally tally;
  tally.issued = tally.inserted = static_cast<int64_t>(w.entities);
  std::vector<OpLog> windows(kWindows);
  OpLog extra;
  uint64_t rounds = 0;
  double rss_mib = -1;
  OpStream stream(w, in, args.seed);
  ReferenceTask ref;
  const int64_t t0 = NowNs();
  RunRounds(w, &main, &stream, t0 + static_cast<int64_t>(args.seconds) * 1000000000,
            &server, server_clock, &ref, &tally, &windows, &extra, &check, &rounds,
            &rss_mib);
  const double elapsed = static_cast<double>(NowNs() - t0) / 1e9;
  const Counters work = Delta(before, ReadCounters(main.client.get(), &check));
  OpLog log = extra;
  for (const OpLog& win : windows) log.Merge(win);

  std::printf("workload %s seed %" PRIu64 ": %" PRIu64 " rounds in %.2f s, the "
              "metrics over the first %zu\n",
              w.name, args.seed, rounds, elapsed, w.measured_rounds);
  // The set-ups are scaled by the reference's median over the measured
  // rounds: run between statements, its CPU time followed what each
  // statement left in the cache more than the host.
  std::vector<double> ref_us;
  for (const OpLog& win : windows) ref_us.insert(ref_us.end(), win.ref_us.begin(), win.ref_us.end());
  const double run_ref_us = Median(ref_us);
  std::vector<double> setup_s;
  std::printf("set-ups (CPU s, wall s, scaled CPU s):");
  for (const SetupTime& t : setups) {
    setup_s.push_back(t.cpu_s * kReferenceUs / run_ref_us);
    std::printf("  %.3f %.3f %.3f", t.cpu_s, t.wall_s, setup_s.back());
  }
  std::printf("\n");
  log.Print("wall-clock latency over the socket (failed requests excluded):");
  const Op kTimed[] = {Op::kEntityRead,    Op::kCountRead,    Op::kMembersRead,
                       Op::kExampleInsert, Op::kEntityInsert, Op::kExampleBatch};
  std::printf("median per op (us): wall and CPU (server + client) over the run; "
              "the metric, scaled CPU (median over the %d windows)\n",
              kWindows);
  for (Op op : kTimed) {
    std::printf("  %-15s wall %10.1f  cpu %10.1f  scaled cpu %10.1f\n", OpName(op),
                log.P50(op), Median(log.cpu_us[static_cast<size_t>(op)]),
                WindowedScaledCpuUs(windows, op));
  }
  std::printf("reference task: median %.1f us over the measured rounds\n", run_ref_us);
  std::printf("per window of %zu rounds: CPU median (us), then scaled:\n",
              w.measured_rounds / kWindows);
  for (bool scaled : {false, true}) {
    for (Op op : kTimed) {
      std::printf("  %-15s", OpName(op));
      for (const OpLog& win : windows) {
        std::printf(" %7.0f", scaled ? ScaledCpuUs(win, op)
                                     : Median(win.cpu_us[static_cast<size_t>(op)]));
      }
      std::printf("\n");
    }
    if (!scaled) {
      std::printf("  %-15s", "reference");
      for (const OpLog& win : windows) std::printf(" %7.0f", Median(win.ref_us));
      std::printf("\n");
    }
  }
  PrintCounters("work counters over the timed phase:", work);

  // Read before the naive cross-check below builds a second, in-memory view.
  const double end_rss_mib = server.PeakRssMiB();
  if (rss_mib < 0 || end_rss_mib < 0) check.Fail("server did not report its peak RSS");

  // Quiescent checks, then the naive cross-check: a NAIVE_MM LAZY view over
  // the same tables must answer exactly as the workload's view.
  std::vector<int8_t> labels, naive;
  double truth = 0, naive_truth = 0;
  CheckQuiescent(main.client.get(), main.entity_read, "V", tally.inserted, in, &check,
                 &labels, &truth);
  auto created = main.client->Query(CreateViewSql("N", "NAIVE_MM", "LAZY"));
  if (!created.ok()) {
    check.Fail("naive cross-check view: " + created.status().ToString());
  } else {
    CheckQuiescent(main.client.get(), main.entity_read, "N", tally.inserted, in,
                   &check, &naive, &naive_truth);
    int64_t differ = 0;
    for (size_t i = 0; i < labels.size() && i < naive.size(); ++i) {
      differ += labels[i] != naive[i];
    }
    std::printf("naive cross-check: %lld of %lld labels differ; ground-truth "
                "agreement %.2f%%\n",
                static_cast<long long>(differ), static_cast<long long>(tally.inserted),
                100 * truth);
    if (differ != 0 || labels.size() != naive.size()) {
      check.Fail("the NAIVE_MM LAZY view disagrees with V");
    }
  }
  main.client->Close().ok();
  struct rusage ru {};
  if (!server.Stop(&ru)) check.Fail("server did not exit cleanly");
  const double final_db_mib = DbMiB(server.path());
  RemoveDb(server.path());
  std::printf("server peak RSS: %.1f MiB after %zu rounds, %.1f MiB at the end "
              "of the timed phase, %.1f MiB at exit (after the naive view)\n",
              rss_mib, w.measured_rounds, end_rss_mib,
              static_cast<double>(ru.ru_maxrss) / 1024);
  std::printf("database (data file + WAL) after a clean close: %.2f MiB after "
              "set-up (median), %.2f MiB after the run\n",
              Median(setup_db_mib), final_db_mib);
  check.Print();

  auto cpu = [&](Op op) { return WindowedScaledCpuUs(windows, op); };
  const double batch_cpu_s = cpu(Op::kExampleBatch) / 1e6;
  const double rows_per_batch = static_cast<double>(w.mix.example_batch_rows);
  PrintResult(check.ok(), log.total_attempted(), log.total_failed(),
              {
                  {"setup_s", Median(setup_s), "s"},
                  {"entity_read_cpu_us", cpu(Op::kEntityRead), "us"},
                  {"count_read_cpu_us", cpu(Op::kCountRead), "us"},
                  {"members_read_cpu_us", cpu(Op::kMembersRead), "us"},
                  {"example_insert_cpu_us", cpu(Op::kExampleInsert), "us"},
                  {"entity_insert_cpu_us", cpu(Op::kEntityInsert), "us"},
                  {"batch_ingest_rows_per_cpu_s",
                   batch_cpu_s > 0 ? rows_per_batch / batch_cpu_s : 0, "rows/cpu-s"},
                  {"server_rss_peak_mib", rss_mib, "MiB"},
                  {"db_file_mib", Median(setup_db_mib), "MiB"},
              });
  return check.ok() ? 0 : 1;
}

}  // namespace perfbench
