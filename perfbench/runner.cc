#include "runner.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <unordered_set>

#include "common/random.h"
#include "common/strings.h"

namespace perfbench {

using hazy::StrFormat;
using hazy::client::HazyClient;
using hazy::client::PreparedHandle;
using hazy::sql::ResultSet;

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = StrFormat(
      "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
      ", \"metrics\": {",
      correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += StrFormat("\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                     metrics[i].name.c_str(), metrics[i].value,
                     metrics[i].unit.c_str());
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void OpLog::Merge(const OpLog& o) {
  for (int i = 0; i < kNumOps; ++i) {
    attempted[i] += o.attempted[i];
    failed[i] += o.failed[i];
    us[i].insert(us[i].end(), o.us[i].begin(), o.us[i].end());
    cpu_us[i].insert(cpu_us[i].end(), o.cpu_us[i].begin(), o.cpu_us[i].end());
  }
  ref_us.insert(ref_us.end(), o.ref_us.begin(), o.ref_us.end());
}

uint64_t OpLog::total_attempted() const {
  uint64_t n = 0;
  for (uint64_t a : attempted) n += a;
  return n;
}

uint64_t OpLog::total_failed() const {
  uint64_t n = 0;
  for (uint64_t f : failed) n += f;
  return n;
}

void OpLog::Print(const char* title) const {
  std::printf("%s\n  %-15s %9s %7s %10s %12s %8s\n", title, "op", "attempted",
              "failed", "p50_us", "tail_us", "samples");
  for (int i = 0; i < kNumOps; ++i) {
    if (attempted[i] == 0) continue;
    // The highest percentile with at least ten samples beyond it; none
    // below forty samples.
    const size_t n = us[i].size();
    std::string tail = "-";
    for (double q : {0.999, 0.99, 0.9}) {
      if (n >= 40 && static_cast<double>(n) * (1 - q) >= 10) {
        tail = StrFormat("p%g=%.1f", 100 * q, Percentile(us[i], q));
        break;
      }
    }
    std::printf("  %-15s %9" PRIu64 " %7" PRIu64 " %10.1f %12s %8zu\n",
                OpName(static_cast<Op>(i)), attempted[i], failed[i],
                Percentile(us[i], 0.5), tail.c_str(), n);
  }
}

void Checker::Fail(const std::string& msg) {
  if (messages_.size() < 8) messages_.push_back(msg);
  ++failures_;
}

void Checker::Print() const {
  if (ok()) {
    std::printf("output checks: all passed\n");
    return;
  }
  std::printf("output checks: %" PRIu64 " FAILED\n", failures_);
  for (const std::string& m : messages_) std::printf("  %s\n", m.c_str());
}

void Tracer::Begin(const char* name) {
  const int32_t parent = open_.empty() ? -1 : open_.back();
  open_.push_back(static_cast<int32_t>(spans_.size()));
  spans_.push_back(Span{name, NowNs(), 0, parent});
}

void Tracer::End() {
  spans_[static_cast<size_t>(open_.back())].end_ns = NowNs();
  open_.pop_back();
}

std::vector<double> Tracer::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  }
  return out;
}

bool WriteSpans(const std::string& path, const Tracer& tracer) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const auto& spans = tracer.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %" PRId64
                 ", \"end_ns\": %" PRId64 ", \"parent\": %d}\n",
                 i, s.name, s.start_ns, s.end_ns, s.parent);
  }
  return std::fclose(f) == 0;
}

namespace {

int64_t ClockNs(clockid_t clock) {
  struct timespec ts {};
  ::clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace

int64_t CpuNs(clockid_t server) {
  return ClockNs(server) + ClockNs(CLOCK_THREAD_CPUTIME_ID);
}

ReferenceTask::ReferenceTask() : probes_(20000) {
  hazy::Rng rng(0xCA11B8A7Eull);
  std::vector<uint64_t> keys(65536);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = rng.Next();
    map_[keys[i]] = static_cast<uint32_t>(i);
  }
  for (size_t i = 0; i < probes_.size(); ++i) {
    probes_[i] = i % 2 == 0 ? keys[rng.Uniform(keys.size())] : rng.Next();
  }
}

double ReferenceTask::RunUs() {
  const int64_t t0 = ClockNs(CLOCK_THREAD_CPUTIME_ID);
  uint64_t sum = 0;
  for (uint64_t key : probes_) {
    auto it = map_.find(key);
    if (it != map_.end()) sum += it->second;
  }
  sink_ = sum;
  return static_cast<double>(ClockNs(CLOCK_THREAD_CPUTIME_ID) - t0) / 1e3;
}

namespace {

// "request.<type>".
const char* SpanName(Op op) {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (int i = 0; i < kNumOps; ++i) {
      v.push_back("request." + std::string(OpName(static_cast<Op>(i))));
    }
    return v;
  }();
  return names[static_cast<size_t>(op)].c_str();
}

hazy::StatusOr<ResultSet> Send(HazyClient* client, const PreparedHandle& entity_read,
                               const OpItem& op) {
  if (op.op == Op::kEntityRead || op.op == Op::kMissRead) {
    return client->ExecPrepared(entity_read, {hazy::storage::Value(op.id)});
  }
  return client->Query(op.sql);
}

// Checks one answer on its own; returns the value later checks compare.
void CheckAnswer(const OpItem& op, const ResultSet& rs, int64_t id_bound,
                 Checker* check, int64_t* count, std::vector<int64_t>* members) {
  const char* name = OpName(op.op);
  switch (op.op) {
    case Op::kEntityRead: {
      auto label = rs.rows.size() == 1 ? rs.TextAt(0, 0)
                                       : hazy::StatusOr<std::string>(
                                             hazy::Status::Internal("row count"));
      if (!label.ok() || (*label != kLabels[0] && *label != kLabels[1])) {
        check->Fail(StrFormat("%s id %lld: %zu rows, expected one row with a label",
                              name, static_cast<long long>(op.id), rs.rows.size()));
      }
      break;
    }
    case Op::kMissRead:
      if (!rs.rows.empty()) {
        check->Fail(StrFormat("%s id %lld: %zu rows for an id never inserted", name,
                              static_cast<long long>(op.id), rs.rows.size()));
      }
      break;
    case Op::kCountRead: {
      auto n = rs.rows.size() == 1 ? rs.Int64At(0, 0)
                                   : hazy::StatusOr<int64_t>(
                                         hazy::Status::Internal("row count"));
      if (!n.ok() || *n < 0 || *n > id_bound) {
        check->Fail(StrFormat("%s '%s': bad count", name, kLabels[op.label]));
      } else {
        *count = *n;
      }
      break;
    }
    case Op::kMembersRead: {
      members->clear();
      std::unordered_set<int64_t> seen;
      for (size_t r = 0; r < rs.rows.size(); ++r) {
        auto id = rs.Int64At(r, 0);
        if (!id.ok() || *id < 1 || *id > id_bound || !seen.insert(*id).second) {
          check->Fail(StrFormat("%s '%s': row %zu is a duplicate or an id never "
                                "inserted",
                                name, kLabels[op.label], r));
          break;
        }
        members->push_back(*id);
      }
      break;
    }
    case Op::kExampleInsert:
    case Op::kEntityInsert:
    case Op::kExampleBatch:
      if (rs.affected_rows != static_cast<int64_t>(op.rows)) {
        check->Fail(StrFormat("%s: %lld rows written, expected %zu", name,
                              static_cast<long long>(rs.affected_rows), op.rows));
      }
      break;
    case Op::kNumOps:
      break;
  }
}

}  // namespace

void RunRound(HazyClient* client, const PreparedHandle& entity_read,
              const std::vector<OpItem>& ops, Tally* tally, OpLog* log,
              Checker* check, Tracer* tracer, const clockid_t* server_clock) {
  int64_t first_count = -1;
  std::vector<int64_t> members;
  for (const OpItem& op : ops) {
    const int k = static_cast<int>(op.op);
    if (op.op == Op::kEntityInsert) tally->issued = op.id;
    // Traced and untraced entity reads alternate, and swap every round (each
    // round has one miss read), so neither sits at fixed places in a round.
    const uint64_t parity =
        log->attempted[k] + log->attempted[static_cast<int>(Op::kMissRead)];
    const bool traced = tracer != nullptr && !(op.op == Op::kEntityRead && parity % 2 == 1);
    if (traced) tracer->Begin(SpanName(op.op));
    const int64_t c0 = server_clock != nullptr ? CpuNs(*server_clock) : 0;
    const int64_t t0 = NowNs();
    hazy::StatusOr<ResultSet> rs = Send(client, entity_read, op);
    const int64_t t1 = NowNs();
    const int64_t c1 = server_clock != nullptr ? CpuNs(*server_clock) : 0;
    if (traced) tracer->End();
    ++log->attempted[k];
    if (!rs.ok()) {
      ++log->failed[k];
      std::printf("FAILED %s: %s\n", OpName(op.op), rs.status().ToString().c_str());
      continue;
    }
    const double us = static_cast<double>(t1 - t0) / 1e3;
    if (tracer != nullptr && !traced) {
      log->untraced_entity_read_us.push_back(us);
    } else {
      log->us[k].push_back(us);
    }
    if (server_clock != nullptr) {
      log->cpu_us[k].push_back(static_cast<double>(c1 - c0) / 1e3);
    }
    if (op.op == Op::kEntityInsert) ++tally->inserted;

    int64_t count = -1;
    CheckAnswer(op, *rs, tally->issued, check, &count, &members);
    if (op.op == Op::kCountRead && count >= 0) {
      if (first_count < 0) {
        first_count = count;
      } else {
        // COUNT(a), All Members(a), COUNT(b) ran with no write in between.
        if (first_count + count != tally->inserted) {
          check->Fail(StrFormat("COUNT per label sums to %lld, but %lld entities "
                                "were inserted",
                                static_cast<long long>(first_count + count),
                                static_cast<long long>(tally->inserted)));
        }
        if (static_cast<int64_t>(members.size()) != first_count) {
          check->Fail(StrFormat("All Members returned %zu ids, COUNT said %lld",
                                members.size(), static_cast<long long>(first_count)));
        }
        first_count = -1;
      }
    }
  }
}

void CheckQuiescent(HazyClient* client, const PreparedHandle& entity_read,
                    const std::string& view, int64_t tally, const Inputs& in,
                    Checker* check, std::vector<int8_t>* labels,
                    double* truth_agreement) {
  labels->assign(static_cast<size_t>(tally), -1);
  int64_t counted = 0;
  for (int l = 0; l < 2; ++l) {
    auto n = client->Query(StrFormat("SELECT COUNT(*) FROM %s WHERE class = '%s'",
                                     view.c_str(), kLabels[l]));
    auto rs = client->Query(StrFormat("SELECT id FROM %s WHERE class = '%s'",
                                      view.c_str(), kLabels[l]));
    if (!n.ok() || !rs.ok() || n->rows.size() != 1 || !n->Int64At(0, 0).ok()) {
      check->Fail(StrFormat("%s: quiescent COUNT/All Members of '%s' failed",
                            view.c_str(), kLabels[l]));
      return;
    }
    counted += *n->Int64At(0, 0);
    if (static_cast<int64_t>(rs->rows.size()) != *n->Int64At(0, 0)) {
      check->Fail(StrFormat("%s: All Members '%s' has %zu ids, COUNT says %lld",
                            view.c_str(), kLabels[l], rs->rows.size(),
                            static_cast<long long>(*n->Int64At(0, 0))));
    }
    for (size_t r = 0; r < rs->rows.size(); ++r) {
      auto id = rs->Int64At(r, 0);
      if (!id.ok() || *id < 1 || *id > tally || (*labels)[*id - 1] != -1) {
        check->Fail(StrFormat("%s: All Members '%s' holds a duplicate or an id "
                              "never inserted",
                              view.c_str(), kLabels[l]));
        return;
      }
      (*labels)[*id - 1] = static_cast<int8_t>(l);
    }
  }
  if (counted != tally) {
    check->Fail(StrFormat("%s: COUNT per label sums to %lld, but %lld entities "
                          "were inserted",
                          view.c_str(), static_cast<long long>(counted),
                          static_cast<long long>(tally)));
  }
  int64_t agree = 0;
  for (int64_t id = 1; id <= tally; ++id) {
    if ((*labels)[id - 1] == TruthOf(in, id)) ++agree;
  }
  *truth_agreement = tally > 0 ? static_cast<double>(agree) / tally : 0;
  if (*truth_agreement < kTruthFloor) {
    check->Fail(StrFormat("%s: labels agree with the ground truth on %.1f%% of "
                          "entities, below the %.0f%% floor",
                          view.c_str(), 100 * *truth_agreement, 100 * kTruthFloor));
  }
  // Single Entity reads agree with All Members (every 97th id).
  if (view == "V") {
    for (int64_t id = 1; id <= tally; id += 97) {
      auto rs = client->ExecPrepared(entity_read, {hazy::storage::Value(id)});
      auto label = rs.ok() && rs->rows.size() == 1
                       ? rs->TextAt(0, 0)
                       : hazy::StatusOr<std::string>(hazy::Status::Internal(""));
      if (!label.ok() || *label != kLabels[(*labels)[id - 1]]) {
        check->Fail(StrFormat("V: Single Entity read of %lld disagrees with All "
                              "Members",
                              static_cast<long long>(id)));
        return;
      }
    }
  }
}

namespace {

struct CounterSource {
  const char* key;
  const char* metric;
  bool view_only;  ///< only samples of the workload's view V
};

const CounterSource kCounterSources[] = {
    {"core.updates", "hazy_view_updates_total", true},
    {"core.reorgs", "hazy_view_reorgs_total", true},
    {"core.window_tuples", "hazy_view_window_tuples_total", true},
    {"core.label_flips", "hazy_view_label_flips_total", true},
    {"core.tuples_scanned", "hazy_view_tuples_scanned_total", true},
    {"core.epochs_published", "hazy_epoch_published", true},
    {"storage.pool_misses", "hazy_pool_misses_total", false},
    {"storage.pool_evictions", "hazy_pool_evictions_total", false},
    {"storage.dirty_writebacks", "hazy_pool_dirty_writebacks_total", false},
    {"storage.pager_reads", "hazy_pager_reads_total", false},
    {"storage.pager_writes", "hazy_pager_writes_total", false},
    {"storage.wal_bytes", "hazy_wal_bytes_total", false},
    {"storage.wal_syncs", "hazy_wal_syncs_total", false},
    {"persist.checkpoints", "hazy_checkpoint_commit_us_count", false},
    // A lifetime quantile, not a delta.
    {"persist.checkpoint_commit_p50_us", "hazy_checkpoint_commit_us_p50", false},
};

bool IsQuantile(const std::string& key) {
  return key.size() > 7 && key.compare(key.size() - 7, 7, "_p50_us") == 0;
}

}  // namespace

Counters ReadCounters(HazyClient* client, Checker* check) {
  Counters out;
  for (const CounterSource& src : kCounterSources) out[src.key] = 0;
  auto rs = client->Stats("hazy_");
  if (!rs.ok()) {
    check->Fail("STATS failed: " + rs.status().ToString());
    return out;
  }
  for (size_t r = 0; r < rs->rows.size(); ++r) {
    auto name = rs->TextAt(r, 0);
    auto labels = rs->TextAt(r, 1);
    auto value = rs->DoubleAt(r, 3);
    if (!name.ok() || !labels.ok() || !value.ok()) continue;
    for (const CounterSource& src : kCounterSources) {
      if (*name != src.metric) continue;
      if (src.view_only && labels->find("view=\"V\"") == std::string::npos) continue;
      out[src.key] += *value;
    }
  }
  return out;
}

Counters Delta(const Counters& before, const Counters& after) {
  Counters out;
  for (const auto& [key, v] : after) {
    auto it = before.find(key);
    out[key] = IsQuantile(key) || it == before.end() ? v : v - it->second;
  }
  return out;
}

void PrintCounters(const char* title, const Counters& c) {
  std::printf("%s\n", title);
  for (const auto& [key, v] : c) std::printf("  %-34s %.10g\n", key.c_str(), v);
}

}  // namespace perfbench
