// The traced pass: the same seed and operation sequence as the socket run,
// but in process through HazyClient::Loopback (the same Session::HandleFrame
// path the server runs) and for a fixed number of rounds, so its work
// counters repeat exactly. It runs in three parts:
//
//   1. Traced rounds: every request with a span around it and nothing else,
//      so the registry counters read through STATS over them are the
//      workload's own work.
//   2. Probe rounds: as many rounds again, continuing the stream. Writes are
//      sent as before; each read instead goes through the public entry
//      points of the layers a request goes through (sql::Parse,
//      sql::Executor::Execute, engine::ManagedView, the pinned
//      core::EpochSnapshot), timed one by one. Their counters are not
//      reported: a lazy view's own scans feed its Skiing strategy and
//      reorganise it, which the SQL snapshot path never does.
//   3. A standalone view from core::view_factory replays the writes without
//      WAL or epochs, to time the core update paths, featurisation and the
//      SGD step alone.
//
// Nothing here adds tracing inside the library.

#include "traced_run.h"

#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <mutex>

#include "common/strings.h"
#include "core/view_factory.h"
#include "engine/database.h"
#include "features/feature_function.h"
#include "server/server.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "storage/wal.h"

namespace perfbench {

using hazy::StrFormat;
using hazy::client::HazyClient;

namespace {

constexpr int kPings = 2000;

/// Times each layer's public entry point for one operation of the stream,
/// without sending a request, and checks that the layers agree with each
/// other (no write runs in between).
class LayerProbe {
 public:
  LayerProbe(hazy::engine::Database* db, hazy::engine::ManagedView* view,
             Tracer* tracer, Checker* check)
      : db_(db), view_(view), exec_(db), tracer_(tracer), check_(check) {}

  void Probe(const OpItem& op) {
    switch (op.op) {
      case Op::kEntityRead: {
        const std::string sql =
            StrFormat("SELECT class FROM V WHERE id = %lld", static_cast<long long>(op.id));
        auto stmt = tracer_->Time("sql.parse_entity_read",
                                  [&] { return hazy::sql::Parse(sql); });
        if (!stmt.ok()) return check_->Fail("sql::Parse: " + stmt.status().ToString());
        auto rs = Execute("sql.execute_entity_read", *stmt);
        auto label = tracer_->Time("engine.label_of", [&] {
          std::lock_guard<std::recursive_mutex> lock(*db_->statement_mutex());
          return view_->LabelOf(op.id);
        });
        if (!rs.ok() || !label.ok() || rs->rows.size() != 1 ||
            *label != *rs->TextAt(0, 0)) {
          check_->Fail(StrFormat("ManagedView::LabelOf(%lld) disagrees with SQL",
                                 static_cast<long long>(op.id)));
        }
        break;
      }
      case Op::kCountRead: {
        auto stmt = hazy::sql::Parse(op.sql);
        if (!stmt.ok()) return check_->Fail("sql::Parse: " + stmt.status().ToString());
        auto rs = Execute("sql.execute_count_read", *stmt);
        auto n = tracer_->Time("engine.count_of", [&] {
          std::lock_guard<std::recursive_mutex> lock(*db_->statement_mutex());
          return view_->CountOf(kLabels[op.label]);
        });
        hazy::core::SnapshotPin pin = view_->PinSnapshot();
        auto snap_n = tracer_->Time("core.snapshot_count", [&] {
          return pin->AllMembersCount(op.label == 0 ? 1 : -1);
        });
        const auto sql_n = rs.ok() ? rs->Int64At(0, 0)
                                   : hazy::StatusOr<int64_t>(rs.status());
        if (!sql_n.ok() || !n.ok() || !snap_n.ok() ||
            static_cast<int64_t>(*n) != *sql_n ||
            static_cast<int64_t>(*snap_n) != *sql_n) {
          check_->Fail("ManagedView::CountOf or EpochSnapshot::AllMembersCount "
                       "disagrees with SQL COUNT");
        }
        break;
      }
      case Op::kMembersRead: {
        auto stmt = hazy::sql::Parse(op.sql);
        if (!stmt.ok()) return check_->Fail("sql::Parse: " + stmt.status().ToString());
        auto rs = Execute("sql.execute_members_read", *stmt);
        auto ids = tracer_->Time("engine.members_of", [&] {
          std::lock_guard<std::recursive_mutex> lock(*db_->statement_mutex());
          return view_->MembersOf(kLabels[op.label]);
        });
        hazy::core::SnapshotPin pin = view_->PinSnapshot();
        auto snap_ids = tracer_->Time("core.snapshot_members", [&] {
          return pin->AllMembers(op.label == 0 ? 1 : -1);
        });
        if (!rs.ok() || !ids.ok() || !snap_ids.ok() || ids->size() != rs->rows.size() ||
            snap_ids->size() != rs->rows.size()) {
          check_->Fail("ManagedView::MembersOf or EpochSnapshot::AllMembers "
                       "disagrees with SQL All Members");
        }
        break;
      }
      case Op::kExampleBatch: {
        auto stmt = tracer_->Time("sql.parse_batch_insert",
                                  [&] { return hazy::sql::Parse(op.sql); });
        if (!stmt.ok()) check_->Fail("sql::Parse: " + stmt.status().ToString());
        break;
      }
      default:
        break;
    }
  }

 private:
  // Mirrors Session: snapshot reads run without the statement mutex.
  hazy::StatusOr<hazy::sql::ResultSet> Execute(const char* span,
                                               const hazy::sql::Statement& stmt) {
    auto rs = tracer_->Time(span, [&] {
      if (hazy::sql::IsSnapshotRead(db_, stmt)) return exec_.Execute(stmt);
      std::lock_guard<std::recursive_mutex> lock(*db_->statement_mutex());
      return exec_.Execute(stmt);
    });
    if (!rs.ok()) check_->Fail(StrFormat("Executor::Execute (%s): %s", span,
                                         rs.status().ToString().c_str()));
    return rs;
  }

  hazy::engine::Database* db_;
  hazy::engine::ManagedView* view_;
  hazy::sql::Executor exec_;
  Tracer* tracer_;
  Checker* check_;
};

struct LoopbackConnection {
  std::unique_ptr<HazyClient> client;
  hazy::client::PreparedHandle entity_read;
};

bool OpenLoopback(hazy::engine::Database* db, LoopbackConnection* c, Checker* check) {
  auto client = HazyClient::Loopback(db, "perfbench-traced");
  if (!client.ok()) {
    check->Fail("loopback: " + client.status().ToString());
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

/// Replays the traced rounds' writes on a standalone core view of the
/// architecture and mode `def` declares: no WAL, no epochs, no SQL. Adds
/// core.update/update_batch/add_entity, features.featurize and ml.sgd_step
/// spans.
void StandaloneCore(const Args& args, const Workload& w, const Inputs& in,
                    const hazy::engine::ClassificationViewDef& def,
                    Tracer* tracer, Checker* check) {
  auto fn = hazy::features::MakeFeatureFunction("tf_bag_of_words");
  if (!fn.ok()) return check->Fail("feature function: " + fn.status().ToString());
  std::vector<std::string> corpus;
  for (size_t i = 0; i < w.entities; ++i) corpus.push_back(in.docs[i].text);
  if (!(*fn)->ComputeStats(corpus).ok()) return check->Fail("ComputeStats failed");
  std::vector<hazy::ml::FeatureVector> features;
  std::vector<hazy::core::Entity> entities;
  for (size_t i = 0; i < w.entities; ++i) {
    auto f = (*fn)->ComputeFeature(corpus[i]);
    if (!f.ok()) return check->Fail("ComputeFeature failed");
    features.push_back(*f);
    entities.push_back({static_cast<int64_t>(i + 1), std::move(*f)});
  }

  const std::string path = StrFormat("%s/%s-core.db", args.workdir.c_str(), w.name);
  hazy::storage::Pager pager;
  if (!pager.Open(path).ok()) return check->Fail("pager open failed");
  auto pool = std::make_unique<hazy::storage::BufferPool>(&pager, w.pool_pages);
  hazy::core::ViewOptions opts = DatabaseOptionsFor(w, path).view_defaults;
  opts.mode = def.mode;
  auto view = hazy::core::MakeView(def.architecture, opts, pool.get());
  if (!view.ok()) return check->Fail("MakeView: " + view.status().ToString());
  hazy::core::ClassificationView* v = view->get();
  if (!v->BulkLoad(entities).ok()) return check->Fail("BulkLoad failed");
  entities.clear();

  auto example = [&](int64_t id) {
    return hazy::ml::LabeledExample{id, features[static_cast<size_t>(id - 1)],
                                    TruthOf(in, id) == 0 ? 1 : -1};
  };
  for (size_t i = 0; i < in.warmup.size(); i += kSetupBatchRows) {
    std::vector<hazy::ml::LabeledExample> batch;
    for (size_t j = i; j < std::min(i + kSetupBatchRows, in.warmup.size()); ++j) {
      batch.push_back(example(in.warmup[j]));
    }
    if (!v->UpdateBatch(batch).ok()) return check->Fail("warm-up UpdateBatch failed");
  }

  hazy::ml::LinearModel shadow = v->model();
  hazy::ml::SgdTrainer trainer(opts.sgd);
  OpStream stream(w, in, args.seed);
  std::vector<OpItem> ops;
  hazy::Status st;
  for (size_t r = 0; r < w.traced_rounds && st.ok(); ++r) {
    stream.NextRound(&ops);
    for (const OpItem& op : ops) {
      if (op.op == Op::kExampleInsert) {
        const auto ex = example(op.id);
        tracer->Time("ml.sgd_step", [&] {
          trainer.AddExample(&shadow, ex);
          return 0;
        });
        st = tracer->Time("core.update", [&] { return v->Update(ex); });
      } else if (op.op == Op::kExampleBatch) {
        std::vector<hazy::ml::LabeledExample> batch;
        for (int64_t id : op.ids) batch.push_back(example(id));
        st = tracer->Time("core.update_batch", [&] { return v->UpdateBatch(batch); });
      } else if (op.op == Op::kEntityInsert) {
        const std::string& doc = in.docs[static_cast<size_t>(op.id - 1)].text;
        auto f = tracer->Time("features.featurize", [&] {
          hazy::Status s = (*fn)->ComputeStatsInc(doc);
          return s.ok() ? (*fn)->ComputeFeature(doc)
                        : hazy::StatusOr<hazy::ml::FeatureVector>(s);
        });
        if (!f.ok()) {
          st = f.status();
          break;
        }
        features.push_back(*f);
        hazy::core::Entity e{op.id, std::move(*f)};
        st = tracer->Time("core.add_entity", [&] { return v->AddEntity(e); });
      }
    }
  }
  if (!st.ok()) check->Fail("standalone core view: " + st.ToString());
  view->reset();
  pool.reset();
  pager.Close().ok();
  ::unlink(path.c_str());
}

}  // namespace

int RunTraced(const Args& args, const Workload& w) {
  Checker check;
  const Inputs in = MakeInputs(w, args.seed);
  const std::string path = StrFormat("%s/%s-traced.db", args.workdir.c_str(), w.name);
  ::unlink(path.c_str());
  ::unlink(hazy::storage::WalPathFor(path).c_str());

  Tracer tracer;
  OpLog log;
  Counters work;
  hazy::engine::ClassificationViewDef def;
  {
    hazy::engine::Database db(DatabaseOptionsFor(w, path));
    if (!db.Open().ok()) {
      std::printf("cannot open %s\n", path.c_str());
      return 1;
    }
    LoopbackConnection conn;
    if (!OpenLoopback(&db, &conn, &check)) return 1;
    const int64_t s0 = NowNs();
    for (const std::string& sql : SetupStatements(w, in)) {
      auto rs = conn.client->Query(sql);
      if (!rs.ok()) {
        check.Fail("set-up statement failed: " + rs.status().ToString());
        check.Print();
        return 1;
      }
    }
    const double setup_s = static_cast<double>(NowNs() - s0) / 1e9;
    auto view = db.GetView("V");
    if (!view.ok()) return 1;
    def = (*view)->def();

    // 1. Traced rounds: requests only.
    Tally tally;
    tally.issued = tally.inserted = static_cast<int64_t>(w.entities);
    const Counters before = ReadCounters(conn.client.get(), &check);
    const int64_t t0 = NowNs();
    OpStream stream(w, in, args.seed);
    std::vector<OpItem> ops;
    for (size_t r = 0; r < w.traced_rounds; ++r) {
      stream.NextRound(&ops);
      tracer.Begin("round");
      RunRound(conn.client.get(), conn.entity_read, ops, &tally, &log, &check, &tracer);
      tracer.End();
    }
    const double elapsed = static_cast<double>(NowNs() - t0) / 1e9;
    const Counters after = ReadCounters(conn.client.get(), &check);
    work = Delta(before, after);

    // One CHECKPOINT of the final state, after the counters above: the
    // timed phases run none (see README.md), so this is where persist.*
    // comes from.
    tracer.Time("persist.checkpoint", [&] {
      auto rs = conn.client->Query("CHECKPOINT");
      if (!rs.ok()) check.Fail("CHECKPOINT: " + rs.status().ToString());
      return 0;
    });
    const Counters checkpointed = Delta(after, ReadCounters(conn.client.get(), &check));
    for (const char* key : {"persist.checkpoints", "persist.checkpoint_commit_p50_us"}) {
      work[key] = checkpointed.at(key);
    }

    // 2. Probe rounds: writes are sent untimed, reads are probed.
    LayerProbe probe(&db, *view, &tracer, &check);
    OpLog probe_writes;
    const int64_t p0 = NowNs();
    for (size_t r = 0; r < w.traced_rounds; ++r) {
      stream.NextRound(&ops);
      tracer.Begin("probe_round");
      for (const OpItem& op : ops) {
        if (op.op == Op::kExampleInsert || op.op == Op::kEntityInsert ||
            op.op == Op::kExampleBatch) {
          RunRound(conn.client.get(), conn.entity_read, {op}, &tally, &probe_writes,
                   &check);
        }
        probe.Probe(op);
      }
      tracer.End();
    }
    const double probe_elapsed = static_cast<double>(NowNs() - p0) / 1e9;
    if (probe_writes.total_failed() > 0) check.Fail("a write of the probe rounds failed");

    // PING round trips over a real socket to a server on the same database.
    {
      hazy::server::Server server(&db);
      if (!server.Start().ok()) {
        check.Fail("in-process server did not start");
      } else {
        auto sock = HazyClient::Connect("127.0.0.1", server.port(), "perfbench-ping");
        if (!sock.ok()) {
          check.Fail("ping connect: " + sock.status().ToString());
        } else {
          for (int i = 0; i < kPings; ++i) {
            tracer.Time("rpc.ping", [&] {
              if (!(*sock)->Ping().ok()) check.Fail("PING failed");
              return 0;
            });
          }
          (*sock)->Close().ok();
        }
        server.Stop();
      }
    }
    std::printf("traced pass %s seed %" PRIu64 ": set-up %.3f s in process, %zu "
                "traced rounds in %.2f s, %zu probe rounds in %.2f s\n",
                w.name, args.seed, setup_s, w.traced_rounds, elapsed, w.traced_rounds,
                probe_elapsed);
    conn.client->Close().ok();
  }
  ::unlink(path.c_str());
  ::unlink(hazy::storage::WalPathFor(path).c_str());

  StandaloneCore(args, w, in, def, &tracer, &check);

  log.Print("operations through the loopback transport (traced pass):");
  PrintCounters("registry counters over the traced rounds:", work);

  auto p50 = [&](const char* span) { return Median(tracer.DurationsUs(span)); };
  const double traced_read = p50("request.entity_read");
  const double untraced_read = Median(log.untraced_entity_read_us);
  std::vector<Metric> metrics = {
      {"rpc.ping_rtt_p50_us", p50("rpc.ping"), "us"},
      {"server.loopback_entity_read_p50_us", traced_read, "us"},
      {"server.loopback_example_insert_p50_us", p50("request.example_insert"), "us"},
      {"server.loopback_count_read_p50_us", p50("request.count_read"), "us"},
      {"server.loopback_members_read_p50_us", p50("request.members_read"), "us"},
      {"sql.parse_entity_read_us", p50("sql.parse_entity_read"), "us"},
      {"sql.parse_batch_insert_us", p50("sql.parse_batch_insert"), "us"},
      {"sql.execute_entity_read_p50_us", p50("sql.execute_entity_read"), "us"},
      {"sql.execute_count_read_p50_us", p50("sql.execute_count_read"), "us"},
      {"sql.execute_members_read_p50_us", p50("sql.execute_members_read"), "us"},
      {"engine.label_of_p50_us", p50("engine.label_of"), "us"},
      {"engine.count_of_p50_us", p50("engine.count_of"), "us"},
      {"engine.members_of_p50_us", p50("engine.members_of"), "us"},
      {"core.snapshot_count_p50_us", p50("core.snapshot_count"), "us"},
      {"core.snapshot_members_p50_us", p50("core.snapshot_members"), "us"},
      {"core.update_p50_us", p50("core.update"), "us"},
      {"core.update_batch_p50_us", p50("core.update_batch"), "us"},
      {"core.add_entity_p50_us", p50("core.add_entity"), "us"},
      {"features.featurize_p50_us", p50("features.featurize"), "us"},
      {"ml.sgd_step_p50_us", p50("ml.sgd_step"), "us"},
      {"trace.untraced_entity_read_p50_us", untraced_read, "us"},
      {"trace.overhead_pct",
       untraced_read > 0 ? 100 * (traced_read / untraced_read - 1) : 0, "%"},
      {"trace.ops", static_cast<double>(log.total_attempted()), "count"},
  };
  for (const char* key :
       {"core.updates", "core.window_tuples", "core.reorgs", "core.label_flips",
        "core.tuples_scanned", "core.epochs_published", "storage.pool_misses",
        "storage.pool_evictions", "storage.dirty_writebacks", "storage.pager_reads",
        "storage.pager_writes", "storage.wal_bytes", "storage.wal_syncs",
        "persist.checkpoints"}) {
    metrics.push_back({key, work[key], "count"});
  }
  metrics.push_back({"persist.checkpoint_commit_p50_us",
                     work["persist.checkpoint_commit_p50_us"], "us"});

  std::printf("per-layer table (p50 of each span; counters are deltas):\n");
  for (const Metric& m : metrics) {
    std::printf("  %-40s %14.3f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const std::string spans_path =
      StrFormat("%s/spans-%s-%" PRIu64 ".jsonl", args.workdir.c_str(), w.name, args.seed);
  if (!WriteSpans(spans_path, tracer)) check.Fail("cannot write " + spans_path);
  std::printf("%zu spans written to %s\n", tracer.spans().size(), spans_path.c_str());
  check.Print();
  PrintResult(check.ok(), log.total_attempted(), log.total_failed(), metrics);
  return check.ok() ? 0 : 1;
}

}  // namespace perfbench
