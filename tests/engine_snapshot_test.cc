// Snapshot-read semantics through the engine, for every architecture in
// both maintenance modes: at a batch boundary a snapshot SQL read answers
// bit-identically to the live view; mid-batch readers stay on the pre-batch
// epoch (MVCC-lite — reads never see a half-applied batch); pinned epochs
// reclaim only after the last reader unpins; and a checkpoint racing
// concurrent snapshot readers recovers to bit-identical view state.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "engine/database.h"
#include "persist/checkpoint.h"
#include "sql/executor.h"
#include "storage/table.h"
#include "test_corpus.h"

namespace hazy::engine {
namespace {

struct ArchMode {
  core::Architecture arch;
  core::Mode mode;
  const char* name;
};

constexpr ArchMode kArchModes[] = {
    {core::Architecture::kNaiveMM, core::Mode::kEager, "NaiveMMEager"},
    {core::Architecture::kNaiveMM, core::Mode::kLazy, "NaiveMMLazy"},
    {core::Architecture::kHazyMM, core::Mode::kEager, "HazyMMEager"},
    {core::Architecture::kHazyMM, core::Mode::kLazy, "HazyMMLazy"},
    {core::Architecture::kNaiveOD, core::Mode::kEager, "NaiveODEager"},
    {core::Architecture::kNaiveOD, core::Mode::kLazy, "NaiveODLazy"},
    {core::Architecture::kHazyOD, core::Mode::kEager, "HazyODEager"},
    {core::Architecture::kHazyOD, core::Mode::kLazy, "HazyODLazy"},
    {core::Architecture::kHybrid, core::Mode::kEager, "HybridEager"},
    {core::Architecture::kHybrid, core::Mode::kLazy, "HybridLazy"},
};

class EngineSnapshotTest : public ::testing::TestWithParam<ArchMode> {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    ASSERT_TRUE(db_->Open().ok());
    BuildTestCorpus(db_.get());
    auto examples = db_->catalog()->GetTable("Example_Papers");
    ASSERT_TRUE(examples.ok());
    examples_ = *examples;
    exec_ = std::make_unique<sql::Executor>(db_.get());
  }

  ClassificationViewDef Def() {
    ClassificationViewDef def;
    def.view_name = "Labeled_Papers";
    def.entity_table = "Papers";
    def.entity_key = "id";
    def.label_table = "Paper_Area";
    def.label_column = "label";
    def.example_table = "Example_Papers";
    def.example_key = "id";
    def.example_label = "label";
    def.feature_function = "tf_bag_of_words";
    def.architecture = GetParam().arch;
    def.mode = GetParam().mode;
    return def;
  }

  ManagedView* MustCreateView() {
    auto view = db_->CreateClassificationView(Def());
    EXPECT_TRUE(view.ok()) << view.status().ToString();
    return view.ok() ? *view : nullptr;
  }

  void TrainAll() {
    for (int64_t id = 0; id < 10; ++id) {
      const char* label = id < 5 ? "DB" : "OTHER";
      ASSERT_TRUE(examples_->Insert(
                      storage::Row{id, std::string(label)}).ok());
    }
  }

  sql::ResultSet MustExec(const std::string& sql) {
    auto rs = exec_->Execute(sql);
    EXPECT_TRUE(rs.ok()) << sql << " -> " << rs.status().ToString();
    return rs.ok() ? *rs : sql::ResultSet{};
  }

  std::string Encoded(const sql::ResultSet& rs) {
    std::string payload;
    EXPECT_TRUE(rs.Encode(&payload).ok());
    return payload;
  }

  std::unique_ptr<Database> db_;
  storage::Table* examples_ = nullptr;
  std::unique_ptr<sql::Executor> exec_;
};

// At a batch boundary every snapshot SQL read shape (single-entity, members,
// count) answers bit-identically to the live view's engine API — the core
// invariant that makes skipping the statement gate sound.
TEST_P(EngineSnapshotTest, SnapshotAnswersMatchLiveViewAtBatchBoundary) {
  ManagedView* view = MustCreateView();
  ASSERT_NE(view, nullptr);
  TrainAll();
  ASSERT_TRUE(view->HasSnapshot())
      << "no epoch published; reads would fall back to the gated path";

  for (int64_t id = 0; id < 10; ++id) {
    auto rs = MustExec("SELECT class FROM Labeled_Papers WHERE id = " +
                       std::to_string(id));
    ASSERT_EQ(rs.rows.size(), 1u);
    auto sql_label = rs.TextAt(0, 0);
    auto api_label = view->LabelOf(id);
    ASSERT_TRUE(sql_label.ok() && api_label.ok());
    EXPECT_EQ(*sql_label, *api_label) << "paper " << id;
  }

  for (const char* label : {"DB", "OTHER"}) {
    auto rs = MustExec(std::string("SELECT * FROM Labeled_Papers WHERE class = '") +
                       label + "'");
    auto api_members = view->MembersOf(label);
    ASSERT_TRUE(api_members.ok());
    std::set<int64_t> sql_ids, api_ids(api_members->begin(), api_members->end());
    for (size_t i = 0; i < rs.rows.size(); ++i) {
      auto id = rs.Int64At(i, 0);
      ASSERT_TRUE(id.ok());
      sql_ids.insert(*id);
    }
    EXPECT_EQ(sql_ids, api_ids) << label;

    auto count = MustExec(
        std::string("SELECT COUNT(*) FROM Labeled_Papers WHERE class = '") +
        label + "'");
    ASSERT_EQ(count.rows.size(), 1u);
    auto sql_count = count.Int64At(0, 0);
    auto api_count = view->CountOf(label);
    ASSERT_TRUE(sql_count.ok() && api_count.ok());
    EXPECT_EQ(static_cast<uint64_t>(*sql_count), *api_count) << label;
  }
}

// MVCC semantics: while an update batch is open, snapshot readers keep
// answering from the last published epoch — the batch's queued model updates
// are invisible until EndUpdateBatch publishes, and the whole batch becomes
// visible atomically.
TEST_P(EngineSnapshotTest, MidBatchReaderSeesPreBatchEpoch) {
  ManagedView* view = MustCreateView();
  ASSERT_NE(view, nullptr);
  // Partial training so the mid-batch examples would move the model.
  ASSERT_TRUE(examples_->Insert(storage::Row{int64_t{0}, std::string("DB")}).ok());
  ASSERT_TRUE(
      examples_->Insert(storage::Row{int64_t{5}, std::string("OTHER")}).ok());
  ASSERT_TRUE(view->HasSnapshot());

  const uint64_t epoch_before = view->epochs().latest_epoch();
  const std::string rows_before = Encoded(MustExec("SELECT * FROM Labeled_Papers"));

  db_->BeginUpdateBatch();
  for (int64_t id = 1; id < 5; ++id) {
    ASSERT_TRUE(examples_->Insert(storage::Row{id, std::string("DB")}).ok());
  }
  for (int64_t id = 6; id < 10; ++id) {
    ASSERT_TRUE(examples_->Insert(storage::Row{id, std::string("OTHER")}).ok());
  }
  EXPECT_GT(view->pending_updates(), 0u) << "batch did not queue the triggers";
  // A reader inside the batch: same epoch, byte-identical answers.
  EXPECT_EQ(view->epochs().latest_epoch(), epoch_before);
  EXPECT_EQ(Encoded(MustExec("SELECT * FROM Labeled_Papers")), rows_before);
  ASSERT_TRUE(db_->EndUpdateBatch().ok());

  // The batch boundary published exactly one new epoch with the batch fully
  // applied.
  EXPECT_EQ(view->epochs().latest_epoch(), epoch_before + 1);
  auto rs = MustExec("SELECT * FROM Labeled_Papers");
  std::set<std::pair<int64_t, std::string>> labeled;
  for (size_t i = 0; i < rs.rows.size(); ++i) {
    auto id = rs.Int64At(i, 0);
    auto label = rs.TextAt(i, 1);
    ASSERT_TRUE(id.ok() && label.ok());
    labeled.insert({*id, *label});
  }
  // Fully trained on the separable corpus: post-batch answers are exact.
  for (int64_t id = 0; id < 10; ++id) {
    EXPECT_TRUE(labeled.count({id, id < 5 ? "DB" : "OTHER"})) << "paper " << id;
  }
}

// Regression: a multi-row INSERT into the entity table publishes exactly
// one epoch, at the batch boundary. Per-row publication would let snapshot
// readers observe a partially applied statement (which the gated path never
// allowed) and would seal one store chunk per row.
TEST_P(EngineSnapshotTest, EntityBatchPublishesOneEpochAtBoundary) {
  ManagedView* view = MustCreateView();
  ASSERT_NE(view, nullptr);
  TrainAll();
  ASSERT_TRUE(view->HasSnapshot());
  auto papers = db_->catalog()->GetTable("Papers");
  ASSERT_TRUE(papers.ok());

  const uint64_t epoch_before = view->epochs().latest_epoch();
  const std::string count_before =
      Encoded(MustExec("SELECT COUNT(*) FROM Labeled_Papers"));

  db_->BeginUpdateBatch();
  for (int64_t id = 10; id < 18; ++id) {
    ASSERT_TRUE(
        (*papers)
            ->Insert(storage::Row{
                id, std::string("database transactions and query processing")})
            .ok());
    EXPECT_EQ(view->epochs().latest_epoch(), epoch_before)
        << "entity insert published mid-batch at id " << id;
  }
  // A reader inside the batch stays on the pre-batch epoch: none of the new
  // entities are visible yet.
  EXPECT_EQ(Encoded(MustExec("SELECT COUNT(*) FROM Labeled_Papers")),
            count_before);
  ASSERT_TRUE(db_->EndUpdateBatch().ok());

  EXPECT_EQ(view->epochs().latest_epoch(), epoch_before + 1)
      << "an entity-only batch must publish exactly one epoch at its boundary";
  auto rs = MustExec("SELECT COUNT(*) FROM Labeled_Papers");
  ASSERT_EQ(rs.rows.size(), 1u);
  auto n = rs.Int64At(0, 0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, kTestCorpusSize + 8);
}

// A pinned epoch stays live across later publications and reclaims only
// when the last pin releases — through the trigger/publish machinery, not
// just the core manager.
TEST_P(EngineSnapshotTest, RetiredEpochReclaimsAfterLastUnpin) {
  ManagedView* view = MustCreateView();
  ASSERT_NE(view, nullptr);
  ASSERT_TRUE(examples_->Insert(storage::Row{int64_t{0}, std::string("DB")}).ok());
  ASSERT_TRUE(view->HasSnapshot());

  core::SnapshotPin pin = view->PinSnapshot();
  ASSERT_TRUE(pin);
  const uint64_t pinned_epoch = pin->epoch();
  const uint64_t reclaimed_before = view->epochs().reclaimed_total();

  // Each unbatched example insert publishes a new epoch, retiring the
  // pinned one.
  ASSERT_TRUE(
      examples_->Insert(storage::Row{int64_t{5}, std::string("OTHER")}).ok());
  ASSERT_TRUE(examples_->Insert(storage::Row{int64_t{1}, std::string("DB")}).ok());
  ASSERT_GT(view->epochs().latest_epoch(), pinned_epoch);
  EXPECT_TRUE(view->epochs().IsLive(pinned_epoch));

  // The pinned snapshot still answers from its own epoch's model/entity set.
  auto count = pin->AllMembersCount(+1);
  ASSERT_TRUE(count.ok());

  pin.Release();
  EXPECT_FALSE(view->epochs().IsLive(pinned_epoch));
  EXPECT_GT(view->epochs().reclaimed_total(), reclaimed_before);
}

// A checkpoint racing concurrent snapshot readers must neither block on
// them nor corrupt durable state: after the race, recovery rebuilds the
// view bit-identically (same serialized state blob).
TEST_P(EngineSnapshotTest, CheckpointRacingReadersRecoversBitIdentical) {
  const std::string path = ::testing::TempDir() + "hazy_snapshot_race_" +
                           GetParam().name + ".db";
  ::unlink(path.c_str());
  ::unlink((path + "-wal").c_str());

  DatabaseOptions opts;
  opts.path = path;
  db_ = std::make_unique<Database>(opts);
  ASSERT_TRUE(db_->Open().ok());
  BuildTestCorpus(db_.get());
  auto examples = db_->catalog()->GetTable("Example_Papers");
  ASSERT_TRUE(examples.ok());
  examples_ = *examples;
  exec_ = std::make_unique<sql::Executor>(db_.get());

  ManagedView* view = MustCreateView();
  ASSERT_NE(view, nullptr);
  TrainAll();
  ASSERT_TRUE(view->HasSnapshot());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      // Snapshot reads hold no statement lock — each thread gets its own
      // executor and scans freely while the checkpoint commits.
      sql::Executor exec(db_.get());
      while (!stop.load(std::memory_order_relaxed)) {
        auto rs = exec.Execute("SELECT * FROM Labeled_Papers");
        EXPECT_TRUE(rs.ok()) << rs.status().ToString();
        if (rs.ok()) {
          EXPECT_EQ(rs->rows.size(), 10u);
        }
        ++reads;
      }
    });
  }
  while (reads.load() < 20) std::this_thread::yield();
  for (int i = 0; i < 3; ++i) {
    auto epoch = db_->Checkpoint();
    ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  }
  stop.store(true);
  for (auto& t : readers) t.join();

  // Persist the final state, capture its serialized form, and recover.
  ASSERT_TRUE(db_->Checkpoint().ok());
  std::string blob_live;
  ASSERT_TRUE(persist::ViewCheckpointer(db_.get())
                  .SerializeViewState(*view, &blob_live)
                  .ok());
  db_.reset();

  DatabaseOptions reopen;
  reopen.path = path;
  auto db2 = std::make_unique<Database>(reopen);
  ASSERT_TRUE(db2->Open().ok());
  auto recovered = db2->GetView("Labeled_Papers");
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE((*recovered)->HasSnapshot())
      << "recovery must republish a read epoch";
  std::string blob_recovered;
  ASSERT_TRUE(persist::ViewCheckpointer(db2.get())
                  .SerializeViewState(**recovered, &blob_recovered)
                  .ok());
  EXPECT_EQ(blob_live, blob_recovered);

  db2.reset();
  ::unlink(path.c_str());
  ::unlink((path + "-wal").c_str());
}

// Readers running the server session's exact sequence — parse, then
// IsSnapshotRead, then Execute — while VACUUM repeatedly swaps the backing
// file and frees every ManagedView. Regression for a use-after-free: the
// view pointer used to be resolved (and dereferenced by HasSnapshot) before
// the reader registered in a SnapshotReadScope, so the swap's drain could
// miss the reader and tear the view down under it. ASan/TSan runs of this
// test catch any reintroduction.
TEST(SnapshotVacuumRaceTest, ReadersRacingVacuumNeverCrash) {
  const std::string path =
      ::testing::TempDir() + "hazy_snapshot_vacuum_race.db";
  ::unlink(path.c_str());
  ::unlink((path + "-wal").c_str());

  DatabaseOptions opts;
  opts.path = path;
  Database db(opts);
  ASSERT_TRUE(db.Open().ok());
  BuildTestCorpus(&db);
  ClassificationViewDef def;
  def.view_name = "Labeled_Papers";
  def.entity_table = "Papers";
  def.entity_key = "id";
  def.label_table = "Paper_Area";
  def.label_column = "label";
  def.example_table = "Example_Papers";
  def.example_key = "id";
  def.example_label = "label";
  def.feature_function = "tf_bag_of_words";
  def.architecture = core::Architecture::kHazyMM;
  def.mode = core::Mode::kLazy;
  ASSERT_TRUE(db.CreateClassificationView(def).ok());
  auto examples = db.catalog()->GetTable("Example_Papers");
  ASSERT_TRUE(examples.ok());
  for (int64_t id = 0; id < kTestCorpusSize; ++id) {
    ASSERT_TRUE(
        (*examples)
            ->Insert(storage::Row{id, std::string(TestCorpusLabel(id))})
            .ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      sql::Executor exec(&db);
      while (!stop.load(std::memory_order_relaxed)) {
        auto stmt = sql::Parse("SELECT class FROM Labeled_Papers WHERE id = 3");
        ASSERT_TRUE(stmt.ok());
        auto rs = [&]() -> StatusOr<sql::ResultSet> {
          if (sql::IsSnapshotRead(&db, *stmt)) return exec.Execute(*stmt);
          std::lock_guard<std::recursive_mutex> lock(*db.statement_mutex());
          return exec.Execute(*stmt);
        }();
        EXPECT_TRUE(rs.ok()) << rs.status().ToString();
        if (rs.ok()) {
          EXPECT_EQ(rs->rows.size(), 1u);
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (int i = 0; i < 4; ++i) {
    // Let the readers re-resolve fresh handles between swaps so every cycle
    // races registration against the drain, not just the first.
    const uint64_t before = reads.load(std::memory_order_relaxed);
    while (reads.load(std::memory_order_relaxed) < before + 20) {
      std::this_thread::yield();
    }
    ASSERT_TRUE(db.Compact().ok());
  }
  stop.store(true);
  for (auto& t : readers) t.join();

  // The last swap recovered a live, snapshot-capable view.
  auto view = db.GetView("Labeled_Papers");
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE((*view)->HasSnapshot());

  ::unlink(path.c_str());
  ::unlink((path + "-wal").c_str());
}

INSTANTIATE_TEST_SUITE_P(Architectures, EngineSnapshotTest,
                         ::testing::ValuesIn(kArchModes),
                         [](const ::testing::TestParamInfo<ArchMode>& info) {
                           return std::string(info.param.name);
                         });

// Differential test of every COUNT path on the main-memory architectures,
// whose eager mode publishes its materialized per-label counts with each
// epoch. A seeded stream of example and entity INSERTs (single rows and
// multi-row batches), an entity whose larger norm forces a reorganization,
// an example DELETE (retrain from scratch), CHECKPOINT + reopen and a plain
// reopen (WAL replay) runs over dense feature vectors; at every batch
// boundary the SQL COUNT and All Members, the pinned epoch's AllMembersCount
// and AllMembers, the view's own CountOf and MembersOf and a naive
// sign(w·f − b) oracle (sign(0) = +1) must all agree for both labels.
class CountDifferentialTest : public ::testing::TestWithParam<ArchMode> {
 protected:
  static constexpr int kDim = 6;
  static constexpr int64_t kInitialEntities = 300;

  void SetUp() override {
    // One file per test and parameter: ctest runs them in parallel.
    const std::string test =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    path_ = ::testing::TempDir() + "hazy_read_diff_" +
            test.substr(0, test.find('/')) + "_" + GetParam().name + ".db";
    RemoveFiles();
    options_.path = path_;
    // Deterministic Skiing decisions: the work is a function of the seed.
    options_.view_defaults.cost_model = core::CostModel::kTupleCount;
    Reopen();
  }

  void TearDown() override {
    exec_.reset();
    db_.reset();
    RemoveFiles();
  }

  void RemoveFiles() {
    ::unlink(path_.c_str());
    ::unlink((path_ + "-wal").c_str());
  }

  void Reopen() {
    exec_.reset();
    db_.reset();
    db_ = std::make_unique<Database>(options_);
    ASSERT_TRUE(db_->Open().ok());
    exec_ = std::make_unique<sql::Executor>(db_.get());
  }

  sql::ResultSet MustExec(const std::string& sql) {
    auto rs = exec_->Execute(sql);
    EXPECT_TRUE(rs.ok()) << sql << " -> " << rs.status().ToString();
    return rs.ok() ? *rs : sql::ResultSet{};
  }

  /// A `(id, 'x1 x2 ...')` VALUES tuple with components in [-scale, scale].
  std::string EntityTuple(int64_t id, double scale) {
    std::uniform_real_distribution<double> component(-scale, scale);
    std::string vec;
    for (int k = 0; k < kDim; ++k) {
      if (k > 0) vec.push_back(' ');
      vec += StrFormat("%.6f", component(rng_));
    }
    return StrFormat("(%lld, '%s')", static_cast<long long>(id), vec.c_str());
  }

  /// An example tuple for entity `id`, labeled by a fixed hidden hyperplane
  /// over its stored vector with some label noise.
  std::string ExampleTuple(int64_t id) {
    auto row = MustExec(StrFormat("SELECT vec FROM E WHERE id = %lld",
                                  static_cast<long long>(id)));
    EXPECT_EQ(row.rows.size(), 1u);
    auto text = row.TextAt(0, 0);
    EXPECT_TRUE(text.ok());
    const double hidden[kDim] = {0.9, -0.7, 0.4, 0.1, -0.3, 0.6};
    double dot = 0.0;
    const char* p = text.ok() ? text->c_str() : "";
    for (int k = 0; k < kDim; ++k) {
      char* end = nullptr;
      dot += hidden[k] * std::strtod(p, &end);
      p = end;
    }
    bool positive = dot >= 0.0;
    if (std::uniform_int_distribution<int>(0, 9)(rng_) == 0) positive = !positive;
    return StrFormat("(%lld, '%s')", static_cast<long long>(id),
                     positive ? "POS" : "NEG");
  }

  /// Asserts every COUNT and All Members path agrees with the oracle at
  /// the current batch boundary.
  void CheckReads(const std::string& step) {
    SCOPED_TRACE(step);
    auto got = db_->GetView("V");
    ASSERT_TRUE(got.ok());
    ManagedView* view = *got;
    core::SnapshotPin pin = view->PinSnapshot();
    ASSERT_TRUE(pin);
    // Eager main-memory views publish their labels; lazy ones scan.
    const bool eager = GetParam().mode == core::Mode::kEager;
    ASSERT_EQ(pin->labels() != nullptr, eager);
    EXPECT_EQ(pin->num_entities(), static_cast<size_t>(entities_));
    if (eager) {
      EXPECT_EQ(pin->labels()->ids->size(), pin->num_entities());
    }

    // The naive oracle: score every entity of the epoch under the live model.
    const ml::LinearModel& model = view->view()->model();
    std::vector<int64_t> oracle[2];  // [0] = +1, [1] = -1; sorted below
    for (const auto& chunk : pin->store().chunks()) {
      for (const auto& e : chunk->rows) {
        oracle[e.features.Dot(model.w) - model.b >= 0.0 ? 0 : 1].push_back(e.id);
      }
    }

    std::vector<int64_t> members[2];
    for (int i = 0; i < 2; ++i) {
      const int sign = i == 0 ? 1 : -1;
      const std::string& label = view->LabelString(sign);
      std::sort(oracle[i].begin(), oracle[i].end());

      auto rs = MustExec("SELECT COUNT(*) FROM V WHERE class = '" + label + "'");
      ASSERT_EQ(rs.rows.size(), 1u);
      auto sql_count = rs.Int64At(0, 0);
      auto published = pin->AllMembersCount(sign);
      auto api = view->CountOf(label);
      ASSERT_TRUE(sql_count.ok() && published.ok() && api.ok());
      EXPECT_EQ(static_cast<uint64_t>(*sql_count), oracle[i].size()) << label;
      EXPECT_EQ(*published, oracle[i].size()) << label;
      EXPECT_EQ(*api, oracle[i].size()) << label;

      rs = MustExec("SELECT id FROM V WHERE class = '" + label + "'");
      std::vector<int64_t> sql_ids;
      for (size_t r = 0; r < rs.rows.size(); ++r) {
        auto id = rs.Int64At(r, 0);
        ASSERT_TRUE(id.ok());
        sql_ids.push_back(*id);
      }
      auto snap_ids = pin->AllMembers(sign);
      auto api_ids = view->MembersOf(label);
      ASSERT_TRUE(snap_ids.ok() && api_ids.ok());
      // Published labels come in the view's clustering order, the order of
      // its own All Members.
      if (eager) {
        EXPECT_EQ(*snap_ids, *api_ids) << label;
      }
      members[i] = *snap_ids;
      for (auto* ids : {&sql_ids, &*snap_ids, &*api_ids}) {
        std::sort(ids->begin(), ids->end());
        EXPECT_EQ(*ids, oracle[i]) << label;
      }
    }
    // The two label sets partition the epoch's ids.
    std::vector<int64_t> all = members[0];
    all.insert(all.end(), members[1].begin(), members[1].end());
    std::sort(all.begin(), all.end());
    EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
    EXPECT_EQ(all.size(), pin->num_entities());
    for (int64_t id : all) EXPECT_NE(pin->store().Find(id), nullptr) << id;
    // Nothing above published: the SQL reads used the pinned epoch.
    EXPECT_EQ(view->epochs().latest_epoch(), pin->epoch());
  }

  /// Creates E/L/X, loads kInitialEntities entities and creates V over them.
  void CreateView() {
    MustExec("CREATE TABLE E (id INT PRIMARY KEY, vec TEXT)");
    MustExec("CREATE TABLE L (label TEXT)");
    MustExec("INSERT INTO L VALUES ('POS'), ('NEG')");
    MustExec("CREATE TABLE X (id INT PRIMARY KEY, label TEXT)");
    std::string load = "INSERT INTO E VALUES ";
    for (int64_t id = 0; id < kInitialEntities; ++id) {
      if (id > 0) load += ", ";
      load += EntityTuple(id, 1.0 / kDim);
    }
    MustExec(load);
    entities_ = kInitialEntities;

    ClassificationViewDef def;
    def.view_name = "V";
    def.entity_table = "E";
    def.entity_key = "id";
    def.entity_text_columns = {"vec"};
    def.label_table = "L";
    def.label_column = "label";
    def.example_table = "X";
    def.example_key = "id";
    def.example_label = "label";
    def.feature_function = "dense_vector";
    def.method_specified = true;
    def.architecture = GetParam().arch;
    def.mode = GetParam().mode;
    ASSERT_TRUE(db_->CreateClassificationView(def).ok());
  }

  uint64_t Reorgs() {
    auto view = db_->GetView("V");
    EXPECT_TRUE(view.ok());
    return view.ok() ? (*view)->view()->stats().reorgs.load() : 0;
  }

  std::string path_;
  DatabaseOptions options_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<sql::Executor> exec_;
  std::mt19937_64 rng_{20111031};
  int64_t entities_ = 0;
};

TEST_P(CountDifferentialTest, EveryCountPathMatchesOracleAtEveryBoundary) {
  CreateView();
  if (HasFatalFailure()) return;
  CheckReads("create");

  // Examples label a shuffled prefix of the initial entities.
  std::vector<int64_t> unlabeled;
  for (int64_t id = 0; id < kInitialEntities; ++id) unlabeled.push_back(id);
  std::shuffle(unlabeled.begin(), unlabeled.end(), rng_);
  std::vector<int64_t> labeled;
  auto next_example = [&] {
    const int64_t id = unlabeled.back();
    unlabeled.pop_back();
    labeled.push_back(id);
    return ExampleTuple(id);
  };

  for (int step = 0; step < 80; ++step) {
    const std::string name = StrFormat("step %d", step);
    if (step == 30) {
      // A larger norm than any loaded entity raises M: Hazy-MM must
      // reorganize to keep its water lines sound.
      const uint64_t reorgs = Reorgs();
      MustExec("INSERT INTO E VALUES " + EntityTuple(entities_++, 3.0));
      if (GetParam().arch == core::Architecture::kHazyMM) {
        EXPECT_GT(Reorgs(), reorgs) << "the large-norm entity did not reorganize";
      }
    } else if (step == 45) {
      // Deleting an example retrains the view from scratch.
      MustExec(StrFormat("DELETE FROM X WHERE id = %lld",
                         static_cast<long long>(labeled.front())));
      labeled.erase(labeled.begin());
    } else if (step == 55) {
      MustExec("CHECKPOINT");
      Reopen();
    } else if (step == 70) {
      // Recovery replays the WAL written since the checkpoint.
      Reopen();
    } else {
      switch (std::uniform_int_distribution<int>(0, 5)(rng_)) {
        case 0:
        case 1:
          MustExec("INSERT INTO X VALUES " + next_example());
          break;
        case 2: {
          std::string batch = "INSERT INTO X VALUES ";
          const int rows = std::uniform_int_distribution<int>(2, 8)(rng_);
          for (int r = 0; r < rows; ++r) {
            if (r > 0) batch += ", ";
            batch += next_example();
          }
          MustExec(batch);
          break;
        }
        case 3:
          MustExec("INSERT INTO E VALUES " + EntityTuple(entities_++, 1.0 / kDim));
          break;
        case 4: {
          std::string batch = "INSERT INTO E VALUES ";
          batch += EntityTuple(entities_++, 1.0 / kDim) + ", ";
          batch += EntityTuple(entities_++, 1.0 / kDim);
          MustExec(batch);
          break;
        }
        default:
          MustExec("INSERT INTO X VALUES " + next_example());
          break;
      }
    }
    CheckReads(name);
    if (HasFatalFailure()) return;
  }
}

// Epoch isolation: a pinned epoch keeps answering its own All Members,
// element for element, while later batches add entities, reorganize the
// view and retrain it; the ids array it shares with the view is replaced
// by later epochs, never mutated in place.
TEST_P(CountDifferentialTest, PinnedEpochKeepsItsMembersAcrossLaterBatches) {
  CreateView();
  if (HasFatalFailure()) return;
  for (int64_t id = 0; id < 40; ++id) {
    MustExec("INSERT INTO X VALUES " + ExampleTuple(id));
  }
  auto got = db_->GetView("V");
  ASSERT_TRUE(got.ok());
  ManagedView* view = *got;
  core::SnapshotPin pin = view->PinSnapshot();
  ASSERT_TRUE(pin);
  const std::vector<int64_t> before_pos = *pin->AllMembers(1);
  const std::vector<int64_t> before_neg = *pin->AllMembers(-1);
  ASSERT_EQ(before_pos.size() + before_neg.size(), pin->num_entities());
  std::shared_ptr<const std::vector<int64_t>> ids;
  std::vector<int64_t> ids_copy;
  if (pin->labels() != nullptr) {
    ids = pin->labels()->ids;
    ids_copy = *ids;
  }

  auto expect_unchanged = [&](const std::string& step) {
    SCOPED_TRACE(step);
    EXPECT_GT(view->epochs().latest_epoch(), pin->epoch());
    EXPECT_EQ(*pin->AllMembers(1), before_pos);
    EXPECT_EQ(*pin->AllMembers(-1), before_neg);
    EXPECT_EQ(*pin->AllMembersCount(1), before_pos.size());
    EXPECT_EQ(*pin->AllMembersCount(-1), before_neg.size());
    if (ids != nullptr) {
      EXPECT_EQ(pin->labels()->ids, ids);
      EXPECT_EQ(*ids, ids_copy);
      core::SnapshotPin latest = view->PinSnapshot();
      ASSERT_NE(latest->labels(), nullptr);
      if (latest->num_entities() != pin->num_entities()) {
        EXPECT_NE(latest->labels()->ids, ids);
      }
    }
  };

  MustExec("INSERT INTO E VALUES " + EntityTuple(entities_++, 1.0 / kDim));
  std::string batch = "INSERT INTO E VALUES ";
  batch += EntityTuple(entities_++, 1.0 / kDim) + ", ";
  batch += EntityTuple(entities_++, 1.0 / kDim);
  MustExec(batch);
  expect_unchanged("entity inserts");
  const uint64_t reorgs = Reorgs();
  MustExec("INSERT INTO E VALUES " + EntityTuple(entities_++, 3.0));
  if (GetParam().arch == core::Architecture::kHazyMM) {
    EXPECT_GT(Reorgs(), reorgs) << "the large-norm entity did not reorganize";
  }
  expect_unchanged("reorganization");
  MustExec("DELETE FROM X WHERE id = 0");
  expect_unchanged("retrain");
  batch = "INSERT INTO X VALUES ";
  batch += ExampleTuple(40) + ", ";
  batch += ExampleTuple(41);
  MustExec(batch);
  expect_unchanged("example batch");
  CheckReads("latest epoch");
}

constexpr ArchMode kMainMemoryArchModes[] = {
    {core::Architecture::kNaiveMM, core::Mode::kEager, "NaiveMMEager"},
    {core::Architecture::kNaiveMM, core::Mode::kLazy, "NaiveMMLazy"},
    {core::Architecture::kHazyMM, core::Mode::kEager, "HazyMMEager"},
    {core::Architecture::kHazyMM, core::Mode::kLazy, "HazyMMLazy"},
};

INSTANTIATE_TEST_SUITE_P(MainMemory, CountDifferentialTest,
                         ::testing::ValuesIn(kMainMemoryArchModes),
                         [](const ::testing::TestParamInfo<ArchMode>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace hazy::engine
