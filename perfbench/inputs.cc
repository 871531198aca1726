#include "inputs.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "common/strings.h"

namespace perfbench {

using hazy::StrFormat;

namespace {

// Sizes keep each server well under 100 MiB of RSS: the on-disk workload's
// data file is several times its buffer pool, but nothing else grows
// without bound.
const Workload kWorkloads[] = {
    {"mm_eager_mix", /*citeseer=*/false, /*entities=*/20000,
     /*insert_docs=*/40000, "HAZY_MM", "EAGER", /*pool_pages=*/1024,
     {/*entity_reads=*/24, /*miss_reads=*/1, /*count_pairs=*/1,
      /*example_inserts=*/2, /*entity_inserts=*/1, /*example_batch_rows=*/32},
     /*measured_rounds=*/1500, /*traced_rounds=*/300},
    {"od_lazy_scan", /*citeseer=*/true, /*entities=*/30000,
     /*insert_docs=*/20000, "HAZY_OD", "LAZY", /*pool_pages=*/512,
     {/*entity_reads=*/4, /*miss_reads=*/1, /*count_pairs=*/2,
      /*example_inserts=*/1, /*entity_inserts=*/1, /*example_batch_rows=*/16},
     /*measured_rounds=*/600, /*traced_rounds=*/60},
};

std::string Quoted(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'') out.push_back('\'');
    out.push_back(c);
  }
  out.push_back('\'');
  return out;
}

std::string EntityRows(const Inputs& in, int64_t first, size_t n) {
  std::string sql = "INSERT INTO Docs VALUES ";
  for (size_t i = 0; i < n; ++i) {
    const int64_t id = first + static_cast<int64_t>(i);
    if (i > 0) sql += ", ";
    sql += StrFormat("(%lld, ", static_cast<long long>(id));
    sql += Quoted(in.docs[static_cast<size_t>(id - 1)].text);
    sql += ")";
  }
  return sql;
}

std::string ExampleRows(const Inputs& in, const int64_t* ids, size_t n) {
  std::string sql = "INSERT INTO Examples VALUES ";
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) sql += ", ";
    sql += StrFormat("(%lld, '%s')", static_cast<long long>(ids[i]),
                     kLabels[TruthOf(in, ids[i])]);
  }
  return sql;
}

}  // namespace

const char* OpName(Op op) {
  switch (op) {
    case Op::kEntityRead: return "entity_read";
    case Op::kMissRead: return "miss_read";
    case Op::kCountRead: return "count_read";
    case Op::kMembersRead: return "members_read";
    case Op::kExampleInsert: return "example_insert";
    case Op::kEntityInsert: return "entity_insert";
    case Op::kExampleBatch: return "example_batch";
    case Op::kNumOps: break;
  }
  return "?";
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> out;
  for (const Workload& w : kWorkloads) out.push_back(w.name);
  return out;
}

Inputs MakeInputs(const Workload& w, uint64_t seed) {
  // The corpus is fixed, as the paper's datasets are (each profile's own
  // seed); the run's seed picks the warm-up sample and the operation stream.
  const size_t total = w.entities + w.insert_docs;
  hazy::data::TextCorpusOptions opts =
      w.citeseer ? hazy::data::CiteseerLike(w.entities / 721000.0)
                 : hazy::data::DBLifeLike(w.entities / 124000.0);
  opts.num_entities = total;
  Inputs in;
  in.docs = hazy::data::GenerateTextCorpus(opts);
  for (size_t i = 0; i < in.docs.size(); ++i) {
    in.docs[i].id = static_cast<int64_t>(i + 1);
  }
  std::vector<int64_t> ids(w.entities);
  std::iota(ids.begin(), ids.end(), 1);
  hazy::Rng rng(seed ^ 0x5EED5EEDull);
  rng.Shuffle(&ids);
  ids.resize(std::min(ids.size(), kWarmupExamples));
  in.warmup = std::move(ids);
  return in;
}

std::string CreateViewSql(const std::string& view, const char* architecture,
                          const char* mode) {
  return StrFormat(
      "CREATE CLASSIFICATION VIEW %s KEY id ENTITIES FROM Docs KEY id "
      "LABELS FROM Areas LABEL l EXAMPLES FROM Examples KEY id LABEL l "
      "FEATURE FUNCTION tf_bag_of_words USING SVM ARCHITECTURE %s MODE %s",
      view.c_str(), architecture, mode);
}

std::vector<std::string> SetupStatements(const Workload& w, const Inputs& in) {
  std::vector<std::string> out = {
      "CREATE TABLE Docs (id INT PRIMARY KEY, body TEXT)",
      "CREATE TABLE Areas (l TEXT)",
      StrFormat("INSERT INTO Areas VALUES ('%s'), ('%s')", kLabels[0], kLabels[1]),
      // No key on the examples: the training stream may repeat an entity.
      "CREATE TABLE Examples (id INT, l TEXT)",
  };
  for (size_t i = 0; i < w.entities; i += kSetupBatchRows) {
    out.push_back(EntityRows(in, static_cast<int64_t>(i + 1),
                             std::min(kSetupBatchRows, w.entities - i)));
  }
  out.push_back(CreateViewSql("V", w.architecture, w.mode));
  for (size_t i = 0; i < in.warmup.size(); i += kSetupBatchRows) {
    out.push_back(ExampleRows(in, in.warmup.data() + i,
                              std::min(kSetupBatchRows, in.warmup.size() - i)));
  }
  return out;
}

hazy::engine::DatabaseOptions DatabaseOptionsFor(const Workload& w,
                                                 const std::string& path) {
  hazy::engine::DatabaseOptions o;
  o.path = path;
  o.buffer_pool_pages = w.pool_pages;
  // Server defaults, except that Skiing decides on tuple counts instead of
  // measured time.
  o.view_defaults.cost_model = hazy::core::CostModel::kTupleCount;
  return o;
}

OpStream::OpStream(const Workload& w, const Inputs& in, uint64_t seed)
    : w_(w),
      in_(in),
      rng_(seed * 0x9E3779B97F4A7C15ull + 1),
      next_entity_(static_cast<int64_t>(w.entities) + 1) {}

void OpStream::AddReads(int n, std::vector<OpItem>* out) {
  for (int i = 0; i < n; ++i) {
    OpItem op;
    op.op = Op::kEntityRead;
    op.id = RandomId(entities());
    out->push_back(std::move(op));
  }
}

OpItem OpStream::Example() {
  OpItem op;
  op.op = Op::kExampleInsert;
  op.id = RandomId(entities());
  op.label = TruthOf(in_, op.id);
  op.sql = ExampleRows(in_, &op.id, 1);
  return op;
}

OpItem OpStream::EntityInsert() {
  OpItem op;
  op.op = Op::kEntityInsert;
  op.id = next_entity_;
  HAZY_CHECK(static_cast<size_t>(next_entity_) <= in_.docs.size())
      << w_.name << ": the timed phase ran out of documents to insert";
  op.sql = EntityRows(in_, next_entity_, 1);
  ++next_entity_;
  return op;
}

OpItem OpStream::ExampleBatch(int rows) {
  std::vector<int64_t> ids(static_cast<size_t>(rows));
  for (int64_t& id : ids) id = RandomId(entities());
  OpItem op;
  op.op = Op::kExampleBatch;
  op.id = ids[0];
  op.rows = ids.size();
  op.sql = ExampleRows(in_, ids.data(), ids.size());
  op.ids = std::move(ids);
  return op;
}

void OpStream::NextRound(std::vector<OpItem>* out) {
  out->clear();
  const Mix& m = w_.mix;
  const int quarter = m.entity_reads / 4;
  AddReads(quarter, out);
  for (int i = 0; i < m.example_inserts / 2; ++i) out->push_back(Example());
  AddReads(quarter, out);
  for (int i = 0; i < m.count_pairs; ++i) {
    const int a = static_cast<int>((rounds_ + i) % 2);
    OpItem op;
    op.op = Op::kCountRead;
    op.label = a;
    op.sql = StrFormat("SELECT COUNT(*) FROM V WHERE class = '%s'", kLabels[a]);
    out->push_back(op);
    op.op = Op::kMembersRead;
    op.sql = StrFormat("SELECT id FROM V WHERE class = '%s'", kLabels[a]);
    out->push_back(op);
    op.op = Op::kCountRead;
    op.label = 1 - a;
    op.sql = StrFormat("SELECT COUNT(*) FROM V WHERE class = '%s'", kLabels[1 - a]);
    out->push_back(op);
  }
  AddReads(quarter, out);
  for (int i = 0; i < m.entity_inserts; ++i) out->push_back(EntityInsert());
  for (int i = m.example_inserts / 2; i < m.example_inserts; ++i) {
    out->push_back(Example());
  }
  AddReads(m.entity_reads - 3 * quarter, out);
  if (m.example_batch_rows > 0) out->push_back(ExampleBatch(m.example_batch_rows));
  for (int i = 0; i < m.miss_reads; ++i) {
    OpItem op;
    op.op = Op::kMissRead;
    op.id = kMissIdBase + misses_++;
    out->push_back(op);
  }
  ++rounds_;
}

}  // namespace perfbench
