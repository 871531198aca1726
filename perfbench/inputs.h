// The benchmark's workloads and their inputs. Everything a run sends to the
// server is a pure function of (workload, seed): the corpus, the set-up
// statements, and the operation sequence, which is cut into short rounds
// that interleave every operation type so drift lands on all metrics alike.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "data/synthetic.h"
#include "engine/database.h"

namespace perfbench {

/// Operation types; every run counts attempts and failures per type.
enum class Op : int {
  kEntityRead,     ///< prepared SELECT class FROM V WHERE id = ?
  kMissRead,       ///< the same statement on an id never inserted
  kCountRead,      ///< SELECT COUNT(*) FROM V WHERE class = '<label>'
  kMembersRead,    ///< SELECT id FROM V WHERE class = '<label>'
  kExampleInsert,  ///< single-row example INSERT (one trigger update)
  kEntityInsert,   ///< single-row entity INSERT (classify + publish)
  kExampleBatch,   ///< multi-row example INSERT (batched update engine)
  kNumOps,
};
constexpr int kNumOps = static_cast<int>(Op::kNumOps);
const char* OpName(Op op);

/// Operations of one round.
struct Mix {
  int entity_reads = 0;
  int miss_reads = 0;
  /// Each count pair is COUNT(a), All Members(a), COUNT(b) back to back,
  /// so the results can be checked against each other.
  int count_pairs = 0;
  int example_inserts = 0;
  int entity_inserts = 0;
  int example_batch_rows = 0;  ///< 0 = no example batch in the round
};

struct Workload {
  const char* name;
  bool citeseer;              ///< Citeseer-like abstracts, else DBLife titles
  size_t entities;            ///< bulk-loaded during set-up
  size_t insert_docs;         ///< documents kept for timed-phase inserts
  const char* architecture;   ///< CREATE CLASSIFICATION VIEW ... ARCHITECTURE
  const char* mode;           ///< ... MODE
  size_t pool_pages;          ///< buffer-pool frames (8 KiB each)
  Mix mix;                    ///< one round of the closed loop
  /// The socket run's end-to-end metrics come from its first this many
  /// rounds, so every run measures the same stretch of the stream; it runs
  /// at least this many, past --seconds if need be.
  size_t measured_rounds;
  size_t traced_rounds;       ///< fixed length of the traced pass
};

const Workload* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// Training examples folded in during set-up (the paper's 12k warm-up).
constexpr size_t kWarmupExamples = 12000;
/// Rows per multi-row INSERT during set-up.
constexpr size_t kSetupBatchRows = 500;
/// Label strings; the positive class comes first in the label table.
inline const char* const kLabels[2] = {"pos", "neg"};
/// Every entity id a run inserts lies in [1, kMissIdBase).
constexpr int64_t kMissIdBase = 1000000000;

struct Inputs {
  /// docs[i] has id i + 1. The first `entities` are loaded at set-up; the
  /// rest feed the timed phase's entity inserts, in order.
  std::vector<hazy::data::Document> docs;
  std::vector<int64_t> warmup;  ///< example ids for the warm-up
};

Inputs MakeInputs(const Workload& w, uint64_t seed);

/// Set-up statements in order: tables, entity bulk load, the view, warm-up.
std::vector<std::string> SetupStatements(const Workload& w, const Inputs& in);

/// CREATE CLASSIFICATION VIEW for `view` over the benchmark's tables.
std::string CreateViewSql(const std::string& view, const char* architecture,
                          const char* mode);

/// Database options shared by the forked server and the traced pass. The
/// views use the tuple-count cost model, so maintenance work depends on the
/// seed alone and not on wall-clock time.
hazy::engine::DatabaseOptions DatabaseOptionsFor(const Workload& w,
                                                 const std::string& path);

/// Ground-truth label index (0 = pos, 1 = neg) of entity `id`.
inline int TruthOf(const Inputs& in, int64_t id) {
  return in.docs[static_cast<size_t>(id - 1)].label > 0 ? 0 : 1;
}

struct OpItem {
  Op op = Op::kEntityRead;
  int64_t id = 0;    ///< read target, or the first id an insert writes
  int label = 0;     ///< count/members label; example label
  size_t rows = 1;   ///< rows written
  std::string sql;   ///< statement text for everything but entity reads
  std::vector<int64_t> ids;  ///< an example batch's ids, in SQL order
};

/// The deterministic operation sequence of a run. Reads target any entity
/// inserted by an earlier operation of the stream.
class OpStream {
 public:
  OpStream(const Workload& w, const Inputs& in, uint64_t seed);

  /// Replaces *out with the next round's operations.
  void NextRound(std::vector<OpItem>* out);

  /// Entities inserted by every round generated so far.
  int64_t entities() const { return next_entity_ - 1; }

 private:
  int64_t RandomId(int64_t n) { return 1 + static_cast<int64_t>(rng_.Uniform(n)); }
  void AddReads(int n, std::vector<OpItem>* out);
  OpItem Example();
  OpItem EntityInsert();
  OpItem ExampleBatch(int rows);

  const Workload& w_;
  const Inputs& in_;
  hazy::Rng rng_;
  int64_t next_entity_;
  int64_t rounds_ = 0;
  int64_t misses_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
