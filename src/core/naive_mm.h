// Naive main-memory architecture: the "MM Naive" rows of Figure 4.
// Eager: every update reclassifies every entity. Lazy: every All Members
// read classifies every entity. No clustering, no water lines.

#ifndef HAZY_CORE_NAIVE_MM_H_
#define HAZY_CORE_NAIVE_MM_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "core/classifier_view.h"

namespace hazy::core {

/// \brief Baseline in-memory view with naive maintenance.
class NaiveMMView : public ViewBase {
 public:
  explicit NaiveMMView(ViewOptions options) : ViewBase(options) {}

  Status BulkLoad(const std::vector<Entity>& entities) override;
  Status AddEntity(const Entity& entity) override;
  Status Update(const ml::LabeledExample& example) override;
  /// Batched path: absorb every example into the model, then relabel the
  /// corpus once (instead of once per example) with a parallel scan.
  Status UpdateBatch(Span<const ml::LabeledExample> batch) override;
  StatusOr<int> SingleEntityRead(int64_t id) override;
  StatusOr<std::vector<int64_t>> AllMembers(int label) override;
  StatusOr<uint64_t> AllMembersCount(int label) override;
  /// Eager mode: ids in row order, all of them in the window (no
  /// clustering) — one pass over the materialized labels.
  bool MaterializedLabels(EpochLabels* out) const override;
  size_t MemoryBytes() const override;
  const char* name() const override {
    return options_.mode == Mode::kEager ? "naive-mm-eager" : "naive-mm-lazy";
  }
  Status SaveState(persist::StateWriter* w) const override;
  Status LoadState(persist::StateReader* r) override;
  Status ExportEntities(std::vector<Entity>* out) const override;

 protected:
  Status SyncToModel() override {
    ReclassifyAll();
    return Status::OK();
  }

 private:
  struct Row {
    int64_t id;
    int label;  // maintained in eager mode only
    ml::FeatureVector features;
  };

  void ReclassifyAll();

  /// Labels every row under the current model into labels[i] with a
  /// sharded scan; shared by the eager relabel and the lazy read paths.
  void ClassifyAllRows(std::vector<int8_t>* labels) const;

  std::vector<Row> rows_;
  std::unordered_map<int64_t, size_t> index_;
  /// The ids of rows_, in order, as last published; reset whenever rows
  /// are added (never mutated: published epochs share it).
  mutable std::shared_ptr<const std::vector<int64_t>> ids_;
};

}  // namespace hazy::core

#endif  // HAZY_CORE_NAIVE_MM_H_
