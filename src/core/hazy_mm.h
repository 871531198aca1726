// Hazy main-memory architecture (Section 3.5.1): entities kept in RAM,
// clustered (sorted) on their stored-model eps, maintained incrementally
// with the water-line window and reorganized when Skiing says so.

#ifndef HAZY_CORE_HAZY_MM_H_
#define HAZY_CORE_HAZY_MM_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "core/bounds.h"
#include "core/classifier_view.h"

namespace hazy::core {

/// \brief Hazy-MM: the fastest architecture when the corpus fits in memory.
class HazyMMView : public ViewBase {
 public:
  explicit HazyMMView(ViewOptions options)
      : ViewBase(options),
        water_(options.holder_p, options.monotone_water),
        strategy_(MakeStrategy(options.strategy, options.alpha,
                               options.periodic_period)) {}

  Status BulkLoad(const std::vector<Entity>& entities) override;
  Status AddEntity(const Entity& entity) override;
  Status Update(const ml::LabeledExample& example) override;
  /// Batched path: the model absorbs every example while the monotone water
  /// lines accumulate the whole batch's drift; then ONE window pass (or
  /// reorganization — one amortized Skiing decision per batch) re-syncs the
  /// materialized labels. Non-monotone water falls back to per-example
  /// updates (its two-round bounds require relabeling every round).
  Status UpdateBatch(Span<const ml::LabeledExample> batch) override;
  StatusOr<int> SingleEntityRead(int64_t id) override;
  StatusOr<std::vector<int64_t>> AllMembers(int label) override;
  StatusOr<uint64_t> AllMembersCount(int label) override;
  size_t MemoryBytes() const override;
  const char* name() const override {
    return options_.mode == Mode::kEager ? "hazy-mm-eager" : "hazy-mm-lazy";
  }
  Status SaveState(persist::StateWriter* w) const override;
  Status LoadState(persist::StateReader* r) override;
  Status ExportEntities(std::vector<Entity>* out) const override;

  /// Current water lines (exposed for experiments like Fig 13).
  const WaterLineTracker& water() const { return water_; }

  bool WaterLines(double* low, double* high) const override {
    *low = water_.low_water();
    *high = water_.high_water();
    return true;
  }

  /// Eager mode: ids in (eps, id) clustering order, lo/hi at the water
  /// lines (rows below lw are certainly negative, rows at or above hw
  /// certainly positive) and a copy of the window's current labels —
  /// O(window) while the layout is unchanged, plus one O(N) id copy after
  /// it changes.
  bool MaterializedLabels(EpochLabels* out) const override;

  /// Number of tuples currently inside [lw, hw) — the Fig 13 series.
  size_t WindowSize() const;

  /// Const, stats-free single-entity read. Safe to call from many threads
  /// concurrently as long as no Update/AddEntity runs — the paper's
  /// scale-up experiment (Fig 11(B)): "the locking protocols are trivial
  /// for Single Entity reads".
  StatusOr<int> ReadOnlyLabel(int64_t id) const;

  /// Active-learning hook (the paper's Appendix D motivation: "solicit
  /// feedback (which can dramatically help improve the model)"): the k
  /// entities with the smallest |eps| under the *current* model — the ones
  /// whose labels a human should confirm next. The eps-clustered layout
  /// makes this cheap: candidates are gathered by expanding outward from
  /// the stored-model boundary (plus the water window), then re-ranked
  /// exactly under the current model.
  StatusOr<std::vector<int64_t>> TopUncertain(size_t k);

 protected:
  Status SyncToModel() override {
    Reorganize();
    return Status::OK();
  }

 private:
  /// Trivially copyable, so inserts shift and reorganizations sort 24-byte
  /// PODs; the features stay put in features_.
  struct Row {
    int64_t id;
    double eps;     // under the stored model (the clustering key)
    int32_t label;  // maintained eagerly; advisory in lazy mode
    uint32_t slot;  // index into features_
  };

  const ml::FeatureVector& FeaturesAt(size_t i) const {
    return features_[rows_[i].slot];
  }

  /// Re-clusters: recompute eps with the current model, sort, relabel.
  /// Sets S (the reorganization cost in the configured cost model).
  void Reorganize();

  /// Index of the first row with eps >= x.
  size_t LowerBound(double x) const;

  /// Position of entity `id` in rows_ (binary search on the (eps, id)
  /// clustering key), or rows_.size() when absent.
  size_t Locate(int64_t id) const;

  /// Walks the window [lw, hw), reclassifying with the current model.
  /// Returns the number of tuples inspected.
  size_t IncrementalStep();

  /// One round of eager maintenance: reorganize if Skiing says so, else an
  /// incremental step whose cost is reported to the strategy. Shared by the
  /// per-example and batched update paths.
  void MaintainEager();

  /// Lazy read path: reorganize first if Skiing says so, then scan from lw.
  template <typename Emit>
  StatusOr<uint64_t> LazyMembersScan(int label, Emit emit);

  double ComputeMaxNormQ(const std::vector<Entity>& entities) const;

  std::vector<Row> rows_;  // in (eps, id) clustering order
  std::vector<ml::FeatureVector> features_;  // by Row::slot
  /// The ids of rows_, in order, as last published; reset whenever the
  /// layout changes (never mutated: published epochs share it).
  mutable std::shared_ptr<const std::vector<int64_t>> ids_;
  /// id -> stored eps. With the id it is the row's clustering key, so an
  /// insert shifts rows_ without rewriting any entry.
  std::unordered_map<int64_t, double> index_;
  WaterLineTracker water_;
  std::unique_ptr<MaintenanceStrategy> strategy_;
  double reorg_cost_ = 0.0;  // S
  double max_norm_q_ = 0.0;  // M
};

}  // namespace hazy::core

#endif  // HAZY_CORE_HAZY_MM_H_
