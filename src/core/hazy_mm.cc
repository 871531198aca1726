#include "core/hazy_mm.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/parallel.h"
#include "common/strings.h"
#include "common/timer.h"
#include "core/scan_pipeline.h"
#include "persist/serde.h"

namespace hazy::core {

namespace {

/// The clustering order of rows_: stored eps, ties broken by id.
bool KeyLess(double a_eps, int64_t a_id, double b_eps, int64_t b_id) {
  if (a_eps != b_eps) return a_eps < b_eps;
  return a_id < b_id;
}

}  // namespace

double HazyMMView::ComputeMaxNormQ(const std::vector<Entity>& entities) const {
  const double q = ml::HolderConjugate(options_.holder_p);
  double m = 0.0;
  for (const auto& e : entities) m = std::max(m, e.features.Norm(q));
  return m;
}

Status HazyMMView::BulkLoad(const std::vector<Entity>& entities) {
  rows_.clear();
  features_.clear();
  index_.clear();
  rows_.reserve(entities.size());
  features_.reserve(entities.size());
  for (const auto& e : entities) {
    if (index_.count(e.id) > 0) {
      return Status::AlreadyExists(StrFormat("duplicate entity id %lld",
                                             static_cast<long long>(e.id)));
    }
    index_[e.id] = 0.0;  // fixed up by Reorganize below
    rows_.push_back(Row{e.id, 0.0, 1, static_cast<uint32_t>(features_.size())});
    features_.push_back(e.features);
  }
  max_norm_q_ = ComputeMaxNormQ(entities);
  water_.SetM(max_norm_q_);
  Reorganize();
  // The initial organization is part of loading, not maintenance.
  stats_.reorgs = 0;
  stats_.total_reorg_seconds = 0.0;
  return Status::OK();
}

void HazyMMView::Reorganize() {
  Timer timer;
  // Re-score everything in parallel strips (in slot order, so the feature
  // reads are sequential), then derive labels from eps.
  std::vector<double> eps(features_.size());
  ScoreRange(features_.size(), model_, kDefaultMinParallelRows,
             [&](size_t s) -> const ml::FeatureVector& { return features_[s]; },
             eps.data());
  for (Row& r : rows_) {
    r.eps = eps[r.slot];
    r.label = ml::SignOf(r.eps);
  }
  std::sort(rows_.begin(), rows_.end(), [](const Row& a, const Row& b) {
    return KeyLess(a.eps, a.id, b.eps, b.id);
  });
  // Permute features_ into clustering order (slot = position), in place
  // along each cycle, so window scans read them sequentially; entity
  // inserts until the next reorganization only append.
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (rows_[i].slot == i) continue;
    ml::FeatureVector first = std::move(features_[i]);
    size_t j = i;
    for (;;) {
      const size_t from = rows_[j].slot;
      rows_[j].slot = static_cast<uint32_t>(j);
      if (from == i) {
        features_[j] = std::move(first);
        break;
      }
      features_[j] = std::move(features_[from]);
      j = from;
    }
  }
  index_.clear();
  index_.reserve(rows_.size());
  for (const Row& r : rows_) index_[r.id] = r.eps;
  ids_.reset();
  water_.Reorganize(model_);
  strategy_->OnReorganize();
  ++stats_.reorgs;
  double elapsed = timer.ElapsedSeconds();
  stats_.total_reorg_seconds += elapsed;
  reorg_cost_ = options_.cost_model == CostModel::kMeasuredTime
                    ? elapsed
                    : static_cast<double>(rows_.size());
  stats_.last_reorg_cost = reorg_cost_;
}

size_t HazyMMView::LowerBound(double x) const {
  size_t lo = 0, hi = rows_.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (rows_[mid].eps < x) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

size_t HazyMMView::Locate(int64_t id) const {
  auto it = index_.find(id);
  if (it == index_.end()) return rows_.size();
  const double eps = it->second;
  auto pos = std::lower_bound(rows_.begin(), rows_.end(), id,
                              [eps](const Row& r, int64_t key) {
                                return KeyLess(r.eps, r.id, eps, key);
                              });
  return static_cast<size_t>(pos - rows_.begin());
}

size_t HazyMMView::WindowSize() const {
  return LowerBound(water_.high_water()) - LowerBound(water_.low_water());
}

size_t HazyMMView::IncrementalStep() {
  const size_t lo = LowerBound(water_.low_water());
  const size_t hi = LowerBound(water_.high_water());
  uint64_t flips = 0;
  if (hi - lo <= 64) {
    // Warm-model windows are tiny (a handful of rows per update); a plain
    // loop avoids the strip path's scratch allocations on this hot path.
    // model_.Classify routes through the same kernels, so the labels are
    // bit-for-bit the ones ClassifyRange would produce.
    for (size_t i = lo; i < hi; ++i) {
      Row& r = rows_[i];
      int label = model_.Classify(features_[r.slot]);
      if (label != r.label) ++flips;
      r.label = label;
    }
  } else {
    // The window is contiguous in the eps-clustered layout; strip-score
    // it, sharding across the pool when it is wide enough to pay off.
    std::vector<int8_t> labels(hi - lo);
    ClassifyRange(hi - lo, model_, kDefaultMinParallelRows,
                  [&](size_t i) -> const ml::FeatureVector& {
                    return FeaturesAt(lo + i);
                  },
                  labels.data());
    for (size_t i = lo; i < hi; ++i) {
      if (labels[i - lo] != rows_[i].label) ++flips;
      rows_[i].label = labels[i - lo];
    }
  }
  stats_.label_flips += flips;
  stats_.window_tuples += hi - lo;
  ++stats_.incremental_steps;
  return hi - lo;
}

Status HazyMMView::AddEntity(const Entity& entity) {
  if (index_.count(entity.id) > 0) {
    return Status::AlreadyExists(StrFormat("duplicate entity id %lld",
                                           static_cast<long long>(entity.id)));
  }
  const double q = ml::HolderConjugate(options_.holder_p);
  double norm = entity.features.Norm(q);

  Row r;
  r.id = entity.id;
  r.eps = water_.stored_model().Eps(entity.features);
  r.label = model_.Classify(entity.features);
  r.slot = static_cast<uint32_t>(features_.size());

  auto pos_it = std::lower_bound(
      rows_.begin(), rows_.end(), r, [](const Row& a, const Row& b) {
        return KeyLess(a.eps, a.id, b.eps, b.id);
      });
  features_.push_back(entity.features);
  index_[r.id] = r.eps;
  rows_.insert(pos_it, r);
  ids_.reset();

  if (norm > max_norm_q_) {
    // A larger M invalidates the accumulated water lines (they were built
    // with the smaller M); re-cluster to restore soundness. Rare: with ℓ1-
    // normalized text features every entity has norm exactly 1.
    max_norm_q_ = norm;
    water_.SetM(max_norm_q_);
    Reorganize();
  }
  return Status::OK();
}

void HazyMMView::MaintainEager() {
  if (strategy_->ShouldReorganize(reorg_cost_)) {
    Reorganize();
    return;
  }
  Timer inc;
  size_t n = IncrementalStep();
  double cost = options_.cost_model == CostModel::kMeasuredTime
                    ? inc.ElapsedSeconds()
                    : static_cast<double>(n);
  strategy_->OnIncrementalCost(cost);
}

Status HazyMMView::Update(const ml::LabeledExample& example) {
  Timer timer;
  TrainStep(example);
  water_.Advance(model_);
  if (options_.mode == Mode::kEager) MaintainEager();
  // Lazy mode: updates are already optimal; waste accumulates on reads.
  ++stats_.updates;
  stats_.total_update_seconds += timer.ElapsedSeconds();
  return Status::OK();
}

Status HazyMMView::UpdateBatch(Span<const ml::LabeledExample> batch) {
  if (batch.empty()) return Status::OK();
  if (!options_.monotone_water) {
    // The two-round bounds (Appendix B.3) are only sound when every round's
    // window is relabeled; amortizing across a batch skips rounds.
    for (const auto& ex : batch) {
      HAZY_RETURN_NOT_OK(Update(ex));
    }
    ++stats_.batches;
    return Status::OK();
  }
  Timer timer;
  for (const auto& ex : batch) {
    TrainStep(ex);
    // Monotone water is a running min/max over rounds, so advancing per
    // example widens the window to cover the whole batch's drift; the
    // expensive part — the window scan — runs once below.
    water_.Advance(model_);
  }
  if (options_.mode == Mode::kEager) MaintainEager();
  stats_.updates += batch.size();
  ++stats_.batches;
  stats_.total_update_seconds += timer.ElapsedSeconds();
  return Status::OK();
}

StatusOr<int> HazyMMView::ReadOnlyLabel(int64_t id) const {
  const size_t pos = Locate(id);
  if (pos == rows_.size()) {
    return Status::NotFound(StrFormat("no entity %lld", static_cast<long long>(id)));
  }
  const Row& r = rows_[pos];
  if (options_.mode == Mode::kEager) return r.label;
  if (water_.CertainPositive(r.eps)) return 1;
  if (water_.CertainNegative(r.eps)) return -1;
  return model_.Classify(features_[r.slot]);
}

StatusOr<int> HazyMMView::SingleEntityRead(int64_t id) {
  ++stats_.single_reads;
  const size_t pos = Locate(id);
  if (pos == rows_.size()) {
    return Status::NotFound(StrFormat("no entity %lld", static_cast<long long>(id)));
  }
  const Row& r = rows_[pos];
  if (options_.mode == Mode::kEager) {
    ++stats_.reads_from_store;
    return r.label;
  }
  if (water_.CertainPositive(r.eps)) {
    ++stats_.reads_by_bounds;
    return 1;
  }
  if (water_.CertainNegative(r.eps)) {
    ++stats_.reads_by_bounds;
    return -1;
  }
  ++stats_.reads_from_store;
  return model_.Classify(features_[r.slot]);
}

template <typename Emit>
StatusOr<uint64_t> HazyMMView::LazyMembersScan(int label, Emit emit) {
  if (strategy_->ShouldReorganize(reorg_cost_)) Reorganize();
  obs::TraceScope scan_span(obs::SpanKind::kLazyScan);
  Timer timer;
  const size_t begin = LowerBound(water_.low_water());
  const size_t wend = LowerBound(water_.high_water());
  const uint64_t nr = rows_.size() - begin;
  uint64_t positives = 0;
  uint64_t matched = 0;
  // Below lw everything is certainly negative.
  if (label == -1) {
    for (size_t i = 0; i < begin; ++i) {
      emit(rows_[i].id);
      ++matched;
    }
  }
  // Only the window [begin, wend) needs the current model; strip-score it
  // in parallel, then emit in clustering order.
  std::vector<int8_t> labels(wend - begin);
  ClassifyRange(wend - begin, model_, kDefaultMinParallelRows,
                [&](size_t i) -> const ml::FeatureVector& {
                  return FeaturesAt(begin + i);
                },
                labels.data());
  stats_.window_tuples += wend - begin;
  for (size_t i = begin; i < rows_.size(); ++i) {
    int l = i < wend ? labels[i - begin] : 1;  // eps >= hw: certainly positive
    if (l == 1) ++positives;
    if (l == label) {
      emit(rows_[i].id);
      ++matched;
    }
  }
  stats_.tuples_scanned += nr;
  // Section 3.4: waste = fraction of the read that was not in the class.
  double cost = 0.0;
  if (nr > 0) {
    double waste_frac = static_cast<double>(nr - positives) / static_cast<double>(nr);
    cost = options_.cost_model == CostModel::kMeasuredTime
               ? waste_frac * timer.ElapsedSeconds()
               : static_cast<double>(nr - positives);
  }
  strategy_->OnIncrementalCost(cost);
  return matched;
}

StatusOr<std::vector<int64_t>> HazyMMView::AllMembers(int label) {
  ++stats_.all_members_queries;
  if (options_.mode == Mode::kLazy) {
    std::vector<int64_t> out;
    out.reserve(rows_.size());
    HAZY_RETURN_NOT_OK(LazyMembersScan(label, [&](int64_t id) { out.push_back(id); })
                           .status());
    return out;
  }
  // Eager: labels are materialized; use the clustering to skip certain
  // regions (the "slight improvement" of Section 2.2).
  EpochLabels labels;
  MaterializedLabels(&labels);
  stats_.tuples_scanned += labels.window.size();
  return labels.Members(label);
}

StatusOr<uint64_t> HazyMMView::AllMembersCount(int label) {
  ++stats_.all_members_queries;
  if (options_.mode == Mode::kLazy) {
    return LazyMembersScan(label, [](int64_t) {});
  }
  EpochLabels labels;
  MaterializedLabels(&labels);
  stats_.tuples_scanned += labels.window.size();
  return labels.Count(label);
}

bool HazyMMView::MaterializedLabels(EpochLabels* out) const {
  if (options_.mode != Mode::kEager) return false;
  if (ids_ == nullptr) {
    auto ids = std::make_shared<std::vector<int64_t>>();
    ids->reserve(rows_.size());
    for (const Row& r : rows_) ids->push_back(r.id);
    ids_ = std::move(ids);
  }
  out->ids = ids_;
  out->lo = LowerBound(water_.low_water());
  out->hi = LowerBound(water_.high_water());
  out->window.resize(out->hi - out->lo);
  for (size_t i = out->lo; i < out->hi; ++i) {
    out->window[i - out->lo] = static_cast<int8_t>(rows_[i].label);
  }
  return true;
}

StatusOr<std::vector<int64_t>> HazyMMView::TopUncertain(size_t k) {
  if (k == 0 || rows_.empty()) return std::vector<int64_t>{};
  k = std::min(k, rows_.size());
  const double lw = water_.low_water();
  const double hw = water_.high_water();

  // Max-heap of (|eps under the current model|, id), capped at k entries.
  std::priority_queue<std::pair<double, int64_t>> best;
  auto consider = [&](const Row& r) {
    double e = std::fabs(model_.Eps(features_[r.slot]));
    if (best.size() < k) {
      best.emplace(e, r.id);
    } else if (e < best.top().first) {
      best.pop();
      best.emplace(e, r.id);
    }
  };

  // Expand outward from the stored-model boundary. A tuple right of `hi`
  // has current eps >= stored_eps + lw and one left of `lo` has current
  // eps <= stored_eps + hw (Lemma 3.1 again), so once those guards exceed
  // the k-th best exact distance, nothing outside can improve the answer.
  size_t hi = LowerBound(0.0);
  size_t lo = hi;
  uint64_t inspected = 0;
  while (lo > 0 || hi < rows_.size()) {
    if (best.size() == k) {
      double kth = best.top().first;
      double right_guard = hi < rows_.size()
                               ? std::max(0.0, rows_[hi].eps + lw)
                               : std::numeric_limits<double>::infinity();
      double left_guard = lo > 0 ? std::max(0.0, -(rows_[lo - 1].eps + hw))
                                 : std::numeric_limits<double>::infinity();
      if (right_guard >= kth && left_guard >= kth) break;
    }
    bool take_hi;
    if (lo == 0) {
      take_hi = true;
    } else if (hi >= rows_.size()) {
      take_hi = false;
    } else {
      take_hi = std::fabs(rows_[hi].eps) <= std::fabs(rows_[lo - 1].eps);
    }
    consider(take_hi ? rows_[hi++] : rows_[--lo]);
    ++inspected;
  }
  stats_.tuples_scanned += inspected;

  std::vector<int64_t> out(best.size());
  for (size_t i = out.size(); i-- > 0;) {
    out[i] = best.top().second;
    best.pop();
  }
  return out;
}

namespace {
constexpr uint32_t kHazyMMTag = persist::MakeTag('H', 'M', 'M', '1');
}  // namespace

Status HazyMMView::SaveState(persist::StateWriter* w) const {
  HAZY_RETURN_NOT_OK(SaveBaseState(w));
  w->PutTag(kHazyMMTag);
  // Rows in their eps-clustered order: reloading preserves the exact layout
  // (and hence exactly which tuples the next window pass will touch).
  w->PutU64(rows_.size());
  for (const auto& r : rows_) {
    w->PutI64(r.id);
    w->PutDouble(r.eps);
    w->PutI32(r.label);
    w->PutFeatureVector(features_[r.slot]);
  }
  water_.SaveState(w);
  strategy_->SaveState(w);
  w->PutDouble(reorg_cost_);
  w->PutDouble(max_norm_q_);
  return Status::OK();
}

Status HazyMMView::LoadState(persist::StateReader* r) {
  HAZY_RETURN_NOT_OK(LoadBaseState(r));
  HAZY_RETURN_NOT_OK(r->ExpectTag(kHazyMMTag));
  uint64_t n = 0;
  HAZY_RETURN_NOT_OK(r->GetU64(&n));
  HAZY_RETURN_NOT_OK(r->CheckCount(n));
  rows_.clear();
  rows_.reserve(n);
  features_.clear();
  features_.reserve(n);
  index_.clear();
  index_.reserve(n);
  ids_.reset();
  for (uint64_t i = 0; i < n; ++i) {
    Row row;
    HAZY_RETURN_NOT_OK(r->GetI64(&row.id));
    HAZY_RETURN_NOT_OK(r->GetDouble(&row.eps));
    HAZY_RETURN_NOT_OK(r->GetI32(&row.label));
    row.slot = static_cast<uint32_t>(i);
    features_.emplace_back();
    HAZY_RETURN_NOT_OK(r->GetFeatureVector(&features_.back()));
    index_[row.id] = row.eps;
    rows_.push_back(row);
  }
  HAZY_RETURN_NOT_OK(water_.LoadState(r));
  HAZY_RETURN_NOT_OK(strategy_->LoadState(r));
  HAZY_RETURN_NOT_OK(r->GetDouble(&reorg_cost_));
  return r->GetDouble(&max_norm_q_);
}

size_t HazyMMView::MemoryBytes() const {
  size_t b = rows_.capacity() * sizeof(Row) +
             index_.size() * (sizeof(int64_t) + sizeof(double) + 2 * sizeof(void*));
  b += features_.capacity() * sizeof(ml::FeatureVector);
  for (const auto& f : features_) b += f.ApproxBytes() - sizeof(ml::FeatureVector);
  if (ids_ != nullptr) b += ids_->capacity() * sizeof(int64_t);
  return b;
}

Status HazyMMView::ExportEntities(std::vector<Entity>* out) const {
  out->reserve(out->size() + rows_.size());
  for (const auto& r : rows_) out->push_back(Entity{r.id, features_[r.slot]});
  return Status::OK();
}

}  // namespace hazy::core
