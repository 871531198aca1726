#include "core/epoch.h"

#include <algorithm>

#include "common/strings.h"
#include "core/scan_pipeline.h"

namespace hazy::core {

namespace {

/// Below this many entities a snapshot scan stays single-threaded (same
/// spirit as the scan pipeline's per-page striping thresholds).
constexpr size_t kMinParallelScan = 2048;

/// Size-tiered merge threshold: a freshly sealed tail chunk is folded into
/// its neighbor until the neighbor is more than this factor larger. The
/// resulting invariant (each sealed chunk > kMergeFactor x its successor)
/// keeps the chunk count logarithmic in the entity count, so lookups stay
/// flat even under a sustained stream of tiny append-and-publish batches.
constexpr size_t kMergeFactor = 2;

}  // namespace

std::shared_ptr<const EpochChunk> MakeEpochChunk(std::vector<Entity> rows) {
  auto chunk = std::make_shared<EpochChunk>();
  chunk->rows = std::move(rows);
  chunk->by_id.reserve(chunk->rows.size());
  for (uint32_t i = 0; i < chunk->rows.size(); ++i) {
    chunk->by_id[chunk->rows[i].id] = i;
  }
  return chunk;
}

EpochEntityStore::EpochEntityStore(
    std::vector<std::shared_ptr<const EpochChunk>> chunks)
    : chunks_(std::move(chunks)) {
  for (const auto& c : chunks_) size_ += c->rows.size();
}

const Entity* EpochEntityStore::Find(int64_t id) const {
  // Newest chunk wins (appends only ever add fresh ids, but shadowing is
  // the safe direction regardless).
  for (auto it = chunks_.rbegin(); it != chunks_.rend(); ++it) {
    auto hit = (*it)->by_id.find(id);
    if (hit != (*it)->by_id.end()) return &(*it)->rows[hit->second];
  }
  return nullptr;
}

EpochSnapshot::EpochSnapshot(uint64_t epoch, ml::LinearModel model,
                             std::shared_ptr<const EpochEntityStore> store,
                             std::optional<EpochLabels> labels)
    : epoch_(epoch),
      model_(std::move(model)),
      store_(std::move(store)),
      labels_(std::move(labels)) {
  if (labels_.has_value()) positives_ = labels_->Count(1);
}

StatusOr<int> EpochSnapshot::SingleEntityRead(int64_t id) const {
  const Entity* e = store_->Find(id);
  if (e == nullptr) {
    return Status::NotFound(
        StrFormat("no entity with id %lld", static_cast<long long>(id)));
  }
  return model_.Classify(e->features);
}

template <typename Emit>
void EpochSnapshot::Scan(int label, Emit emit) const {
  std::vector<int8_t> labels;
  for (const auto& chunk : store_->chunks()) {
    const auto& rows = chunk->rows;
    labels.resize(rows.size());
    ClassifyRange(
        rows.size(), model_, kMinParallelScan,
        [&](size_t i) -> const ml::FeatureVector& { return rows[i].features; },
        labels.data());
    for (size_t i = 0; i < rows.size(); ++i) {
      if (labels[i] == label) emit(rows[i].id);
    }
  }
}

StatusOr<std::vector<int64_t>> EpochSnapshot::AllMembers(int label) const {
  if (labels_.has_value()) return labels_->Members(label);
  std::vector<int64_t> out;
  Scan(label, [&](int64_t id) { out.push_back(id); });
  return out;
}

StatusOr<uint64_t> EpochSnapshot::AllMembersCount(int label) const {
  if (labels_.has_value()) {
    if (label == 1) return positives_;
    if (label == -1) return labels_->ids->size() - positives_;
    return uint64_t{0};
  }
  uint64_t n = 0;
  Scan(label, [&](int64_t) { ++n; });
  return n;
}

void EpochStoreBuilder::ReplaceAll(std::vector<Entity> all) {
  sealed_.clear();
  open_.clear();
  last_.reset();
  sealed_.push_back(MakeEpochChunk(std::move(all)));
}

std::shared_ptr<const EpochEntityStore> EpochStoreBuilder::Seal() {
  if (!dirty()) return last_;
  if (!open_.empty()) {
    sealed_.push_back(MakeEpochChunk(std::move(open_)));
    open_.clear();
    // Size-tiered merge, tail-local: fold the new chunk into its neighbor
    // while the neighbor is not decisively larger, cascading toward the
    // head. A chunk grows by at least a third of its size with every merge
    // it joins, so a sustained single-row append-and-publish stream copies
    // each row O(log N) times total — full compaction here would copy the
    // whole store every few publishes, O(N^2) overall. Chunks ahead of the
    // cascade are untouched and stay shared with earlier epochs. Old stores
    // keep references to the pre-merge chunks; only future epochs see the
    // merged runs.
    while (sealed_.size() > 1) {
      const auto& prev = sealed_[sealed_.size() - 2];
      const auto& tail = sealed_.back();
      if (prev->rows.size() > kMergeFactor * tail->rows.size()) break;
      std::vector<Entity> merged;
      merged.reserve(prev->rows.size() + tail->rows.size());
      merged.insert(merged.end(), prev->rows.begin(), prev->rows.end());
      merged.insert(merged.end(), tail->rows.begin(), tail->rows.end());
      sealed_.pop_back();
      sealed_.pop_back();
      sealed_.push_back(MakeEpochChunk(std::move(merged)));
    }
  }
  last_ = std::make_shared<EpochEntityStore>(sealed_);
  return last_;
}

SnapshotPin::SnapshotPin(EpochManager* mgr,
                         std::shared_ptr<const EpochSnapshot> snap)
    : mgr_(mgr), snap_(std::move(snap)) {}

SnapshotPin& SnapshotPin::operator=(SnapshotPin&& o) noexcept {
  if (this != &o) {
    Release();
    mgr_ = o.mgr_;
    snap_ = std::move(o.snap_);
    o.mgr_ = nullptr;
    o.snap_.reset();
  }
  return *this;
}

void SnapshotPin::Release() {
  if (snap_ != nullptr && mgr_ != nullptr) mgr_->Unpin(snap_);
  snap_.reset();
  mgr_ = nullptr;
}

void EpochManager::SetMetricLabels(const std::string& labels) {
  auto& reg = obs::Registry::Global();
  published_gauge_ = reg.GetGauge("hazy_epoch_published", labels);
  pinned_gauge_ = reg.GetGauge("hazy_epoch_pinned", labels);
  oldest_live_gauge_ = reg.GetGauge("hazy_epoch_oldest_live", labels);
  reclaimed_counter_ = reg.GetCounter("hazy_epoch_reclaimed_total", labels);
}

std::shared_ptr<const EpochSnapshot> EpochManager::Publish(
    ml::LinearModel model, std::shared_ptr<const EpochEntityStore> store,
    std::optional<EpochLabels> labels) {
  MutexLock lock(mu_);
  auto snap = std::make_shared<const EpochSnapshot>(
      next_epoch_++, std::move(model), std::move(store), std::move(labels));
  ring_.push_back(snap);
  std::atomic_store_explicit(&latest_, snap, std::memory_order_release);
  if (published_gauge_ != nullptr) {
    published_gauge_->Set(static_cast<int64_t>(snap->epoch()));
  }
  ReclaimLocked();
  return snap;
}

SnapshotPin EpochManager::Pin() {
  // Lock-free fast path: readers never touch mu_, so a publishing writer
  // (or a reclaim pass) cannot stall them.
  auto snap = std::atomic_load_explicit(&latest_, std::memory_order_acquire);
  if (snap == nullptr) return SnapshotPin();
  snap->pins_.fetch_add(1, std::memory_order_relaxed);
  if (pinned_gauge_ != nullptr) pinned_gauge_->Add(1);
  return SnapshotPin(this, std::move(snap));
}

void EpochManager::Unpin(const std::shared_ptr<const EpochSnapshot>& snap) {
  snap->pins_.fetch_sub(1, std::memory_order_relaxed);
  if (pinned_gauge_ != nullptr) pinned_gauge_->Add(-1);
  MutexLock lock(mu_);
  ReclaimLocked();
}

void EpochManager::ReclaimLocked() {
  // A retired epoch (anything but the latest) is reclaimable once its pin
  // count drains. Removal from the ring drops the manager's chunk/model
  // references; a reader that raced its way to a shared_ptr keeps the
  // object alive until it finishes — reclaim is bookkeeping, never a free
  // under a reader.
  auto latest = std::atomic_load_explicit(&latest_, std::memory_order_acquire);
  size_t kept = 0;
  for (size_t i = 0; i < ring_.size(); ++i) {
    const bool retired = ring_[i] != latest;
    if (retired && ring_[i]->pins() == 0) {
      ++reclaimed_;
      if (reclaimed_counter_ != nullptr) reclaimed_counter_->Increment();
      continue;
    }
    ring_[kept++] = ring_[i];
  }
  ring_.resize(kept);
  if (oldest_live_gauge_ != nullptr && !ring_.empty()) {
    oldest_live_gauge_->Set(static_cast<int64_t>(ring_.front()->epoch()));
  }
}

uint64_t EpochManager::latest_epoch() const {
  auto snap = std::atomic_load_explicit(&latest_, std::memory_order_acquire);
  return snap == nullptr ? 0 : snap->epoch();
}

bool EpochManager::IsLive(uint64_t epoch) const {
  MutexLock lock(mu_);
  for (const auto& s : ring_) {
    if (s->epoch() == epoch) return true;
  }
  return false;
}

size_t EpochManager::live_epochs() const {
  MutexLock lock(mu_);
  return ring_.size();
}

uint64_t EpochManager::reclaimed_total() const {
  MutexLock lock(mu_);
  return reclaimed_;
}

}  // namespace hazy::core
