#include "core/classifier_view.h"

#include <algorithm>

#include "persist/serde.h"

namespace hazy::core {

uint64_t EpochLabels::Count(int label) const {
  const uint64_t window_positives = static_cast<uint64_t>(
      std::count(window.begin(), window.end(), int8_t{1}));
  if (label == 1) return window_positives + (ids->size() - hi);
  if (label == -1) return (window.size() - window_positives) + lo;
  return 0;
}

std::vector<int64_t> EpochLabels::Members(int label) const {
  std::vector<int64_t> out;
  if (label != 1 && label != -1) return out;
  out.reserve(Count(label));
  const std::vector<int64_t>& all = *ids;
  if (label == -1) out.insert(out.end(), all.begin(), all.begin() + lo);
  for (size_t i = 0; i < window.size(); ++i) {
    if (window[i] == label) out.push_back(all[lo + i]);
  }
  if (label == 1) out.insert(out.end(), all.begin() + hi, all.end());
  return out;
}

namespace {
constexpr uint32_t kViewBaseTag = persist::MakeTag('V', 'B', 'A', 'S');
}  // namespace

Status ViewBase::SaveBaseState(persist::StateWriter* w) const {
  w->PutTag(kViewBaseTag);
  w->PutModel(model_);
  w->PutU64(trainer_.steps());
  w->PutU64(stats_.updates);
  w->PutU64(stats_.batches);
  w->PutU64(stats_.reorgs);
  w->PutU64(stats_.incremental_steps);
  w->PutU64(stats_.window_tuples);
  w->PutU64(stats_.tuples_scanned);
  w->PutU64(stats_.label_flips);
  w->PutU64(stats_.single_reads);
  w->PutU64(stats_.reads_by_bounds);
  w->PutU64(stats_.reads_by_buffer);
  w->PutU64(stats_.reads_from_store);
  w->PutU64(stats_.all_members_queries);
  w->PutDouble(stats_.total_update_seconds);
  w->PutDouble(stats_.total_reorg_seconds);
  w->PutDouble(stats_.last_reorg_cost);
  return Status::OK();
}

Status ViewBase::LoadBaseState(persist::StateReader* r) {
  HAZY_RETURN_NOT_OK(r->ExpectTag(kViewBaseTag));
  HAZY_RETURN_NOT_OK(r->GetModel(&model_));
  uint64_t steps = 0;
  HAZY_RETURN_NOT_OK(r->GetU64(&steps));
  trainer_.RestoreSteps(steps);
  // Stats fields are relaxed-atomic cells; deserialize through plain
  // temporaries (the reader wants raw uint64_t*/double* slots).
  uint64_t u = 0;
  double d = 0;
  HAZY_RETURN_NOT_OK(r->GetU64(&u));
  stats_.updates = u;
  HAZY_RETURN_NOT_OK(r->GetU64(&u));
  stats_.batches = u;
  HAZY_RETURN_NOT_OK(r->GetU64(&u));
  stats_.reorgs = u;
  HAZY_RETURN_NOT_OK(r->GetU64(&u));
  stats_.incremental_steps = u;
  HAZY_RETURN_NOT_OK(r->GetU64(&u));
  stats_.window_tuples = u;
  HAZY_RETURN_NOT_OK(r->GetU64(&u));
  stats_.tuples_scanned = u;
  HAZY_RETURN_NOT_OK(r->GetU64(&u));
  stats_.label_flips = u;
  HAZY_RETURN_NOT_OK(r->GetU64(&u));
  stats_.single_reads = u;
  HAZY_RETURN_NOT_OK(r->GetU64(&u));
  stats_.reads_by_bounds = u;
  HAZY_RETURN_NOT_OK(r->GetU64(&u));
  stats_.reads_by_buffer = u;
  HAZY_RETURN_NOT_OK(r->GetU64(&u));
  stats_.reads_from_store = u;
  HAZY_RETURN_NOT_OK(r->GetU64(&u));
  stats_.all_members_queries = u;
  HAZY_RETURN_NOT_OK(r->GetDouble(&d));
  stats_.total_update_seconds = d;
  HAZY_RETURN_NOT_OK(r->GetDouble(&d));
  stats_.total_reorg_seconds = d;
  HAZY_RETURN_NOT_OK(r->GetDouble(&d));
  stats_.last_reorg_cost = d;
  return Status::OK();
}

}  // namespace hazy::core
