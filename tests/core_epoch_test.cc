// Unit tests for the epoch subsystem behind snapshot reads: the chunked
// immutable entity store, the writer-side builder (seal / reuse / compaction),
// and the manager's publish / pin / reclaim lifecycle.

#include "core/epoch.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/classifier_view.h"
#include "ml/model.h"
#include "ml/vector.h"

namespace hazy::core {
namespace {

Entity Ent(int64_t id, double x) {
  Entity e;
  e.id = id;
  e.features = ml::FeatureVector::Dense({x});
  return e;
}

// 1-d model: label(x) = sign(x - 5), sign(0) = +1.
ml::LinearModel Threshold5() {
  ml::LinearModel m;
  m.w = {1.0};
  m.b = 5.0;
  return m;
}

TEST(EpochEntityStoreTest, FindConsultsNewestChunkFirst) {
  auto old_chunk = MakeEpochChunk({Ent(1, 1.0), Ent(2, 2.0)});
  // Newer chunk re-defines id 2 (entity replaced in a later batch).
  auto new_chunk = MakeEpochChunk({Ent(2, 9.0), Ent(3, 3.0)});
  EpochEntityStore store({old_chunk, new_chunk});
  const Entity* e = store.Find(2);
  ASSERT_NE(e, nullptr);
  EXPECT_DOUBLE_EQ(e->features.Dot({1.0}), 9.0);
  EXPECT_NE(store.Find(1), nullptr);
  EXPECT_NE(store.Find(3), nullptr);
  EXPECT_EQ(store.Find(42), nullptr);
}

TEST(EpochSnapshotTest, AnswersMatchHandModel) {
  auto chunk = MakeEpochChunk(
      {Ent(1, 2.0), Ent(2, 5.0), Ent(3, 7.0), Ent(4, 4.0), Ent(5, 8.0)});
  auto store = std::make_shared<const EpochEntityStore>(
      std::vector<std::shared_ptr<const EpochChunk>>{chunk});
  EpochSnapshot snap(/*epoch=*/1, Threshold5(), store);

  EXPECT_EQ(snap.num_entities(), 5u);
  // sign(2-5) = -1; sign(5-5) = sign(0) = +1 (paper convention); sign(7-5)=+1.
  auto l1 = snap.SingleEntityRead(1);
  auto l2 = snap.SingleEntityRead(2);
  auto l3 = snap.SingleEntityRead(3);
  ASSERT_TRUE(l1.ok() && l2.ok() && l3.ok());
  EXPECT_EQ(*l1, -1);
  EXPECT_EQ(*l2, +1);
  EXPECT_EQ(*l3, +1);
  EXPECT_FALSE(snap.SingleEntityRead(99).ok());

  auto pos = snap.AllMembers(+1);
  auto neg = snap.AllMembers(-1);
  ASSERT_TRUE(pos.ok() && neg.ok());
  EXPECT_EQ(*pos, (std::vector<int64_t>{2, 3, 5}));
  EXPECT_EQ(*neg, (std::vector<int64_t>{1, 4}));

  auto npos = snap.AllMembersCount(+1);
  auto nneg = snap.AllMembersCount(-1);
  ASSERT_TRUE(npos.ok() && nneg.ok());
  EXPECT_EQ(*npos, 3u);
  EXPECT_EQ(*nneg, 2u);
}

// Published labels (an eager view's materialized state) answer All Members
// and COUNT without scoring: ids[0, lo) are −1, ids[hi, n) are +1, and the
// window holds the labels in between, in the view's layout order. The
// layouts below cover an empty window, lo = 0, hi = n, a window whose labels
// interleave, and every row in the window (the Naive-MM shape).
TEST(EpochSnapshotTest, PublishedLabelsAnswerInLayoutOrder) {
  // Under Threshold5: ids 1, 2 are −1 (x < 5), ids 3..6 are +1.
  auto chunk = MakeEpochChunk({Ent(1, 1.0), Ent(2, 3.0), Ent(3, 5.0),
                               Ent(4, 6.0), Ent(5, 8.0), Ent(6, 9.0)});
  auto store = std::make_shared<const EpochEntityStore>(
      std::vector<std::shared_ptr<const EpochChunk>>{chunk});
  struct Layout {
    const char* name;
    std::vector<int64_t> ids;
    size_t lo, hi;
    std::vector<int8_t> window;
    std::vector<int64_t> pos, neg;
  };
  const std::vector<int64_t> sorted = {1, 2, 3, 4, 5, 6};
  const Layout layouts[] = {
      {"empty window", sorted, 2, 2, {}, {3, 4, 5, 6}, {1, 2}},
      {"lo = 0", sorted, 0, 4, {-1, -1, 1, 1}, {3, 4, 5, 6}, {1, 2}},
      {"hi = n", sorted, 1, 6, {-1, 1, 1, 1, 1}, {3, 4, 5, 6}, {1, 2}},
      {"interleaved window", {1, 3, 2, 4, 5, 6}, 1, 4, {1, -1, 1}, {3, 4, 5, 6},
       {1, 2}},
      {"all in window", {4, 1, 6, 2, 3, 5}, 0, 6, {1, -1, 1, -1, 1, 1},
       {4, 6, 3, 5}, {1, 2}},
  };
  for (const Layout& l : layouts) {
    SCOPED_TRACE(l.name);
    EpochLabels labels;
    labels.ids = std::make_shared<const std::vector<int64_t>>(l.ids);
    labels.lo = l.lo;
    labels.hi = l.hi;
    labels.window = l.window;
    EpochSnapshot snap(/*epoch=*/1, Threshold5(), store, labels);
    ASSERT_NE(snap.labels(), nullptr);
    auto pos = snap.AllMembers(+1);
    auto neg = snap.AllMembers(-1);
    auto npos = snap.AllMembersCount(+1);
    auto nneg = snap.AllMembersCount(-1);
    ASSERT_TRUE(pos.ok() && neg.ok() && npos.ok() && nneg.ok());
    EXPECT_EQ(*pos, l.pos);
    EXPECT_EQ(*neg, l.neg);
    EXPECT_EQ(*npos, l.pos.size());
    EXPECT_EQ(*nneg, l.neg.size());
  }
}

TEST(EpochStoreBuilderTest, SealReusesStoreWhenClean) {
  EpochStoreBuilder builder;
  // Seed a chunk big enough that the tiered-merge policy leaves it alone
  // when a small append follows (3 > kMergeFactor x 1).
  builder.Append(Ent(1, 1.0));
  builder.Append(Ent(2, 2.0));
  builder.Append(Ent(3, 3.0));
  EXPECT_TRUE(builder.dirty());
  auto s1 = builder.Seal();
  EXPECT_FALSE(builder.dirty());
  // An update-only batch (no entity changes) republishes the same store.
  auto s2 = builder.Seal();
  EXPECT_EQ(s1.get(), s2.get());
  // A new append produces a new store sharing the earlier chunk.
  builder.Append(Ent(4, 4.0));
  EXPECT_TRUE(builder.dirty());
  auto s3 = builder.Seal();
  EXPECT_NE(s3.get(), s1.get());
  EXPECT_EQ(s3->size(), 4u);
  ASSERT_GE(s3->chunks().size(), 2u);
  EXPECT_EQ(s3->chunks()[0].get(), s1->chunks()[0].get())
      << "append batches must share earlier sealed chunks, not copy them";
}

TEST(EpochStoreBuilderTest, ReplaceAllDropsHistory) {
  EpochStoreBuilder builder;
  builder.Append(Ent(1, 1.0));
  builder.Seal();
  builder.ReplaceAll({Ent(10, 1.0), Ent(11, 2.0)});
  auto s = builder.Seal();
  EXPECT_EQ(s->size(), 2u);
  EXPECT_EQ(s->Find(1), nullptr);
  EXPECT_NE(s->Find(10), nullptr);
}

TEST(EpochStoreBuilderTest, LongAppendStreamCompactsChunks) {
  EpochStoreBuilder builder;
  // 64 one-entity batches: without merging the store would accumulate 64
  // chunks and per-lookup cost would degrade linearly in batch count.
  for (int i = 0; i < 64; ++i) {
    builder.Append(Ent(i, static_cast<double>(i)));
    builder.Seal();
  }
  auto s = builder.Seal();
  EXPECT_EQ(s->size(), 64u);
  EXPECT_LE(s->chunks().size(), 16u);
  for (int i = 0; i < 64; ++i) {
    ASSERT_NE(s->Find(i), nullptr) << "lost entity " << i << " in compaction";
  }
}

TEST(EpochStoreBuilderTest, SingleRowStreamNeverRecopiesLargeHeadChunk) {
  // Regression for the O(N^2) full-compaction policy: a big sealed run must
  // stay shared while a stream of single-row publishes merges only among
  // the small tail chunks (geometric size invariant).
  EpochStoreBuilder builder;
  std::vector<Entity> bulk;
  for (int i = 0; i < 4096; ++i) bulk.push_back(Ent(i, static_cast<double>(i)));
  builder.ReplaceAll(std::move(bulk));
  auto base = builder.Seal();
  auto head = base->chunks()[0];
  for (int i = 4096; i < 4096 + 512; ++i) {
    builder.Append(Ent(i, static_cast<double>(i)));
    auto s = builder.Seal();
    ASSERT_EQ(s->chunks()[0].get(), head.get())
        << "publish " << i - 4096 << " recopied the 4096-row head chunk";
    // Chunk count stays logarithmic in the appended rows, not linear.
    ASSERT_LE(s->chunks().size(), 16u);
  }
  auto s = builder.Seal();
  EXPECT_EQ(s->size(), 4096u + 512u);
  EXPECT_NE(s->Find(4096 + 511), nullptr);
  EXPECT_NE(s->Find(0), nullptr);
}

TEST(EpochManagerTest, PinBeforePublishIsEmpty) {
  EpochManager mgr;
  EXPECT_FALSE(mgr.HasPublished());
  SnapshotPin pin = mgr.Pin();
  EXPECT_FALSE(pin);
}

TEST(EpochManagerTest, PinnedEpochSurvivesUntilLastUnpin) {
  EpochManager mgr;
  EpochStoreBuilder builder;
  builder.Append(Ent(1, 1.0));
  mgr.Publish(Threshold5(), builder.Seal());
  ASSERT_TRUE(mgr.HasPublished());
  EXPECT_EQ(mgr.latest_epoch(), 1u);

  SnapshotPin a = mgr.Pin();
  SnapshotPin b = mgr.Pin();
  ASSERT_TRUE(a);
  ASSERT_TRUE(b);
  EXPECT_EQ(a->epoch(), 1u);

  // Retire epoch 1 twice over; both pins still hold it live.
  builder.Append(Ent(2, 6.0));
  mgr.Publish(Threshold5(), builder.Seal());
  mgr.Publish(Threshold5(), builder.Seal());
  EXPECT_EQ(mgr.latest_epoch(), 3u);
  EXPECT_TRUE(mgr.IsLive(1));
  // Epoch 2 had no pins: retired-and-unpinned epochs reclaim eagerly.
  EXPECT_FALSE(mgr.IsLive(2));
  EXPECT_EQ(mgr.reclaimed_total(), 1u);

  // Pinned readers keep answering from their epoch, not the latest.
  EXPECT_EQ(a->num_entities(), 1u);

  a.Release();
  EXPECT_TRUE(mgr.IsLive(1)) << "reclaimed while a pin was still held";
  b.Release();
  EXPECT_FALSE(mgr.IsLive(1));
  EXPECT_EQ(mgr.reclaimed_total(), 2u);
  EXPECT_EQ(mgr.live_epochs(), 1u);  // only the latest remains
  EXPECT_TRUE(mgr.IsLive(3));
}

TEST(EpochManagerTest, MovedFromPinDoesNotDoubleUnpin) {
  EpochManager mgr;
  EpochStoreBuilder builder;
  builder.Append(Ent(1, 1.0));
  mgr.Publish(Threshold5(), builder.Seal());

  SnapshotPin a = mgr.Pin();
  SnapshotPin b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): moved-from is empty
  ASSERT_TRUE(b);
  mgr.Publish(Threshold5(), builder.Seal());
  a.Release();  // releasing the hollow pin must be a no-op
  EXPECT_TRUE(mgr.IsLive(1));
  b.Release();
  EXPECT_FALSE(mgr.IsLive(1));
}

}  // namespace
}  // namespace hazy::core
