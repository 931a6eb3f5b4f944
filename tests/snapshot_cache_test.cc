// SnapshotCache plan/refresh agreement: PlannedPulls() must predict
// EXACTLY the pulls Refresh() makes at the same (epoch, marks) — the
// two consult one shared needs-pull predicate, and QuerySession's
// seqlock depends on the plan being exact (it pre-stages one buffer
// per planned pull; an unplanned pull inside Refresh would fail the
// refresh, a planned-but-skipped one would leak a stale stage). Every
// refresh is checked bitwise against an XOR re-fold, so the retained
// pulled bytes must cancel exactly, chunk by chunk.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/graph_zeppelin.h"
#include "core/snapshot_cache.h"

namespace gz {
namespace {

constexpr uint64_t kNodes = 24;
constexpr uint64_t kSeed = 1234;

GraphZeppelinConfig Config() {
  GraphZeppelinConfig c;
  c.num_nodes = kNodes;
  c.seed = kSeed;  // Every shard shares the seed — mergeable sketches.
  c.disk_dir = ::testing::TempDir();
  return c;
}

// A toy "cluster": per-shard in-process instances, watermarks tracked
// the way a coordinator tracks them (ingested count, delta_seq 0). The
// parameter is the cache's nodes_per_chunk: 0 (one chunk per shard) or
// 5 (five chunks, the last one ragged).
class SnapshotCachePlanTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  uint64_t ChunksPerShard() const {
    return GetParam() == 0 ? 1 : (kNodes + GetParam() - 1) / GetParam();
  }

  void SetUp() override {
    for (int s = 0; s < 3; ++s) AddShard();
    // A path spread across the shards: 0-1-2-...-8.
    Ingest(0, {{Edge(0, 1), UpdateType::kInsert},
               {Edge(1, 2), UpdateType::kInsert},
               {Edge(2, 3), UpdateType::kInsert}});
    Ingest(1, {{Edge(3, 4), UpdateType::kInsert},
               {Edge(4, 5), UpdateType::kInsert}});
    Ingest(2, {{Edge(5, 6), UpdateType::kInsert},
               {Edge(6, 7), UpdateType::kInsert},
               {Edge(7, 8), UpdateType::kInsert}});
  }

  void AddShard() {
    shards_.push_back(std::make_unique<GraphZeppelin>(Config()));
    ASSERT_TRUE(shards_.back()->Init().ok());
  }

  void Ingest(int shard, const std::vector<GraphUpdate>& updates) {
    for (const GraphUpdate& u : updates) shards_[shard]->Update(u);
    shards_[shard]->Flush();
  }

  // The cluster position over the live (non-vanished) shards.
  ShardWatermarks Marks(const std::vector<int>& live) const {
    ShardWatermarks marks;
    for (const int s : live) {
      ShardWatermark mark;
      mark.num_updates = shards_[s]->num_updates_ingested();
      marks.emplace(s, mark);
    }
    return marks;
  }

  // Pulls [lo, hi) of `shard`'s current content.
  Status Pull(int shard, uint64_t lo, uint64_t hi,
              std::vector<uint8_t>* delta) {
    *delta = shards_[shard]->Snapshot().ExtractNodeRange(lo, hi);
    return Status::Ok();
  }

  Status Refresh(uint64_t epoch, const ShardWatermarks& marks,
                 const SnapshotCache::RangePuller& puller) {
    return cache_.Refresh(epoch, marks, /*total_updates=*/0,
                          shards_[0]->sketch_params(), puller);
  }

  // Refresh + the assertion under test: the shards the puller was
  // actually asked for are exactly PlannedPulls(), in count AND in
  // identity — every chunk of each planned shard, nothing else.
  void RefreshAndCheckPlan(uint64_t epoch, const ShardWatermarks& marks) {
    std::vector<int> want;
    for (const int shard : cache_.PlannedPulls(epoch, marks)) {
      want.insert(want.end(), ChunksPerShard(), shard);
    }
    const uint64_t pulls_before = cache_.range_pulls();
    std::vector<int> pulled;
    const Status s = Refresh(
        epoch, marks,
        [this, &pulled](int shard, uint64_t lo, uint64_t hi,
                        std::vector<uint8_t>* delta) {
          pulled.push_back(shard);
          return Pull(shard, lo, hi, delta);
        });
    ASSERT_TRUE(s.ok()) << s.ToString();
    std::sort(want.begin(), want.end());
    std::sort(pulled.begin(), pulled.end());
    EXPECT_EQ(pulled, want);
    EXPECT_EQ(cache_.range_pulls() - pulls_before, want.size());
  }

  // Bitwise ground truth: the cached merged snapshot must equal the
  // XOR-fold of the live shards' current snapshots.
  void CheckMergedBitwise(const std::vector<int>& live) {
    GraphSnapshot want = shards_[live[0]]->Snapshot();
    for (size_t i = 1; i < live.size(); ++i) {
      const std::vector<uint8_t> bytes =
          shards_[live[i]]->Snapshot().ExtractNodeRange(0, kNodes);
      ASSERT_TRUE(want.MergeSerialized(bytes.data(), bytes.size()).ok());
    }
    // Range folds carry no counts: compare the sketches.
    want.SetUpdates(cache_.merged().num_updates());
    EXPECT_TRUE(want == cache_.merged());
  }

  std::vector<std::unique_ptr<GraphZeppelin>> shards_;
  SnapshotCache cache_{GetParam()};
};

TEST_P(SnapshotCachePlanTest, PlanPredictsPullsThroughCacheLifecycle) {
  // Cold build: every shard with a nonzero watermark is planned.
  {
    const ShardWatermarks marks = Marks({0, 1, 2});
    std::vector<int> plan = cache_.PlannedPulls(1, marks);
    std::sort(plan.begin(), plan.end());
    EXPECT_EQ(plan, (std::vector<int>{0, 1, 2}));
    RefreshAndCheckPlan(1, marks);
    CheckMergedBitwise({0, 1, 2});
  }
  // No-op refresh at the same position: empty plan, zero pulls.
  {
    const ShardWatermarks marks = Marks({0, 1, 2});
    EXPECT_TRUE(cache_.PlannedPulls(1, marks).empty());
    RefreshAndCheckPlan(1, marks);
  }
  // One shard moves: the plan names it alone.
  {
    Ingest(1, {{Edge(9, 10), UpdateType::kInsert}});
    const ShardWatermarks marks = Marks({0, 1, 2});
    EXPECT_EQ(cache_.PlannedPulls(1, marks), std::vector<int>{1});
    RefreshAndCheckPlan(1, marks);
    CheckMergedBitwise({0, 1, 2});
  }
  // A brand-new shard at the zero watermark: its content is still the
  // XOR identity, so it is installed WITHOUT a pull — not planned.
  {
    AddShard();
    const ShardWatermarks marks = Marks({0, 1, 2, 3});
    EXPECT_TRUE(cache_.PlannedPulls(2, marks).empty());
    RefreshAndCheckPlan(2, marks);
  }
  // A vanished shard (removed from the table, content migrated to a
  // survivor): cancelled from retained content, never pulled — only
  // the survivor whose watermark moved is planned. Linearity lets the
  // test "migrate" by re-ingesting the vanished shard's updates into
  // the survivor: the fold is the same XOR either way.
  {
    Ingest(2, {{Edge(0, 1), UpdateType::kInsert},
               {Edge(1, 2), UpdateType::kInsert},
               {Edge(2, 3), UpdateType::kInsert}});
    const ShardWatermarks marks = Marks({1, 2, 3});
    EXPECT_EQ(cache_.PlannedPulls(3, marks), std::vector<int>{2});
    RefreshAndCheckPlan(3, marks);
    CheckMergedBitwise({1, 2, 3});
  }
}

TEST_P(SnapshotCachePlanTest, InvalidatedCachePlansEveryShard) {
  RefreshAndCheckPlan(1, Marks({0, 1, 2}));
  cache_.Invalidate();
  // After invalidation nothing is recorded: every nonzero-watermark
  // shard is planned again (and a zero-watermark one still is not).
  AddShard();
  const ShardWatermarks marks = Marks({0, 1, 2, 3});
  std::vector<int> plan = cache_.PlannedPulls(1, marks);
  std::sort(plan.begin(), plan.end());
  EXPECT_EQ(plan, (std::vector<int>{0, 1, 2}));
  RefreshAndCheckPlan(1, marks);
  CheckMergedBitwise({0, 1, 2, 3});
}

TEST_P(SnapshotCachePlanTest, HalfAppliedRefreshNeverServes) {
  // Two shards move; the second one's last chunk fails after the first
  // shard's new bytes (and the second's earlier chunks) were already
  // folded and retained. That half-applied state must not serve: the
  // cache invalidates, and the next refresh cold-rebuilds from fresh
  // pulls of every shard, bitwise-equal to the fold.
  RefreshAndCheckPlan(1, Marks({0, 1, 2}));
  CheckMergedBitwise({0, 1, 2});
  Ingest(1, {{Edge(9, 10), UpdateType::kInsert}});
  Ingest(2, {{Edge(10, 11), UpdateType::kInsert}});
  const ShardWatermarks marks = Marks({0, 1, 2});
  ASSERT_EQ(cache_.PlannedPulls(1, marks), (std::vector<int>{1, 2}));
  const Status s = Refresh(
      1, marks,
      [this](int shard, uint64_t lo, uint64_t hi,
             std::vector<uint8_t>* delta) {
        if (shard == 2 && hi == kNodes) {
          return Status::IoError("replica lost mid-refresh");
        }
        return Pull(shard, lo, hi, delta);
      });
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_FALSE(cache_.valid());
  EXPECT_FALSE(cache_.Fresh(1, marks));

  const uint64_t cold_before = cache_.cold_builds();
  EXPECT_EQ(cache_.PlannedPulls(1, marks), (std::vector<int>{0, 1, 2}));
  RefreshAndCheckPlan(1, marks);
  EXPECT_EQ(cache_.cold_builds(), cold_before + 1);
  CheckMergedBitwise({0, 1, 2});
}

INSTANTIATE_TEST_SUITE_P(NodesPerChunk, SnapshotCachePlanTest,
                         ::testing::Values(uint64_t{0}, uint64_t{5}),
                         [](const auto& info) {
                           return "Chunk" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace gz
