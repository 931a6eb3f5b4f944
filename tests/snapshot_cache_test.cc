// SnapshotCache plan/refresh agreement: PlannedPulls() must predict
// EXACTLY the pulls Refresh() makes at the same (epoch, marks) — the
// two consult one shared needs-pull predicate, and QuerySession's
// seqlock depends on the plan being exact (it pre-stages one buffer
// per planned pull; an unplanned pull inside Refresh would fail the
// refresh, a planned-but-skipped one would leak a stale stage).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
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
// the way a coordinator tracks them (ingested count, delta_seq 0).
class SnapshotCachePlanTest : public ::testing::Test {
 protected:
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

  // Refresh + the assertion under test: the shards the puller was
  // actually asked for are exactly PlannedPulls(), in count AND in
  // identity (nodes_per_chunk = 0, so one pull per pulled shard).
  void RefreshAndCheckPlan(uint64_t epoch, const ShardWatermarks& marks) {
    std::vector<int> plan = cache_.PlannedPulls(epoch, marks);
    const uint64_t pulls_before = cache_.range_pulls();
    std::vector<int> pulled;
    const Status s = cache_.Refresh(
        epoch, marks, /*total_updates=*/0, shards_[0]->sketch_params(),
        [this, &pulled](int shard, uint64_t lo, uint64_t hi,
                        std::vector<uint8_t>* delta) {
          pulled.push_back(shard);
          *delta = shards_[shard]->Snapshot().ExtractNodeRange(lo, hi);
          return Status::Ok();
        });
    ASSERT_TRUE(s.ok()) << s.ToString();
    std::sort(plan.begin(), plan.end());
    std::sort(pulled.begin(), pulled.end());
    EXPECT_EQ(pulled, plan);
    EXPECT_EQ(cache_.range_pulls() - pulls_before, plan.size());
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
    EXPECT_EQ(want.sketches(), cache_.merged().sketches());
  }

  std::vector<std::unique_ptr<GraphZeppelin>> shards_;
  SnapshotCache cache_{/*nodes_per_chunk=*/0};
};

TEST_F(SnapshotCachePlanTest, PlanPredictsPullsThroughCacheLifecycle) {
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

TEST_F(SnapshotCachePlanTest, InvalidatedCachePlansEveryShard) {
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

}  // namespace
}  // namespace gz
