// Tests for the on-disk gutter tree: exactly-once delivery, batch
// purity, flush completeness, multi-level recursion. Emission goes
// through pooled UpdateBatch slabs.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <csignal>
#include <map>
#include <set>
#include <string>
#include <tuple>

#include "buffer/gutter_tree.h"
#include "buffer/update_batch.h"
#include "buffer/work_queue.h"
#include "util/random.h"

namespace gz {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::map<NodeId, std::multiset<uint64_t>> DrainQueue(WorkQueue* q,
                                                     BatchPool* pool) {
  std::map<NodeId, std::multiset<uint64_t>> got;
  while (q->ApproxSize() > 0) {
    UpdateBatch* batch = q->Pop();
    if (batch == nullptr) break;
    for (uint32_t i = 0; i < batch->count; ++i) {
      got[batch->node].insert(batch->edge_indices()[i]);
    }
    pool->Release(batch);
    q->MarkDone();
  }
  return got;
}

GutterTreeParams SmallParams(uint64_t num_nodes, const std::string& file) {
  GutterTreeParams p;
  p.num_nodes = num_nodes;
  p.file_path = file;
  // Tiny buffers force multi-level structure and frequent flushes.
  p.buffer_bytes = 4 * GutterTree::kRecordBytes * 8;
  p.fanout = 4;
  p.leaf_gutter_updates = 8;
  return p;
}

TEST(GutterTreeTest, InitCreatesBackingFile) {
  const std::string path = TempPath("gt_init.bin");
  WorkQueue q(100);
  BatchPool pool(8);
  GutterTree tree(SmallParams(64, path), &pool, &q);
  ASSERT_TRUE(tree.Init().ok());
  EXPECT_GT(tree.DiskByteSize(), 0u);
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  std::remove(path.c_str());
}

TEST(GutterTreeTest, InsertBeforeInitAborts) {
  WorkQueue q(100);
  BatchPool pool(8);
  GutterTree tree(SmallParams(8, TempPath("gt_noinit.bin")), &pool, &q);
  EXPECT_DEATH(tree.Insert(0, 1), "Init");
}

TEST(GutterTreeTest, ForceFlushDeliversEverything) {
  const std::string path = TempPath("gt_flush.bin");
  WorkQueue q(1 << 14);
  BatchPool pool(8);
  GutterTree tree(SmallParams(16, path), &pool, &q);
  ASSERT_TRUE(tree.Init().ok());
  tree.Insert(3, 100);
  tree.Insert(9, 200);
  tree.ForceFlush();
  const auto got = DrainQueue(&q, &pool);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got.at(3).count(100), 1u);
  EXPECT_EQ(got.at(9).count(200), 1u);
  std::remove(path.c_str());
}

TEST(GutterTreeTest, BatchesAreNodePure) {
  const std::string path = TempPath("gt_pure.bin");
  WorkQueue q(1 << 14);
  BatchPool pool(8);
  GutterTree tree(SmallParams(32, path), &pool, &q);
  ASSERT_TRUE(tree.Init().ok());
  SplitMix64 rng(3);
  for (int i = 0; i < 3000; ++i) {
    tree.Insert(static_cast<NodeId>(rng.NextBelow(32)), rng.Next());
  }
  tree.ForceFlush();
  while (q.ApproxSize() > 0) {
    UpdateBatch* batch = q.Pop();
    ASSERT_NE(batch, nullptr);
    // A batch's destination is one node; every index was inserted for it.
    EXPECT_LT(batch->node, 32u);
    EXPECT_GT(batch->count, 0u);
    pool.Release(batch);
    q.MarkDone();
  }
  std::remove(path.c_str());
}

TEST(GutterTreeTest, InsertBatchMatchesPerUpdateInserts) {
  const std::string path = TempPath("gt_bulk.bin");
  WorkQueue q(1 << 14);
  BatchPool pool(8);
  GutterTree tree(SmallParams(16, path), &pool, &q);
  ASSERT_TRUE(tree.Init().ok());

  std::vector<GraphUpdate> updates;
  SplitMix64 rng(42);
  for (int i = 0; i < 500; ++i) {
    const NodeId a = static_cast<NodeId>(rng.NextBelow(16));
    NodeId b = static_cast<NodeId>(rng.NextBelow(16));
    if (a == b) b = (b + 1) % 16;
    updates.push_back({Edge(a, b), UpdateType::kInsert});
  }
  tree.InsertBatch(updates.data(), updates.size());
  tree.ForceFlush();
  const auto got = DrainQueue(&q, &pool);

  std::map<NodeId, std::multiset<uint64_t>> want;
  for (const GraphUpdate& u : updates) {
    const uint64_t idx = EdgeToIndex(u.edge, 16);
    want[u.edge.u].insert(idx);
    want[u.edge.v].insert(idx);
  }
  EXPECT_EQ(got, want);
  std::remove(path.c_str());
}

// Sweep tree geometries: all must deliver every update exactly once.
class GutterTreeDeliveryTest
    : public ::testing::TestWithParam<
          std::tuple<uint64_t, size_t, size_t, int>> {};

TEST_P(GutterTreeDeliveryTest, DeliversEveryUpdateExactlyOnce) {
  const auto [num_nodes, fanout, leaf_updates, updates] = GetParam();
  const std::string path = TempPath(
      "gt_deliver_" + std::to_string(num_nodes) + "_" +
      std::to_string(fanout) + "_" + std::to_string(leaf_updates) + ".bin");
  WorkQueue q(1 << 16);
  BatchPool pool(static_cast<uint32_t>(leaf_updates));
  GutterTreeParams p;
  p.num_nodes = num_nodes;
  p.file_path = path;
  p.buffer_bytes = GutterTree::kRecordBytes * fanout * 4;
  p.fanout = fanout;
  p.leaf_gutter_updates = leaf_updates;
  GutterTree tree(p, &pool, &q);
  ASSERT_TRUE(tree.Init().ok());

  SplitMix64 rng(num_nodes * 31 + fanout);
  std::map<NodeId, std::multiset<uint64_t>> sent;
  for (int i = 0; i < updates; ++i) {
    const NodeId node = static_cast<NodeId>(rng.NextBelow(num_nodes));
    const uint64_t idx = rng.NextBelow(1 << 30);
    tree.Insert(node, idx);
    sent[node].insert(idx);
  }
  tree.ForceFlush();
  const auto got = DrainQueue(&q, &pool);
  EXPECT_EQ(got, sent);
  EXPECT_GT(tree.bytes_written(), 0u);
  EXPECT_EQ(pool.outstanding(), 0);  // Every emitted slab came back.
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, GutterTreeDeliveryTest,
    ::testing::Values(
        std::make_tuple(4ULL, 2UL, 4UL, 500),      // Deep tree, tiny leaves.
        std::make_tuple(64ULL, 4UL, 8UL, 4000),    // Three levels.
        std::make_tuple(64ULL, 64UL, 16UL, 4000),  // Root -> leaves direct.
        std::make_tuple(300ULL, 8UL, 32UL, 8000),  // Uneven ranges.
        std::make_tuple(1000ULL, 16UL, 8UL, 20000)));

TEST(GutterTreeTest, SkewedLoadOnOneNode) {
  // Everything lands in one leaf gutter: exercises the emit-combined
  // path repeatedly.
  const std::string path = TempPath("gt_skew.bin");
  WorkQueue q(1 << 14);
  BatchPool pool(8);
  GutterTree tree(SmallParams(64, path), &pool, &q);
  ASSERT_TRUE(tree.Init().ok());
  for (int i = 0; i < 1000; ++i) tree.Insert(7, i);
  tree.ForceFlush();
  const auto got = DrainQueue(&q, &pool);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got.at(7).size(), 1000u);
  std::remove(path.c_str());
}

class GutterTreeGroupedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GutterTreeGroupedTest, GroupedLeavesDeliverExactlyOnce) {
  const uint64_t group_size = GetParam();
  const std::string path =
      TempPath("gt_grouped_" + std::to_string(group_size) + ".bin");
  WorkQueue q(1 << 16);
  BatchPool pool(16);
  GutterTreeParams p;
  p.num_nodes = 100;
  p.file_path = path;
  p.buffer_bytes = GutterTree::kRecordBytes * 64;
  p.fanout = 4;
  p.leaf_gutter_updates = 16;
  p.nodes_per_group = group_size;
  GutterTree tree(p, &pool, &q);
  ASSERT_TRUE(tree.Init().ok());

  SplitMix64 rng(group_size * 13 + 3);
  std::map<NodeId, std::multiset<uint64_t>> sent;
  for (int i = 0; i < 8000; ++i) {
    const NodeId node = static_cast<NodeId>(rng.NextBelow(100));
    const uint64_t idx = rng.NextBelow(1 << 28);
    tree.Insert(node, idx);
    sent[node].insert(idx);
  }
  tree.ForceFlush();
  EXPECT_EQ(DrainQueue(&q, &pool), sent);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, GutterTreeGroupedTest,
                         ::testing::Values(1, 3, 8, 100));

TEST(GutterTreeTest, SingleNodeGraph) {
  const std::string path = TempPath("gt_single.bin");
  WorkQueue q(100);
  BatchPool pool(4);
  GutterTreeParams p;
  p.num_nodes = 1;
  p.file_path = path;
  p.buffer_bytes = GutterTree::kRecordBytes * 32;
  p.fanout = 4;
  p.leaf_gutter_updates = 4;
  GutterTree tree(p, &pool, &q);
  ASSERT_TRUE(tree.Init().ok());
  for (int i = 0; i < 10; ++i) tree.Insert(0, i);
  tree.ForceFlush();
  const auto got = DrainQueue(&q, &pool);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got.at(0).size(), 10u);
  std::remove(path.c_str());
}

TEST(GutterTreeTest, IoCountersMonotone) {
  const std::string path = TempPath("gt_io.bin");
  WorkQueue q(1 << 14);
  BatchPool pool(8);
  GutterTree tree(SmallParams(16, path), &pool, &q);
  ASSERT_TRUE(tree.Init().ok());
  uint64_t last_written = 0;
  SplitMix64 rng(7);
  for (int burst = 0; burst < 4; ++burst) {
    for (int i = 0; i < 500; ++i) {
      tree.Insert(static_cast<NodeId>(rng.NextBelow(16)), rng.Next());
    }
    tree.ForceFlush();
    DrainQueue(&q, &pool);
    EXPECT_GE(tree.bytes_written(), last_written);
    last_written = tree.bytes_written();
  }
  EXPECT_GT(last_written, 0u);
  std::remove(path.c_str());
}

TEST(GutterTreeTest, DoubleInitFails) {
  const std::string path = TempPath("gt_double.bin");
  WorkQueue q(10);
  BatchPool pool(8);
  GutterTree tree(SmallParams(8, path), &pool, &q);
  ASSERT_TRUE(tree.Init().ok());
  EXPECT_EQ(tree.Init().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(GutterTreeTest, RepeatedFlushCyclesStayConsistent) {
  // Ingest / flush / ingest again: the tree must keep delivering
  // correctly across ForceFlush cycles (mid-stream query pattern).
  const std::string path = TempPath("gt_cycles.bin");
  WorkQueue q(1 << 14);
  BatchPool pool(8);
  GutterTree tree(SmallParams(32, path), &pool, &q);
  ASSERT_TRUE(tree.Init().ok());
  SplitMix64 rng(17);
  std::map<NodeId, std::multiset<uint64_t>> sent;
  std::map<NodeId, std::multiset<uint64_t>> got;
  for (int cycle = 0; cycle < 5; ++cycle) {
    for (int i = 0; i < 500; ++i) {
      const NodeId node = static_cast<NodeId>(rng.NextBelow(32));
      const uint64_t idx = rng.Next();
      tree.Insert(node, idx);
      sent[node].insert(idx);
    }
    tree.ForceFlush();
    for (auto& [node, indices] : DrainQueue(&q, &pool)) {
      got[node].insert(indices.begin(), indices.end());
    }
    EXPECT_EQ(got, sent) << "cycle " << cycle;
  }
  std::remove(path.c_str());
}

// A buffer spill the file system refuses (here: past RLIMIT_FSIZE, with
// SIGXFSZ ignored so pwrite returns EFBIG) aborts, even inside the file
// Init() preallocated.
TEST(GutterTreeDeathTest, WriteFaultAborts) {
  constexpr uint64_t n = 1024;
  const std::string path = TempPath("gt_write_fault.bin");
  WorkQueue q(1 << 14);
  BatchPool pool(8);
  GutterTree tree(SmallParams(n, path), &pool, &q);
  ASSERT_TRUE(tree.Init().ok());
  ASSERT_GT(tree.DiskByteSize(), 4096u);
  EXPECT_DEATH(
      {
        std::signal(SIGXFSZ, SIG_IGN);
        rlimit limit;
        limit.rlim_cur = 4096;
        limit.rlim_max = 4096;
        ::setrlimit(RLIMIT_FSIZE, &limit);
        // Every root spill scatters over the whole tree's file.
        for (uint64_t i = 0; i < n; ++i) {
          tree.Insert(static_cast<NodeId>(i), i);
        }
        tree.ForceFlush();
      },
      "gutter tree pwrite");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gz
