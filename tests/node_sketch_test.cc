// Tests for NodeSketch (supernode): round structure, cross-node
// linearity (cut sampling), serialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "sketch/node_sketch.h"
#include "stream/stream_types.h"
#include "util/random.h"

namespace gz {
namespace {

NodeSketchParams MakeParams(uint64_t num_nodes, uint64_t seed,
                            int rounds = 0) {
  NodeSketchParams p;
  p.num_nodes = num_nodes;
  p.seed = seed;
  p.rounds = rounds;
  return p;
}

TEST(NodeSketchTest, DefaultRoundsGrowLogarithmically) {
  EXPECT_EQ(NodeSketch::DefaultRounds(2), 2);
  EXPECT_GE(NodeSketch::DefaultRounds(1024), 10);       // >= log2
  EXPECT_LE(NodeSketch::DefaultRounds(1024), 18);       // ~ log1.5
  EXPECT_GT(NodeSketch::DefaultRounds(1 << 20),
            NodeSketch::DefaultRounds(1 << 10));
}

TEST(NodeSketchTest, ExplicitRoundsRespected) {
  NodeSketch s(MakeParams(100, 1, 5));
  EXPECT_EQ(s.rounds(), 5);
}

TEST(NodeSketchTest, UpdateTouchesEveryRound) {
  NodeSketch s(MakeParams(64, 3));
  const uint64_t idx = EdgeToIndex(Edge(3, 9), 64);
  s.Update(idx);
  for (int r = 0; r < s.rounds(); ++r) {
    const SketchSample sample = s.Query(r);
    ASSERT_EQ(sample.kind, SampleKind::kGood) << "round " << r;
    EXPECT_EQ(sample.index, idx);
  }
}

TEST(NodeSketchTest, RoundsUseIndependentHashes) {
  // Different rounds' subsketches must differ structurally even with
  // identical content (different seeds per round).
  NodeSketch s(MakeParams(64, 3));
  ASSERT_GE(s.rounds(), 2);
  s.Update(5);
  EXPECT_NE(std::memcmp(s.subsketch(0), s.subsketch(1),
                        s.layout().round_bytes()),
            0);
}

TEST(NodeSketchTest, MergeCancelsSharedEdge) {
  // The defining property: merging the endpoints' sketches removes the
  // edge between them (it is internal to the merged component).
  const uint64_t n = 64;
  NodeSketch su(MakeParams(n, 7));
  NodeSketch sv(MakeParams(n, 7));
  const uint64_t idx = EdgeToIndex(Edge(10, 20), n);
  su.Update(idx);  // Edge incident to u.
  sv.Update(idx);  // Same edge incident to v.
  su.Merge(sv);
  for (int r = 0; r < su.rounds(); ++r) {
    EXPECT_EQ(su.Query(r).kind, SampleKind::kZero) << "round " << r;
  }
}

TEST(NodeSketchTest, MergeExposesCutEdgesOnly) {
  // Component {u, v} with internal edge (u,v) plus cut edge (u,w):
  // after merging, only the cut edge is sampleable.
  const uint64_t n = 64;
  NodeSketch su(MakeParams(n, 11));
  NodeSketch sv(MakeParams(n, 11));
  const uint64_t internal = EdgeToIndex(Edge(1, 2), n);
  const uint64_t cut = EdgeToIndex(Edge(1, 50), n);
  su.Update(internal);
  su.Update(cut);
  sv.Update(internal);
  su.Merge(sv);
  for (int r = 0; r < su.rounds(); ++r) {
    const SketchSample sample = su.Query(r);
    ASSERT_EQ(sample.kind, SampleKind::kGood);
    EXPECT_EQ(sample.index, cut);
  }
}

TEST(NodeSketchTest, SharedSeedsAcrossNodes) {
  // Two NodeSketches with the same params must have identical hash
  // structure: sketching the same content yields equal sketches.
  NodeSketch a(MakeParams(32, 5));
  NodeSketch b(MakeParams(32, 5));
  a.Update(3);
  b.Update(3);
  EXPECT_EQ(a, b);
}

TEST(NodeSketchTest, UpdateBatchMatchesLoop) {
  std::vector<uint64_t> indices = {0, 5, 2, 5, 7};
  NodeSketch a(MakeParams(32, 9));
  NodeSketch b(MakeParams(32, 9));
  for (uint64_t idx : indices) a.Update(idx);
  b.UpdateBatch(indices.data(), indices.size());
  EXPECT_EQ(a, b);
}

TEST(NodeSketchTest, ClearResets) {
  NodeSketch a(MakeParams(32, 9));
  NodeSketch empty(MakeParams(32, 9));
  a.Update(7);
  a.Clear();
  EXPECT_EQ(a, empty);
}

TEST(NodeSketchTest, QueryRoundOutOfRangeAborts) {
  NodeSketch s(MakeParams(32, 1, 3));
  EXPECT_DEATH(s.Query(3), "round");
  EXPECT_DEATH(s.Query(-1), "round");
}

TEST(NodeSketchTest, MergeParamMismatchAborts) {
  NodeSketch a(MakeParams(32, 1));
  NodeSketch b(MakeParams(32, 2));  // Different seed.
  EXPECT_DEATH(a.Merge(b), "different parameters");
}

TEST(NodeSketchTest, SerializationRoundTrip) {
  NodeSketch a(MakeParams(256, 13));
  SplitMix64 rng(1);
  for (int i = 0; i < 64; ++i) {
    a.Update(rng.NextBelow(NumPossibleEdges(256)));
  }
  std::vector<uint8_t> buf(a.SerializedSize());
  a.SerializeTo(buf.data());
  NodeSketch b(MakeParams(256, 13));
  b.DeserializeFrom(buf.data());
  EXPECT_EQ(a, b);
}

TEST(NodeSketchTest, SerializedSizeUniformAcrossInstances) {
  NodeSketch a(MakeParams(256, 13));
  NodeSketch b(MakeParams(256, 13));
  a.Update(1);
  EXPECT_EQ(a.SerializedSize(), b.SerializedSize());
  EXPECT_EQ(a.ByteSize(), a.SerializedSize());
}

TEST(NodeSketchTest, ByteSizeScalesWithLog3) {
  // Node sketch = O(log^3 V) bytes: rounds x rows x cols buckets.
  const size_t small = NodeSketch(MakeParams(1 << 8, 1)).ByteSize();
  const size_t big = NodeSketch(MakeParams(1 << 16, 1)).ByteSize();
  EXPECT_GT(big, small);
  EXPECT_LT(big, small * 30);  // Polylog growth, far below linear (256x).
}

class NodeSketchSeedSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NodeSketchSeedSweepTest, CutSamplingOnRandomStar) {
  // Star component: center c merged with k leaves; remaining cut edges
  // connect to nodes outside the component.
  const uint64_t seed = GetParam();
  const uint64_t n = 128;
  SplitMix64 rng(seed);
  std::vector<NodeSketch> sketches;
  for (int i = 0; i < 6; ++i) sketches.emplace_back(MakeParams(n, 99));

  // Component = nodes {0..5}; internal star edges 0-1..0-5.
  std::vector<uint64_t> internal, cut;
  for (NodeId v = 1; v <= 5; ++v) {
    const uint64_t idx = EdgeToIndex(Edge(0, v), n);
    internal.push_back(idx);
    sketches[0].Update(idx);
    sketches[v].Update(idx);
  }
  // Cut edges from random members to outside nodes.
  for (int i = 0; i < 3; ++i) {
    const NodeId inside = static_cast<NodeId>(rng.NextBelow(6));
    const NodeId outside = static_cast<NodeId>(6 + rng.NextBelow(n - 6));
    const uint64_t idx = EdgeToIndex(Edge(inside, outside), n);
    cut.push_back(idx);
    sketches[inside].Update(idx);
  }
  for (int i = 1; i < 6; ++i) sketches[0].Merge(sketches[i]);

  const SketchSample sample = sketches[0].Query(0);
  ASSERT_EQ(sample.kind, SampleKind::kGood);
  EXPECT_TRUE(std::find(cut.begin(), cut.end(), sample.index) != cut.end())
      << "sampled a non-cut edge";
}

INSTANTIATE_TEST_SUITE_P(Seeds, NodeSketchSeedSweepTest,
                         ::testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace gz
