// Tests for the extended sketch algorithms: spanning-forest
// decomposition, bridges, bipartiteness.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "algos/bipartiteness.h"
#include "algos/bridges.h"
#include "algos/spanning_forests.h"
#include "core/connectivity.h"
#include "dsu/dsu.h"
#include "stream/erdos_renyi_generator.h"
#include "util/random.h"

namespace gz {
namespace {

GraphSnapshot SketchGraph(uint64_t num_nodes, uint64_t seed,
                          const EdgeList& edges, int rounds) {
  NodeSketchParams p;
  p.num_nodes = num_nodes;
  p.seed = seed;
  p.rounds = rounds;
  std::vector<NodeSketch> sketches;
  sketches.reserve(num_nodes);
  for (uint64_t i = 0; i < num_nodes; ++i) sketches.emplace_back(p);
  for (const Edge& e : edges) {
    const uint64_t idx = EdgeToIndex(e, num_nodes);
    sketches[e.u].Update(idx);
    sketches[e.v].Update(idx);
  }
  return GraphSnapshot(std::move(sketches), 0);
}

std::set<std::pair<NodeId, NodeId>> ToSet(const EdgeList& edges) {
  std::set<std::pair<NodeId, NodeId>> out;
  for (const Edge& e : edges) out.insert({e.u, e.v});
  return out;
}

// ---------------- spanning forest decomposition -------------------------

TEST(SpanningForestsTest, TreePeelsToOneForest) {
  const uint64_t n = 16;
  EdgeList edges;
  for (NodeId i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  const GraphSnapshot snap = SketchGraph(n, 1, edges, RoundsForForests(n, 2));
  const ForestDecomposition d =
      ExtractSpanningForests(snap, 2).value();
  ASSERT_FALSE(d.failed);
  ASSERT_EQ(d.forests.size(), 1u);  // Second phase finds no edges.
  EXPECT_EQ(ToSet(d.forests[0]), ToSet(edges));
}

TEST(SpanningForestsTest, CyclePeelsToTreePlusEdge) {
  const uint64_t n = 10;
  EdgeList edges;
  for (NodeId i = 0; i < n; ++i) {
    edges.emplace_back(i, static_cast<NodeId>((i + 1) % n));
  }
  const GraphSnapshot snap = SketchGraph(n, 2, edges, RoundsForForests(n, 2));
  const ForestDecomposition d =
      ExtractSpanningForests(snap, 2).value();
  ASSERT_FALSE(d.failed);
  ASSERT_EQ(d.forests.size(), 2u);
  EXPECT_EQ(d.forests[0].size(), n - 1);
  EXPECT_EQ(d.forests[1].size(), 1u);
  // The union is exactly the cycle.
  EXPECT_EQ(ToSet(d.CertificateEdges()), ToSet(edges));
}

class SpanningForestsPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(SpanningForestsPropertyTest, ForestsAreEdgeDisjointSubForests) {
  const uint64_t seed = GetParam();
  const uint64_t n = 48;
  const EdgeList edges = RandomConnectedGraph(n, 140, seed);
  const int k = 3;
  const GraphSnapshot snap =
      SketchGraph(n, seed + 50, edges, RoundsForForests(n, k));
  const ForestDecomposition d =
      ExtractSpanningForests(snap, k).value();
  ASSERT_FALSE(d.failed);
  ASSERT_GE(d.forests.size(), 1u);

  const auto edge_set = ToSet(edges);
  std::set<std::pair<NodeId, NodeId>> seen;
  for (const EdgeList& forest : d.forests) {
    Dsu forest_dsu(n);
    for (const Edge& e : forest) {
      // Subset of the true edges.
      EXPECT_TRUE(edge_set.count({e.u, e.v}) > 0);
      // Acyclic within the forest.
      EXPECT_TRUE(forest_dsu.Union(e.u, e.v));
      // Disjoint across forests.
      EXPECT_TRUE(seen.insert({e.u, e.v}).second);
    }
  }
  // First forest spans the (connected) graph.
  EXPECT_EQ(d.forests[0].size(), n - 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpanningForestsPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(SpanningForestsTest, InputSnapshotIsUntouchedAfterPeeling) {
  // Each phase toggles its forest out of the remaining graph, through a
  // copy-on-write copy of the input: after k = 3 phases the caller's
  // snapshot still holds every byte it held before, and decomposing it
  // again finds the same forests.
  const uint64_t n = 48;
  const int k = 3;
  const EdgeList edges = RandomConnectedGraph(n, 140, 9);
  const GraphSnapshot snap = SketchGraph(n, 59, edges, RoundsForForests(n, k));
  const std::vector<uint8_t> bytes = snap.Serialize();
  const ForestDecomposition first = ExtractSpanningForests(snap, k).value();
  ASSERT_FALSE(first.failed);
  ASSERT_EQ(first.forests.size(), 3u);
  EXPECT_TRUE(snap.Serialize() == bytes) << "the peel wrote the input";
  const ForestDecomposition again = ExtractSpanningForests(snap, k).value();
  EXPECT_EQ(again.forests, first.forests);
}

TEST(SpanningForestsTest, EmptyGraphYieldsNoForests) {
  const GraphSnapshot snap = SketchGraph(8, 3, {}, RoundsForForests(8, 2));
  const ForestDecomposition d =
      ExtractSpanningForests(snap, 2).value();
  EXPECT_FALSE(d.failed);
  EXPECT_TRUE(d.forests.empty());
}

// Both validation edges of the k parameter: the request often arrives
// from a CLI or a wire query, so a bad k must bounce as InvalidArgument
// (never clamp, never abort).
TEST(SpanningForestsTest, RejectsKBelowOne) {
  const GraphSnapshot snap =
      SketchGraph(8, 3, {Edge(0, 1)}, RoundsForForests(8, 2));
  for (const int k : {0, -1, -7}) {
    const Result<ForestDecomposition> r = ExtractSpanningForests(snap, k);
    ASSERT_FALSE(r.ok()) << "k=" << k;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(SpanningForestsTest, RejectsKBeyondRoundBudget) {
  // rounds = budget for exactly 2 forests: k = 3 must be refused, and
  // the refusal must not silently clamp to a smaller certificate.
  const GraphSnapshot snap =
      SketchGraph(8, 3, {Edge(0, 1)}, RoundsForForests(8, 2));
  EXPECT_EQ(MaxForestsForRounds(8, RoundsForForests(8, 2)), 2);
  const Result<ForestDecomposition> r = ExtractSpanningForests(snap, 3);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // The largest admissible k still works.
  const Result<ForestDecomposition> ok = ExtractSpanningForests(snap, 2);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
}

// ---------------- bridges ------------------------------------------------

TEST(BridgesTest, PathAllBridges) {
  EdgeList edges;
  for (NodeId i = 0; i + 1 < 6; ++i) edges.emplace_back(i, i + 1);
  EXPECT_EQ(FindBridges(6, edges).size(), 5u);
}

TEST(BridgesTest, CycleHasNone) {
  EdgeList edges;
  for (NodeId i = 0; i < 6; ++i) {
    edges.emplace_back(i, static_cast<NodeId>((i + 1) % 6));
  }
  EXPECT_TRUE(FindBridges(6, edges).empty());
}

TEST(BridgesTest, TwoTrianglesJoinedByBridge) {
  EdgeList edges = {Edge(0, 1), Edge(1, 2), Edge(0, 2),   // Triangle A.
                    Edge(3, 4), Edge(4, 5), Edge(3, 5),   // Triangle B.
                    Edge(2, 3)};                          // Bridge.
  const EdgeList bridges = FindBridges(6, edges);
  ASSERT_EQ(bridges.size(), 1u);
  EXPECT_EQ(bridges[0], Edge(2, 3));
}

TEST(BridgesTest, DisconnectedGraph) {
  EdgeList edges = {Edge(0, 1), Edge(2, 3), Edge(3, 4), Edge(2, 4)};
  const EdgeList bridges = FindBridges(6, edges);
  ASSERT_EQ(bridges.size(), 1u);
  EXPECT_EQ(bridges[0], Edge(0, 1));
}

class BridgesPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BridgesPropertyTest, MatchesNaiveRemoveAndRecount) {
  const uint64_t seed = GetParam();
  const uint64_t n = 24;
  SplitMix64 rng(seed);
  // Random sparse graph (bridges are common when sparse).
  std::set<std::pair<NodeId, NodeId>> edge_set;
  while (edge_set.size() < 30) {
    NodeId a = static_cast<NodeId>(rng.NextBelow(n));
    NodeId b = static_cast<NodeId>(rng.NextBelow(n));
    if (a == b) continue;
    Edge e(a, b);
    edge_set.insert({e.u, e.v});
  }
  EdgeList edges;
  for (const auto& [u, v] : edge_set) edges.emplace_back(u, v);

  auto count_components = [&](const EdgeList& list) {
    Dsu dsu(n);
    for (const Edge& e : list) dsu.Union(e.u, e.v);
    return dsu.num_sets();
  };
  const size_t base = count_components(edges);
  const auto bridge_set = ToSet(FindBridges(n, edges));

  for (size_t skip = 0; skip < edges.size(); ++skip) {
    EdgeList without;
    for (size_t i = 0; i < edges.size(); ++i) {
      if (i != skip) without.push_back(edges[i]);
    }
    const bool is_bridge = count_components(without) > base;
    EXPECT_EQ(bridge_set.count({edges[skip].u, edges[skip].v}) > 0, is_bridge)
        << "edge " << edges[skip].u << "-" << edges[skip].v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BridgesPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// --- The headline composition: bridges of a sketched stream -------------

TEST(BridgesTest, CertificateFromSketchesPreservesBridges) {
  // Two cliques joined by one bridge plus a pendant path: the k=2
  // certificate extracted from sketches must reproduce G's bridges.
  const uint64_t n = 14;
  EdgeList edges;
  for (NodeId u = 0; u < 5; ++u) {
    for (NodeId v = u + 1; v < 5; ++v) edges.emplace_back(u, v);
  }
  for (NodeId u = 5; u < 10; ++u) {
    for (NodeId v = u + 1; v < 10; ++v) edges.emplace_back(u, v);
  }
  edges.emplace_back(4, 5);    // Bridge between cliques.
  edges.emplace_back(9, 10);   // Pendant path 9-10-11.
  edges.emplace_back(10, 11);

  const GraphSnapshot snap = SketchGraph(n, 9, edges, RoundsForForests(n, 2));
  const ForestDecomposition d =
      ExtractSpanningForests(snap, 2).value();
  ASSERT_FALSE(d.failed);
  const EdgeList cert = d.CertificateEdges();

  const auto bridges_from_cert = ToSet(FindBridges(n, cert));
  const auto bridges_exact = ToSet(FindBridges(n, edges));
  EXPECT_EQ(bridges_from_cert, bridges_exact);
  EXPECT_EQ(bridges_exact.count({4, 5}), 1u);
  EXPECT_EQ(bridges_exact.count({9, 10}), 1u);
  EXPECT_EQ(bridges_exact.count({10, 11}), 1u);
  EXPECT_EQ(bridges_exact.size(), 3u);
}

// ---------------- bipartiteness ------------------------------------------

GraphZeppelinConfig SmallConfig(uint64_t n, uint64_t seed) {
  GraphZeppelinConfig c;
  c.num_nodes = n;
  c.seed = seed;
  c.num_workers = 2;
  c.disk_dir = ::testing::TempDir();
  return c;
}

TEST(BipartitenessTest, EvenCycleIsBipartite) {
  BipartitenessSketch bp(SmallConfig(8, 1));
  ASSERT_TRUE(bp.Init().ok());
  for (NodeId i = 0; i < 8; ++i) {
    bp.Update({Edge(i, static_cast<NodeId>((i + 1) % 8)),
               UpdateType::kInsert});
  }
  const BipartitenessResult r = bp.Query();
  ASSERT_FALSE(r.failed);
  EXPECT_TRUE(r.whole_graph_bipartite);
}

TEST(BipartitenessTest, OddCycleIsNot) {
  BipartitenessSketch bp(SmallConfig(8, 2));
  ASSERT_TRUE(bp.Init().ok());
  for (NodeId i = 0; i < 5; ++i) {
    bp.Update({Edge(i, static_cast<NodeId>((i + 1) % 5)),
               UpdateType::kInsert});
  }
  const BipartitenessResult r = bp.Query();
  ASSERT_FALSE(r.failed);
  EXPECT_FALSE(r.whole_graph_bipartite);
  EXPECT_FALSE(r.component_bipartite[0]);
  EXPECT_TRUE(r.component_bipartite[6]);  // Isolated vertex: trivially so.
}

TEST(BipartitenessTest, PerComponentVerdicts) {
  // Component A = odd triangle {0,1,2}; component B = even square
  // {4,5,6,7}.
  BipartitenessSketch bp(SmallConfig(10, 3));
  ASSERT_TRUE(bp.Init().ok());
  bp.Update({Edge(0, 1), UpdateType::kInsert});
  bp.Update({Edge(1, 2), UpdateType::kInsert});
  bp.Update({Edge(0, 2), UpdateType::kInsert});
  bp.Update({Edge(4, 5), UpdateType::kInsert});
  bp.Update({Edge(5, 6), UpdateType::kInsert});
  bp.Update({Edge(6, 7), UpdateType::kInsert});
  bp.Update({Edge(4, 7), UpdateType::kInsert});
  const BipartitenessResult r = bp.Query();
  ASSERT_FALSE(r.failed);
  EXPECT_FALSE(r.whole_graph_bipartite);
  EXPECT_FALSE(r.component_bipartite[0]);
  EXPECT_FALSE(r.component_bipartite[2]);
  EXPECT_TRUE(r.component_bipartite[4]);
  EXPECT_TRUE(r.component_bipartite[7]);
}

TEST(BipartitenessTest, DeletionRestoresBipartiteness) {
  BipartitenessSketch bp(SmallConfig(8, 4));
  ASSERT_TRUE(bp.Init().ok());
  // Even cycle plus a chord creating an odd cycle.
  for (NodeId i = 0; i < 6; ++i) {
    bp.Update({Edge(i, static_cast<NodeId>((i + 1) % 6)),
               UpdateType::kInsert});
  }
  bp.Update({Edge(0, 2), UpdateType::kInsert});  // Odd chord.
  BipartitenessResult r = bp.Query();
  ASSERT_FALSE(r.failed);
  EXPECT_FALSE(r.whole_graph_bipartite);

  bp.Update({Edge(0, 2), UpdateType::kDelete});
  r = bp.Query();
  ASSERT_FALSE(r.failed);
  EXPECT_TRUE(r.whole_graph_bipartite);
}

class BipartitenessPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(BipartitenessPropertyTest, RandomBipartiteGraphsPass) {
  const uint64_t seed = GetParam();
  SplitMix64 rng(seed);
  const uint64_t n = 32;
  BipartitenessSketch bp(SmallConfig(n, seed + 10));
  ASSERT_TRUE(bp.Init().ok());
  // Random bipartite graph: edges only between even and odd vertices.
  std::set<std::pair<NodeId, NodeId>> used;
  for (int i = 0; i < 60; ++i) {
    NodeId a = static_cast<NodeId>(rng.NextBelow(n / 2) * 2);       // Even.
    NodeId b = static_cast<NodeId>(rng.NextBelow(n / 2) * 2 + 1);   // Odd.
    Edge e(a, b);
    if (!used.insert({e.u, e.v}).second) continue;
    bp.Update({e, UpdateType::kInsert});
  }
  const BipartitenessResult r = bp.Query();
  ASSERT_FALSE(r.failed);
  EXPECT_TRUE(r.whole_graph_bipartite);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BipartitenessPropertyTest,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace gz
