// Tests for Boruvka-over-sketches connectivity, checked against exact
// references on structured and random graphs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "baseline/matrix_checker.h"
#include "stream/stream_file.h"
#include "core/connectivity.h"
#include "dsu/dsu.h"
#include "stream/erdos_renyi_generator.h"
#include "stream/stream_types.h"
#include "util/random.h"

namespace gz {
namespace {

// Per-node sketches built directly from an edge list (no buffering).
std::vector<NodeSketch> NodeSketches(uint64_t num_nodes, uint64_t seed,
                                     const EdgeList& edges) {
  NodeSketchParams p;
  p.num_nodes = num_nodes;
  p.seed = seed;
  std::vector<NodeSketch> sketches;
  sketches.reserve(num_nodes);
  for (uint64_t i = 0; i < num_nodes; ++i) sketches.emplace_back(p);
  for (const Edge& e : edges) {
    const uint64_t idx = EdgeToIndex(e, num_nodes);
    sketches[e.u].Update(idx);
    sketches[e.v].Update(idx);
  }
  return sketches;
}

GraphSnapshot SketchGraph(uint64_t num_nodes, uint64_t seed,
                          const EdgeList& edges) {
  return GraphSnapshot(NodeSketches(num_nodes, seed, edges), 0);
}

// The engine's specification, written the way it used to run: one
// thread, folding each merged component's node sketches destructively
// into its new root after every round. Same round window semantics,
// the same sampling rule (every column's deepest verified bucket) and
// the same candidate order (ascending root, then column), so its result
// must equal the engine's exactly.
ConnectivityResult ReferenceBoruvka(std::vector<NodeSketch> sk,
                                    int first_round, int num_rounds) {
  const uint64_t n = sk.size();
  const int rounds = sk[0].rounds();
  const int last_round =
      num_rounds < 0 ? rounds : std::min(rounds, first_round + num_rounds);
  ConnectivityResult result;
  Dsu dsu(n);
  bool complete = false;
  for (int round = first_round; round < last_round && !complete; ++round) {
    result.rounds_used = round - first_round + 1;
    std::vector<NodeId> roots;
    for (NodeId i = 0; i < n; ++i) {
      if (dsu.Find(i) == i) roots.push_back(i);
    }
    EdgeList candidates;
    bool any_fail = false;
    const SketchLayout& layout = sk[0].layout();
    std::vector<uint64_t> picks(layout.cols());
    for (const NodeId r : roots) {
      const ColumnSamples s = layout.SampleColumns(
          round, sk[r].subsketch(round), picks.data(), layout.cols());
      for (int k = 0; k < s.count; ++k) {
        candidates.push_back(IndexToEdge(picks[k], n));
      }
      any_fail |= s.kind == SampleKind::kFail;
    }
    bool found_edge = false;
    for (const Edge& e : candidates) {
      if (!dsu.Union(dsu.Find(e.u), dsu.Find(e.v))) continue;
      result.spanning_forest.push_back(e);
      found_edge = true;
    }
    complete = !found_edge && !any_fail;
    for (const NodeId r : roots) {
      const size_t new_root = dsu.Find(r);
      if (new_root != r) sk[new_root].Merge(sk[r]);
    }
  }
  result.failed = !complete;
  result.num_components = dsu.num_sets();
  for (NodeId i = 0; i < n; ++i) {
    result.component_of.push_back(static_cast<NodeId>(dsu.Find(i)));
  }
  return result;
}

void ExpectSameResult(const ConnectivityResult& got,
                      const ConnectivityResult& want,
                      const std::string& label) {
  EXPECT_EQ(got.failed, want.failed) << label;
  EXPECT_EQ(got.rounds_used, want.rounds_used) << label;
  EXPECT_EQ(got.num_components, want.num_components) << label;
  EXPECT_EQ(got.spanning_forest, want.spanning_forest) << label;
  EXPECT_EQ(got.component_of, want.component_of) << label;
}

// Verifies a claimed spanning forest against the true edge set and the
// true partition: forest edges must be real, acyclic, and produce the
// same partition.
void CheckForest(const ConnectivityResult& result, uint64_t num_nodes,
                 const EdgeList& edges) {
  std::set<std::pair<NodeId, NodeId>> edge_set;
  for (const Edge& e : edges) edge_set.insert({e.u, e.v});

  Dsu truth(num_nodes);
  for (const Edge& e : edges) truth.Union(e.u, e.v);

  Dsu forest_dsu(num_nodes);
  for (const Edge& e : result.spanning_forest) {
    EXPECT_TRUE(edge_set.count({e.u, e.v}) > 0)
        << "forest contains non-edge " << e.u << "-" << e.v;
    EXPECT_TRUE(forest_dsu.Union(e.u, e.v)) << "forest has a cycle";
  }
  EXPECT_EQ(result.num_components, truth.num_sets());
  // Partitions must match exactly.
  for (uint64_t i = 0; i < num_nodes; ++i) {
    for (uint64_t j = i + 1; j < num_nodes; ++j) {
      EXPECT_EQ(result.component_of[i] == result.component_of[j],
                truth.Find(i) == truth.Find(j))
          << i << " vs " << j;
    }
  }
}

TEST(ConnectivityTest, EmptyGraphAllIsolated) {
  const GraphSnapshot snap = SketchGraph(8, 1, {});
  const ConnectivityResult r = BoruvkaConnectivity(snap);
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, 8u);
  EXPECT_TRUE(r.spanning_forest.empty());
}

TEST(ConnectivityTest, SingleEdge) {
  const GraphSnapshot snap = SketchGraph(4, 2, {Edge(1, 2)});
  const ConnectivityResult r = BoruvkaConnectivity(snap);
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, 3u);
  ASSERT_EQ(r.spanning_forest.size(), 1u);
  EXPECT_EQ(r.spanning_forest[0], Edge(1, 2));
}

TEST(ConnectivityTest, PathGraph) {
  EdgeList edges;
  const uint64_t n = 32;
  for (NodeId i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  const GraphSnapshot snap = SketchGraph(n, 3, edges);
  const ConnectivityResult r = BoruvkaConnectivity(snap);
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, 1u);
  EXPECT_EQ(r.spanning_forest.size(), n - 1);
  CheckForest(r, n, edges);
}

TEST(ConnectivityTest, StarGraph) {
  EdgeList edges;
  const uint64_t n = 64;
  for (NodeId i = 1; i < n; ++i) edges.emplace_back(0, i);
  const GraphSnapshot snap = SketchGraph(n, 4, edges);
  const ConnectivityResult r = BoruvkaConnectivity(snap);
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, 1u);
  CheckForest(r, n, edges);
}

TEST(ConnectivityTest, GiantStarFoldIsBitwiseIdenticalForAnyThreadCount) {
  // A star is the worst case the chunked build exists for: after round
  // one EVERYTHING merges into a single component, so each later
  // round's whole XOR build lands in one component. Its chunks must
  // spread over the pool AND stay invisible: the result must be
  // identical for every thread count, and no query may write a byte of
  // the snapshot.
  EdgeList edges;
  const uint64_t n = 4096;  // Above the pool-spawn floor.
  for (NodeId i = 1; i < n; ++i) edges.emplace_back(0, i);

  const GraphSnapshot snap = SketchGraph(n, 6, edges);
  const std::vector<uint8_t> bytes = snap.Serialize();
  const ConnectivityResult want =
      BoruvkaConnectivity(snap, 0, -1, /*num_threads=*/1);
  EXPECT_FALSE(want.failed);
  EXPECT_EQ(want.num_components, 1u);
  CheckForest(want, n, edges);

  for (const int threads : {2, 4, 8}) {
    ExpectSameResult(BoruvkaConnectivity(snap, 0, -1, threads), want,
                     std::to_string(threads) + " threads");
  }
  EXPECT_TRUE(snap.Serialize() == bytes) << "a query wrote the snapshot";
}

TEST(ConnectivityTest, CompleteGraph) {
  EdgeList edges;
  const uint64_t n = 24;
  for (NodeId u = 0; u + 1 < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) edges.emplace_back(u, v);
  }
  const GraphSnapshot snap = SketchGraph(n, 5, edges);
  const ConnectivityResult r = BoruvkaConnectivity(snap);
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, 1u);
  CheckForest(r, n, edges);
}

TEST(ConnectivityTest, TwoCliquesStayApart) {
  EdgeList edges;
  const uint64_t n = 20;
  for (NodeId u = 0; u < 10; ++u) {
    for (NodeId v = u + 1; v < 10; ++v) edges.emplace_back(u, v);
  }
  for (NodeId u = 10; u < 20; ++u) {
    for (NodeId v = u + 1; v < 20; ++v) edges.emplace_back(u, v);
  }
  const GraphSnapshot snap = SketchGraph(n, 6, edges);
  const ConnectivityResult r = BoruvkaConnectivity(snap);
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, 2u);
  CheckForest(r, n, edges);
}

TEST(ConnectivityTest, ComponentsFromLabelsGroups) {
  std::vector<NodeId> labels = {0, 0, 2, 2, 4};
  const auto components = ComponentsFromLabels(labels);
  ASSERT_EQ(components.size(), 3u);
  EXPECT_EQ(components[0], (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(components[1], (std::vector<NodeId>{2, 3}));
  EXPECT_EQ(components[2], (std::vector<NodeId>{4}));
}

// Property sweep: random graphs across densities and seeds, verified
// against Kruskal on an exact adjacency matrix.
class ConnectivityRandomTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, double, uint64_t>> {
};

TEST_P(ConnectivityRandomTest, MatchesKruskalReference) {
  const auto [num_nodes, density, seed] = GetParam();
  ErdosRenyiParams ep;
  ep.num_nodes = num_nodes;
  ep.p = density;
  ep.seed = seed;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();

  const GraphSnapshot snap = SketchGraph(num_nodes, seed * 101 + 7, edges);
  const ConnectivityResult r = BoruvkaConnectivity(snap);
  ASSERT_FALSE(r.failed);
  CheckForest(r, num_nodes, edges);

  // Cross-check against the matrix checker's Kruskal.
  AdjacencyMatrixChecker checker(num_nodes);
  for (const Edge& e : edges) {
    checker.Update({e, UpdateType::kInsert});
  }
  const ConnectivityResult kruskal = checker.ConnectedComponents();
  EXPECT_EQ(r.num_components, kruskal.num_components);

  // And result for result against the destructive reference.
  ExpectSameResult(r, ReferenceBoruvka(NodeSketches(num_nodes, seed * 101 + 7,
                                                    edges),
                                       0, -1),
                   "reference");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConnectivityRandomTest,
    ::testing::Combine(::testing::Values<uint64_t>(16, 64, 128),
                       ::testing::Values(0.01, 0.1, 0.5),
                       ::testing::Values<uint64_t>(1, 2, 3)));

TEST(ConnectivityTest, ConnectedPointQuery) {
  const GraphSnapshot snap =
      SketchGraph(8, 9, {Edge(0, 1), Edge(1, 2), Edge(4, 5)});
  const ConnectivityResult r = BoruvkaConnectivity(snap);
  ASSERT_FALSE(r.failed);
  EXPECT_TRUE(r.Connected(0, 2));
  EXPECT_TRUE(r.Connected(4, 5));
  EXPECT_FALSE(r.Connected(0, 4));
  EXPECT_FALSE(r.Connected(3, 6));
  EXPECT_TRUE(r.Connected(7, 7));
}

TEST(ConnectivityTest, ConnectedOutOfRangeNodeIsFalse) {
  // Regression: out-of-range node ids used to index component_of
  // unchecked (UB); they must simply report "not connected".
  const GraphSnapshot snap = SketchGraph(8, 9, {Edge(0, 1)});
  const ConnectivityResult r = BoruvkaConnectivity(snap);
  ASSERT_FALSE(r.failed);
  EXPECT_FALSE(r.Connected(0, 8));
  EXPECT_FALSE(r.Connected(8, 0));
  EXPECT_FALSE(r.Connected(12345, 67890));
  EXPECT_FALSE(r.Connected(0, static_cast<NodeId>(-1)));
  // In-range behavior is unchanged.
  EXPECT_TRUE(r.Connected(0, 1));

  // An empty (default) result connects nothing, in range or not.
  const ConnectivityResult empty;
  EXPECT_FALSE(empty.Connected(0, 0));
}

TEST(ConnectivityTest, SpanningForestStreamOutput) {
  // Problem 1: the answer is itself an insert-only edge stream.
  const uint64_t n = 16;
  EdgeList edges;
  for (NodeId i = 0; i + 1 < 10; ++i) edges.emplace_back(i, i + 1);
  const GraphSnapshot snap = SketchGraph(n, 10, edges);
  const ConnectivityResult r = BoruvkaConnectivity(snap);
  ASSERT_FALSE(r.failed);

  const std::string path =
      std::string(::testing::TempDir()) + "/forest_stream.gzst";
  ASSERT_TRUE(WriteSpanningForestStream(r, n, path).ok());

  uint64_t read_nodes = 0;
  auto readback = ReadStreamFile(path, &read_nodes);
  ASSERT_TRUE(readback.ok());
  EXPECT_EQ(read_nodes, n);
  ASSERT_EQ(readback.value().size(), r.spanning_forest.size());
  // All inserts, and replaying them reproduces the same partition.
  Dsu dsu(n);
  for (const GraphUpdate& u : readback.value()) {
    EXPECT_EQ(u.type, UpdateType::kInsert);
    dsu.Union(u.edge.u, u.edge.v);
  }
  EXPECT_EQ(dsu.num_sets(), r.num_components);
  std::remove(path.c_str());
}

// Every column's sample joins the round's candidates, so a sparse
// random connected graph finishes within 3 rounds; with one sample per
// component per round it takes 6 here.
TEST(ConnectivityTest, ColumnSamplesFinishWithinThreeRounds) {
  const uint64_t n = 1 << 11;
  const EdgeList edges = RandomConnectedGraph(n, 1 << 13, 1011);
  const GraphSnapshot snap = SketchGraph(n, 42, edges);
  const ConnectivityResult r = BoruvkaConnectivity(snap);
  ASSERT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, 1u);
  EXPECT_LE(r.rounds_used, 3);
  CheckForest(r, n, edges);
}

TEST(ConnectivityTest, RoundWindowRestrictsWork) {
  // With a 1-round window on a path graph, Boruvka cannot finish and
  // must report failure.
  EdgeList edges;
  for (NodeId i = 0; i + 1 < 16; ++i) edges.emplace_back(i, i + 1);
  const GraphSnapshot snap = SketchGraph(16, 11, edges);
  const ConnectivityResult r =
      BoruvkaConnectivity(snap, /*first_round=*/0, /*num_rounds=*/1);
  EXPECT_TRUE(r.failed);
  EXPECT_EQ(r.rounds_used, 1);
}

TEST(ConnectivityTest, WrongSketchCountAborts) {
  NodeSketchParams p;
  p.num_nodes = 8;
  p.seed = 1;
  std::vector<NodeSketch> sketches;
  for (int i = 0; i < 4; ++i) sketches.emplace_back(p);  // Too few.
  EXPECT_DEATH(GraphSnapshot(std::move(sketches), 0),
               "one node sketch per vertex");
}

TEST(ConnectivityTest, BadRoundWindowAborts) {
  const GraphSnapshot snap = SketchGraph(8, 12, {Edge(0, 1)});
  EXPECT_DEATH(BoruvkaConnectivity(snap, snap.rounds(), 1), "first_round");
}

TEST(ConnectivityTest, ManySmallComponents) {
  // Disjoint triangles.
  EdgeList edges;
  const uint64_t n = 60;
  for (NodeId base = 0; base < n; base += 3) {
    edges.emplace_back(base, base + 1);
    edges.emplace_back(base + 1, base + 2);
    edges.emplace_back(base, base + 2);
  }
  const GraphSnapshot snap = SketchGraph(n, 8, edges);
  const ConnectivityResult r = BoruvkaConnectivity(snap);
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, n / 3);
  CheckForest(r, n, edges);
}

// The engine against the destructive sequential reference at a size
// where the pool, the chunked build and the multi-chunk fold all run:
// a random ER graph (many components merging at once), a star (one
// giant component from round one) and a path fed in random order (long
// merge chains), each over the whole round budget and over windows,
// at 1 and 4 threads.
class ConnectivityReferenceTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(ConnectivityReferenceTest, MatchesSequentialReference) {
  const uint64_t seed = GetParam();
  const uint64_t n = 1100;  // Above the pool and parallel-build floors.
  SplitMix64 rng(seed);
  std::vector<std::pair<std::string, EdgeList>> graphs;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 4.0 / n;
  ep.seed = seed;
  graphs.push_back({"er", ErdosRenyiGenerator(ep).Generate()});
  EdgeList star, path;
  const NodeId center = static_cast<NodeId>(rng.NextBelow(n));
  std::vector<NodeId> order(n);
  for (NodeId i = 0; i < n; ++i) {
    if (i != center) star.emplace_back(center, i);
    order[i] = i;
  }
  for (size_t i = n - 1; i > 0; --i) {
    std::swap(order[i], order[rng.NextBelow(i + 1)]);
  }
  for (size_t i = 0; i + 1 < n; ++i) path.emplace_back(order[i], order[i + 1]);
  graphs.push_back({"star", star});
  graphs.push_back({"path", path});

  for (const auto& [name, edges] : graphs) {
    const std::vector<NodeSketch> nodes = NodeSketches(n, seed + 77, edges);
    const GraphSnapshot snap(nodes, 0);
    for (const auto& [first, count] :
         std::vector<std::pair<int, int>>{{0, -1}, {0, 2}, {1, 3}, {2, -1}}) {
      const ConnectivityResult want = ReferenceBoruvka(nodes, first, count);
      if (first == 0 && count < 0) {
        ASSERT_FALSE(want.failed) << name;
        CheckForest(want, n, edges);
      }
      for (const int threads : {1, 4}) {
        ExpectSameResult(BoruvkaConnectivity(snap, first, count, threads),
                         want,
                         name + " window [" + std::to_string(first) + ", +" +
                             std::to_string(count) + ") at " +
                             std::to_string(threads) + " threads");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConnectivityReferenceTest,
                         ::testing::Values<uint64_t>(1, 2, 3));

// Loads of a round-lazy snapshot, per round and part.
struct LoadCounts {
  std::vector<int> whole;
  std::vector<int> summary;
};

// A round-lazy snapshot over `eager`'s bytes whose loader serves each
// part as asked (summaries as V x 12 bytes, as a reader's does) and
// counts the loads in *counts.
GraphSnapshot CountingLazy(const GraphSnapshot& eager, LoadCounts* counts) {
  counts->whole.assign(eager.rounds(), 0);
  counts->summary.assign(eager.rounds(), 0);
  const NodeSketch zero(eager.params());
  return GraphSnapshot::Lazy(
      zero, eager.num_updates(),
      [&eager, counts](int round, RoundPart part, uint64_t,
                       const GraphSnapshot::BlockRunner&,
                       std::vector<uint8_t>* out) {
        const uint64_t n = eager.num_nodes();
        const bool whole = part == RoundPart::kWhole;
        (whole ? counts->whole : counts->summary)[round]++;
        const size_t slot = whole ? eager.layout().round_stride()
                                  : GraphSnapshot::kSummaryBytes;
        const size_t bytes = whole ? eager.layout().round_bytes()
                                   : GraphSnapshot::kSummaryBytes;
        GraphSnapshot::RoundView view;
        GZ_CHECK_OK(whole ? eager.Round(round, n, nullptr, &view)
                          : eager.Summary(round, n, nullptr, &view));
        out->assign(n * slot, 0);
        for (NodeId i = 0; i < n; ++i) {
          std::memcpy(out->data() + i * slot, view.node(i), bytes);
        }
        return Status::Ok();
      });
}

TEST(ConnectivityTest, LazySummariesGiveTheEagerAnswerAtAnyThreadCount) {
  // A round-lazy snapshot decides each round from its summaries and
  // loads a round whole only where they leave a component undecided;
  // its answer is the eager snapshot's, field by field, at 1 and 4
  // threads. Each round a query reaches loads its summary once and its
  // whole round at most once, the last round of a finished query never
  // whole, and no round past the query loads at all.
  const uint64_t n = 2048;  // Above the pool and parallel-build floors.
  for (const uint64_t seed : {11, 12, 13}) {
    ErdosRenyiParams ep;
    ep.num_nodes = n;
    ep.p = (seed == 13 ? 1.2 : 4.0) / n;  // 13: many components.
    ep.seed = seed;
    const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
    const GraphSnapshot eager = SketchGraph(n, seed + 5, edges);
    for (const int threads : {1, 4}) {
      const std::string label =
          "seed " + std::to_string(seed) + " at " + std::to_string(threads) +
          " threads";
      const ConnectivityResult want =
          BoruvkaConnectivity(eager, 0, -1, threads);
      ASSERT_FALSE(want.failed) << label;
      CheckForest(want, n, edges);
      LoadCounts counts;
      const GraphSnapshot lazy = CountingLazy(eager, &counts);
      const ConnectivityResult got = BoruvkaConnectivity(lazy, 0, -1, threads);
      EXPECT_EQ(got.failed, want.failed) << label;
      EXPECT_EQ(got.rounds_used, want.rounds_used) << label;
      EXPECT_EQ(got.spanning_forest, want.spanning_forest) << label;
      EXPECT_EQ(got.component_of, want.component_of) << label;
      for (int r = 0; r < eager.rounds(); ++r) {
        const bool reached = r < want.rounds_used;
        EXPECT_EQ(counts.summary[r], reached ? 1 : 0) << label << " round " << r;
        EXPECT_LE(counts.whole[r], reached ? 1 : 0) << label << " round " << r;
      }
      EXPECT_EQ(counts.whole[0], 1) << label;  // Round 0 is never decided.
      EXPECT_EQ(counts.whole[want.rounds_used - 1], 0) << label;
    }
  }
}

TEST(ConnectivityTest, QueryEndingInRoundOneNeverLoadsThatRoundWhole) {
  // Three stars and isolated nodes: each center needs round 0 whole,
  // each leaf's summary is its one edge, so round 0 merges every star,
  // and round 1 proves every cut empty from its summaries alone. The
  // answer equals the eager snapshot's at 1 and 4 threads.
  const uint64_t n = 1500;
  EdgeList edges;
  for (const auto& [center, end] : {std::pair<NodeId, NodeId>{0, 700},
                                    std::pair<NodeId, NodeId>{700, 1100},
                                    std::pair<NodeId, NodeId>{1100, 1300}}) {
    for (NodeId leaf = center + 1; leaf < end; ++leaf) {
      edges.emplace_back(center, leaf);
    }
  }
  const GraphSnapshot eager = SketchGraph(n, 21, edges);
  for (const int threads : {1, 4}) {
    const std::string label = std::to_string(threads) + " threads";
    const ConnectivityResult want = BoruvkaConnectivity(eager, 0, -1, threads);
    ASSERT_FALSE(want.failed) << label;
    ASSERT_EQ(want.rounds_used, 2) << label;
    CheckForest(want, n, edges);
    LoadCounts counts;
    const GraphSnapshot lazy = CountingLazy(eager, &counts);
    const ConnectivityResult got = BoruvkaConnectivity(lazy, 0, -1, threads);
    EXPECT_EQ(got.failed, want.failed) << label;
    EXPECT_EQ(got.rounds_used, want.rounds_used) << label;
    EXPECT_EQ(got.spanning_forest, want.spanning_forest) << label;
    EXPECT_EQ(got.component_of, want.component_of) << label;
    EXPECT_EQ(counts.whole[0], 1) << label;
    EXPECT_EQ(counts.summary[1], 1) << label;
    EXPECT_EQ(counts.whole[1], 0) << label;
    for (int r = 2; r < eager.rounds(); ++r) {
      EXPECT_EQ(counts.whole[r] + counts.summary[r], 0) << label;
    }
  }
}

}  // namespace
}  // namespace gz
