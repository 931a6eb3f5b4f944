// Exhaustive small-universe tests: enumerate *every* input in a small
// domain and check the full contract. These catch boundary bugs that
// randomized sweeps miss.
#include <gtest/gtest.h>

#include <bitset>
#include <vector>

#include "algos/bipartiteness.h"
#include "algos/bridges.h"
#include "cluster_substrate.h"
#include "core/connectivity.h"
#include "dsu/dsu.h"
#include "sketch/cube_sketch.h"
#include "sketch/l0_standard.h"
#include "sketch/node_sketch.h"
#include "stream/stream_types.h"

namespace gz {
namespace {

// ---- Every subset of a tiny vector universe ------------------------------

TEST(ExhaustiveTest, CubeSketchAllSubsetsOfSmallUniverse) {
  // Universe size 8: all 255 nonempty subsets. Soundness must be
  // perfect (a Good answer is a member); completeness failures must be
  // rare in aggregate.
  const uint64_t n = 8;
  int failures = 0;
  for (uint32_t mask = 1; mask < 256; ++mask) {
    CubeSketchParams p;
    p.vector_len = n;
    p.seed = 1000 + mask;
    CubeSketch s(p);
    for (uint64_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) s.Update(i);
    }
    const SketchSample sample = s.Query();
    ASSERT_NE(sample.kind, SampleKind::kZero) << "mask " << mask;
    if (sample.kind == SampleKind::kFail) {
      ++failures;
      continue;
    }
    EXPECT_TRUE(mask & (1u << sample.index))
        << "non-member returned for mask " << mask;
  }
  EXPECT_LE(failures, 8);  // delta = 1/100 over 255 trials.
}

TEST(ExhaustiveTest, CubeSketchEverySubsetCancelsToZero) {
  // Inserting a subset then toggling it again is always exactly zero.
  const uint64_t n = 8;
  for (uint32_t mask = 1; mask < 256; ++mask) {
    CubeSketchParams p;
    p.vector_len = n;
    p.seed = 7;
    CubeSketch s(p);
    for (int pass = 0; pass < 2; ++pass) {
      for (uint64_t i = 0; i < n; ++i) {
        if (mask & (1u << i)) s.Update(i);
      }
    }
    EXPECT_EQ(s.Query().kind, SampleKind::kZero) << "mask " << mask;
  }
}

TEST(ExhaustiveTest, StandardL0AllSignedSubsets) {
  // Universe 5, each coordinate in {-1, 0, +1}: all 3^5 = 243 vectors.
  const uint64_t n = 5;
  int failures = 0;
  int nonzero_cases = 0;
  int trit[5];
  for (int code = 0; code < 243; ++code) {
    int c = code;
    bool any = false;
    for (int i = 0; i < 5; ++i) {
      trit[i] = (c % 3) - 1;  // -1, 0, +1
      c /= 3;
      any |= trit[i] != 0;
    }
    L0SketchParams p;
    p.vector_len = n;
    p.seed = 5000 + code;
    StandardL0Sketch s(p);
    for (uint64_t i = 0; i < n; ++i) {
      if (trit[i] != 0) s.Update(i, trit[i]);
    }
    const SketchSample sample = s.Query();
    if (!any) {
      EXPECT_EQ(sample.kind, SampleKind::kZero) << "code " << code;
      continue;
    }
    ++nonzero_cases;
    ASSERT_NE(sample.kind, SampleKind::kZero) << "code " << code;
    if (sample.kind == SampleKind::kFail) {
      ++failures;
      continue;
    }
    EXPECT_NE(trit[sample.index], 0) << "code " << code;
  }
  EXPECT_GT(nonzero_cases, 200);
  EXPECT_LE(failures, 8);
}

// ---- Every graph on a tiny vertex set ------------------------------------

TEST(ExhaustiveTest, BoruvkaMatchesDsuOnAllFourNodeGraphs) {
  // 4 nodes, 6 possible edges: all 64 graphs.
  const uint64_t n = 4;
  for (uint32_t mask = 0; mask < 64; ++mask) {
    NodeSketchParams p;
    p.num_nodes = n;
    p.seed = 300 + mask;
    std::vector<NodeSketch> sketches;
    for (uint64_t i = 0; i < n; ++i) sketches.emplace_back(p);
    Dsu truth(n);
    for (uint64_t idx = 0; idx < 6; ++idx) {
      if (!(mask & (1u << idx))) continue;
      const Edge e = IndexToEdge(idx, n);
      sketches[e.u].Update(idx);
      sketches[e.v].Update(idx);
      truth.Union(e.u, e.v);
    }
    const ConnectivityResult r =
        BoruvkaConnectivity(GraphSnapshot(std::move(sketches), 0));
    ASSERT_FALSE(r.failed) << "mask " << mask;
    EXPECT_EQ(r.num_components, truth.num_sets()) << "mask " << mask;
    for (uint64_t i = 0; i < n; ++i) {
      for (uint64_t j = i + 1; j < n; ++j) {
        EXPECT_EQ(r.Connected(i, j), truth.Find(i) == truth.Find(j))
            << "mask " << mask << " pair " << i << "," << j;
      }
    }
  }
}

TEST(ExhaustiveTest, BridgesMatchNaiveOnAllFiveNodeGraphs) {
  // 5 nodes, 10 possible edges: all 1024 graphs, every edge classified.
  const uint64_t n = 5;
  for (uint32_t mask = 0; mask < 1024; ++mask) {
    EdgeList edges;
    for (uint64_t idx = 0; idx < 10; ++idx) {
      if (mask & (1u << idx)) edges.push_back(IndexToEdge(idx, n));
    }
    auto component_count = [&](const EdgeList& list) {
      Dsu dsu(n);
      for (const Edge& e : list) dsu.Union(e.u, e.v);
      return dsu.num_sets();
    };
    const size_t base = component_count(edges);
    const EdgeList bridges = FindBridges(n, edges);
    std::bitset<10> bridge_bits;
    for (const Edge& b : bridges) bridge_bits.set(EdgeToIndex(b, n));

    for (size_t skip = 0; skip < edges.size(); ++skip) {
      EdgeList without;
      for (size_t i = 0; i < edges.size(); ++i) {
        if (i != skip) without.push_back(edges[i]);
      }
      const bool is_bridge = component_count(without) > base;
      EXPECT_EQ(bridge_bits.test(EdgeToIndex(edges[skip], n)), is_bridge)
          << "mask " << mask << " edge " << edges[skip].u << "-"
          << edges[skip].v;
    }
  }
}

// ---- Every graph, sharded, on both substrates -----------------------------

class ExhaustiveShardedTest : public ::testing::TestWithParam<Substrate> {};

TEST_P(ExhaustiveShardedTest, ShardedMatchesDsuOnAllFourNodeGraphs) {
  // 4 nodes, 6 possible edges: all 64 graphs through 3 shards. One
  // cluster serves every mask — after each query the mask's edges are
  // inserted again, which XOR-cancels the sketch state back to the
  // empty graph (linearity), so the shards start once, not 64 times.
  // The seed is fixed: both substrates ingest identical update
  // multisets, so their sketch states — and any sampling failures —
  // are bitwise-identical by construction.
  const uint64_t n = 4;
  GraphZeppelinConfig config;
  config.num_nodes = n;
  config.seed = 501;
  config.num_workers = 1;
  config.disk_dir = ::testing::TempDir();
  ShardCluster sharded(config, 3, OnSubstrate(GetParam(), 3));
  ASSERT_TRUE(sharded.Start().ok());

  for (uint32_t mask = 0; mask < 64; ++mask) {
    Dsu truth(n);
    for (uint64_t idx = 0; idx < 6; ++idx) {
      if (!(mask & (1u << idx))) continue;
      const Edge e = IndexToEdge(idx, n);
      ASSERT_TRUE(sharded.Update({e, UpdateType::kInsert}).ok());
      truth.Union(e.u, e.v);
    }
    Result<GraphSnapshot> snapshot = sharded.Snapshot();
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    const ConnectivityResult r = Connectivity(std::move(snapshot).value());
    ASSERT_FALSE(r.failed) << "mask " << mask;
    EXPECT_EQ(r.num_components, truth.num_sets()) << "mask " << mask;
    for (uint64_t i = 0; i < n; ++i) {
      for (uint64_t j = i + 1; j < n; ++j) {
        EXPECT_EQ(r.Connected(i, j), truth.Find(i) == truth.Find(j))
            << "mask " << mask << " pair " << i << "," << j;
      }
    }
    // Toggle the mask back out: the next iteration starts empty.
    for (uint64_t idx = 0; idx < 6; ++idx) {
      if (mask & (1u << idx)) {
        ASSERT_TRUE(
            sharded.Update({IndexToEdge(idx, n), UpdateType::kInsert}).ok());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Substrates, ExhaustiveShardedTest,
    ::testing::Values(Substrate::kThread, Substrate::kProcess),
    [](const ::testing::TestParamInfo<Substrate>& info) {
      return SubstrateName(info.param);
    });

// Brute-force bipartiteness of the subgraph induced by each component.
bool BruteForceBipartite(uint64_t n, const EdgeList& edges) {
  // Try all 2-colorings (n small).
  for (uint32_t coloring = 0; coloring < (1u << n); ++coloring) {
    bool ok = true;
    for (const Edge& e : edges) {
      if (((coloring >> e.u) & 1) == ((coloring >> e.v) & 1)) {
        ok = false;
        break;
      }
    }
    if (ok) return true;
  }
  return false;
}

TEST(ExhaustiveTest, BipartitenessMatchesBruteForceOnAllFourNodeGraphs) {
  const uint64_t n = 4;
  for (uint32_t mask = 0; mask < 64; ++mask) {
    EdgeList edges;
    for (uint64_t idx = 0; idx < 6; ++idx) {
      if (mask & (1u << idx)) edges.push_back(IndexToEdge(idx, n));
    }
    GraphZeppelinConfig config;
    config.num_nodes = n;
    config.seed = 900 + mask;
    config.num_workers = 1;
    config.disk_dir = ::testing::TempDir();
    BipartitenessSketch bp(config);
    ASSERT_TRUE(bp.Init().ok());
    for (const Edge& e : edges) bp.Update({e, UpdateType::kInsert});
    const BipartitenessResult r = bp.Query();
    ASSERT_FALSE(r.failed) << "mask " << mask;
    EXPECT_EQ(r.whole_graph_bipartite, BruteForceBipartite(n, edges))
        << "mask " << mask;
  }
}

}  // namespace
}  // namespace gz
