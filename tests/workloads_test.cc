// Workload subsystem tests: sliding-window connectivity (the
// expiry-delete discipline against an explicit last-W ground truth,
// the mixed-slab XOR-cancellation regression, watchable window
// queries), and k-edge-connectivity certification on known graphs.
//
// The distributed cases mirror sharded_test / shard_cluster_test: a
// cluster's folded snapshot answers like a single-process instance,
// over both transports.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "algos/spanning_forests.h"
#include "baseline/matrix_checker.h"
#include "cluster_substrate.h"
#include "core/connectivity.h"
#include "core/graph_zeppelin.h"
#include "core/standing_query.h"
#include "distributed/shard_cluster.h"
#include "distributed/shard_transport.h"
#include "sketch_content.h"
#include "stream/erdos_renyi_generator.h"
#include "workloads/k_connectivity.h"
#include "workloads/window_ingestor.h"

namespace gz {
namespace {

GraphZeppelinConfig BaseConfig(uint64_t n, uint64_t seed) {
  GraphZeppelinConfig c;
  c.num_nodes = n;
  c.seed = seed;
  c.num_workers = 1;
  c.disk_dir = ::testing::TempDir();
  return c;
}

// ---- Cluster-level workloads over both transports -------------------------

class WorkloadClusterTest : public ::testing::TestWithParam<Substrate> {
 protected:
  ShardClusterOptions MakeOptions(int endpoints,
                                  ShardClusterOptions options = {}) {
    return OnSubstrate(GetParam(), endpoints, std::move(options),
                       &listeners_);
  }

  std::vector<std::unique_ptr<ListenerShard>> listeners_;
};

TEST_P(WorkloadClusterTest, ErdosRenyiForestsArePairwiseEdgeDisjoint) {
  // The decomposition pin on the full distributed path: peel k forests
  // from a CLUSTER's folded snapshot of a randomized ER stream; the
  // forests must be pairwise edge-disjoint and each a subgraph of the
  // streamed graph.
  const uint64_t n = 32;
  const int k = 3;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.3;
  ep.seed = 43;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();

  GraphZeppelinConfig config = BaseConfig(n, 47);
  config.rounds = RoundsForForests(n, k);
  ShardCluster cluster(config, 2, MakeOptions(2));
  ASSERT_TRUE(cluster.Start().ok());
  for (const Edge& e : edges) {
    const GraphUpdate u{e, UpdateType::kInsert};
    ASSERT_TRUE(cluster.Update(&u, 1).ok());
  }
  Result<GraphSnapshot> folded = cluster.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();

  const Result<ForestDecomposition> extracted =
      ExtractSpanningForests(folded.value(), k);
  ASSERT_TRUE(extracted.ok()) << extracted.status().ToString();
  const ForestDecomposition& d = extracted.value();
  ASSERT_FALSE(d.failed);
  ASSERT_EQ(d.forests.size(), static_cast<size_t>(k));

  std::set<uint64_t> streamed;
  for (const Edge& e : edges) streamed.insert(EdgeToIndex(e, n));
  std::set<uint64_t> seen;
  size_t total = 0;
  for (const EdgeList& forest : d.forests) {
    for (const Edge& e : forest) {
      const uint64_t key = EdgeToIndex(e, n);
      EXPECT_TRUE(streamed.count(key)) << "forest edge not in the stream";
      // Pairwise disjoint <=> no key appears in two forests.
      EXPECT_TRUE(seen.insert(key).second) << "edge in two forests";
      ++total;
    }
  }
  EXPECT_EQ(seen.size(), total);
  ASSERT_TRUE(cluster.Shutdown().ok());
}

INSTANTIATE_TEST_SUITE_P(
    Substrates, WorkloadClusterTest,
    ::testing::Values(Substrate::kProcess, Substrate::kTcp),
    [](const ::testing::TestParamInfo<Substrate>& info) {
      return SubstrateName(info.param);
    });

// ---- Sliding window -------------------------------------------------------

// Explicit last-W ground truth: a deque of the W most recent
// observations; the windowed graph is the set of distinct edges in it.
class ExplicitWindow {
 public:
  ExplicitWindow(uint64_t num_nodes, size_t window)
      : num_nodes_(num_nodes), window_(window) {}

  void Observe(const Edge& e) {
    ring_.push_back(e);
    ++counts_[EdgeToIndex(e, num_nodes_)];
    if (ring_.size() > window_) {
      const Edge old = ring_.front();
      ring_.pop_front();
      auto it = counts_.find(EdgeToIndex(old, num_nodes_));
      if (--it->second == 0) counts_.erase(it);
    }
  }

  size_t live_edges() const { return counts_.size(); }

  ConnectivityResult Components() const {
    AdjacencyMatrixChecker checker(num_nodes_);
    for (const auto& [key, count] : counts_) {
      checker.Update({IndexToEdge(key, num_nodes_), UpdateType::kInsert});
    }
    return checker.ConnectedComponents();
  }

 private:
  uint64_t num_nodes_;
  size_t window_;
  std::deque<Edge> ring_;
  std::map<uint64_t, int> counts_;
};

void ExpectSamePartition(const ConnectivityResult& got,
                         const ConnectivityResult& want, uint64_t n) {
  ASSERT_FALSE(got.failed);
  ASSERT_FALSE(want.failed);
  EXPECT_EQ(got.num_components, want.num_components);
  for (uint64_t i = 0; i < n; ++i) {
    for (uint64_t j = i + 1; j < n; ++j) {
      EXPECT_EQ(got.component_of[i] == got.component_of[j],
                want.component_of[i] == want.component_of[j])
          << "(" << i << "," << j << ")";
    }
  }
}

TEST(WindowIngestorTest, MatchesExplicitLastWindowGroundTruth) {
  const uint64_t n = 24;
  const size_t W = 40;
  GraphZeppelin gz(BaseConfig(n, 53));
  ASSERT_TRUE(gz.Init().ok());
  WindowIngestorParams wp;
  wp.num_nodes = n;
  wp.window = W;
  WindowIngestor window(wp, [&gz](const GraphUpdate* u, size_t c) {
    gz.Update(u, c);
  });
  ExplicitWindow truth(n, W);

  std::mt19937_64 rng(59);
  for (int i = 1; i <= 400; ++i) {
    const NodeId u = static_cast<NodeId>(rng() % n);
    NodeId v = static_cast<NodeId>(rng() % (n - 1));
    if (v >= u) ++v;
    const Edge e(std::min(u, v), std::max(u, v));
    window.Observe(e);
    truth.Observe(e);
    if (i % 50 == 0) {
      window.Flush();
      EXPECT_EQ(window.live_edges(), truth.live_edges());
      const ConnectivityResult got =
          Connectivity(gz.Snapshot(), /*threads=*/1);
      ExpectSamePartition(got, truth.Components(), n);
    }
  }
  EXPECT_EQ(window.observations(), 400u);
}

TEST(WindowIngestorTest, ReobservationRefreshesWithoutToggling) {
  // The XOR guard: re-observing a live edge must NOT re-insert it
  // (which would toggle it out of the sketches) — it refreshes the
  // edge's presence in the window.
  const uint64_t n = 8;
  std::vector<GraphUpdate> emitted;
  WindowIngestorParams wp;
  wp.num_nodes = n;
  wp.window = 3;
  WindowIngestor window(wp, [&emitted](const GraphUpdate* u, size_t c) {
    emitted.insert(emitted.end(), u, u + c);
  });
  for (int i = 0; i < 5; ++i) window.Observe(Edge(0, 1));
  window.Flush();
  ASSERT_EQ(emitted.size(), 1u);  // One insert, ever.
  EXPECT_EQ(emitted[0].type, UpdateType::kInsert);
  EXPECT_EQ(window.live_edges(), 1u);
  // Only when every retained observation of the edge has expired does
  // the delete go out.
  window.Observe(Edge(2, 3));
  window.Observe(Edge(4, 5));
  window.Observe(Edge(6, 7));  // Pushes the last (0,1) out.
  window.Flush();
  int deletes_01 = 0;
  for (const GraphUpdate& u : emitted) {
    if (u.edge == Edge(0, 1) && u.type == UpdateType::kDelete) ++deletes_01;
  }
  EXPECT_EQ(deletes_01, 1);
  EXPECT_EQ(window.live_edges(), 3u);
}

TEST(WindowIngestorTest, MixedInsertAndExpiryDeleteSlabFoldsToEmpty) {
  // The regression: one emitted slab may carry an edge's insert AND
  // its own expiry delete (short window, long span). Pushed through the
  // pooled batch pipeline as a single span, every expired edge must
  // fold to nothing — XOR cancellation inside one batch — leaving only
  // the window's one live edge.
  const uint64_t n = 16;
  std::vector<GraphUpdate> slab;
  WindowIngestorParams wp;
  wp.num_nodes = n;
  wp.window = 1;  // Every new observation expires the previous one.
  size_t sink_calls = 0;
  WindowIngestor window(wp, [&](const GraphUpdate* u, size_t c) {
    ++sink_calls;
    slab.insert(slab.end(), u, u + c);
  });
  window.Observe(Edge(0, 1));
  window.Observe(Edge(2, 3));
  window.Observe(Edge(4, 5));
  window.Observe(Edge(6, 7));  // Expires (4,5); (6,7) stays live.
  window.Flush();  // Nothing flushed early: ONE slab.
  ASSERT_EQ(sink_calls, 1u);
  ASSERT_EQ(slab.size(), 7u);  // 4 inserts + 3 expiry deletes, mixed.

  // The precondition this test exists for: the same edge's insert and
  // delete live in the SAME slab.
  bool has_insert = false, has_delete = false;
  for (const GraphUpdate& u : slab) {
    if (u.edge == Edge(0, 1)) {
      (u.type == UpdateType::kInsert ? has_insert : has_delete) = true;
    }
  }
  ASSERT_TRUE(has_insert && has_delete);

  GraphZeppelin gz(BaseConfig(n, 61));
  ASSERT_TRUE(gz.Init().ok());
  gz.Update(slab.data(), slab.size());  // One span -> batch pipeline.
  GraphZeppelin fresh(BaseConfig(n, 61));
  ASSERT_TRUE(fresh.Init().ok());
  fresh.Update({Edge(6, 7), UpdateType::kInsert});
  // Sketch content identical to an instance that only saw the live
  // edge. (The update COUNTS differ by construction — 7 vs 1 — so
  // compare the sketches: the expired edges folded to empty.)
  EXPECT_TRUE(SameSketchContent(gz.Snapshot(), fresh.Snapshot()));
}

TEST(SlidingWindowConnectivityTest,
     NotificationsVerifyAgainstFreshWindowedFold) {
  // Watchable window queries, composed from their three parts: a
  // WindowIngestor feeding a GraphZeppelin, and a StandingQueryRegistry
  // evaluated on the instance's snapshot after each window flush. Every
  // notification must (a) reproduce from the snapshot it carries, and
  // (b) match a FRESH windowed instance driven to the same observation
  // position — the window fold, not the cumulative graph.
  const uint64_t n = 12;
  const size_t W = 8;
  const GraphZeppelinConfig config = BaseConfig(n, 67);
  WindowIngestorParams window_params;
  window_params.num_nodes = n;
  window_params.window = W;

  GraphZeppelin gz(config);
  ASSERT_TRUE(gz.Init().ok());
  WindowIngestor window(window_params,
                        [&gz](const GraphUpdate* updates, size_t count) {
                          gz.Update(updates, count);
                        });
  StandingQueryRegistry registry;
  registry.Add({StandingQueryKind::kConnected, 0, 11});
  registry.Add({StandingQueryKind::kComponentCount, 0, 0});

  // A path 0-..-11 built left to right; with W=8 the early edges expire
  // as later ones arrive, so connected(0,11) is NEVER true and the
  // component count moves both up (expiry) and down (arrival).
  std::vector<Edge> stream;
  for (NodeId i = 0; i + 1 < n; ++i) stream.push_back(Edge(i, i + 1));
  for (NodeId i = 0; i + 1 < n; ++i) stream.push_back(Edge(i, i + 1));

  struct Seen {
    StandingQuerySpec spec;
    StandingQueryAnswer answer;
    uint64_t position;  // Observation count at evaluation time.
  };
  std::vector<Seen> seen;
  uint64_t observed = 0;
  for (const Edge& e : stream) {
    window.Observe(e);
    ++observed;
    if (observed % 4 == 0) {
      window.Flush();
      const Result<size_t> fired = registry.Evaluate(
          gz.Snapshot(), 1,
          [&](const StandingQueryNotification& notification,
              const GraphSnapshot& snapshot) {
            // (a) The carried snapshot reproduces the answer bitwise.
            const ConnectivityResult fold = Connectivity(snapshot, 1);
            EXPECT_TRUE(DeriveStandingAnswer(notification.spec, fold) ==
                        notification.answer);
            seen.push_back({notification.spec, notification.answer,
                            observed});
          });
      ASSERT_TRUE(fired.ok()) << fired.status().ToString();
    }
  }
  ASSERT_FALSE(seen.empty());
  bool connected_notified = false;

  // (b) Replay a fresh windowed instance to each notified position.
  for (const Seen& s : seen) {
    GraphZeppelin replay(config);
    ASSERT_TRUE(replay.Init().ok());
    WindowIngestor replay_window(
        window_params, [&replay](const GraphUpdate* updates, size_t count) {
          replay.Update(updates, count);
        });
    for (uint64_t i = 0; i < s.position; ++i) {
      replay_window.Observe(stream[i]);
    }
    replay_window.Flush();
    const ConnectivityResult fold =
        Connectivity(replay.Snapshot(), config.query_threads);
    EXPECT_TRUE(DeriveStandingAnswer(s.spec, fold) == s.answer)
        << "position " << s.position;
    if (s.spec.kind == StandingQueryKind::kConnected) {
      connected_notified = true;
      EXPECT_FALSE(s.answer.connected);  // 0 and 11 never coexist in W=8.
    }
  }
  EXPECT_TRUE(connected_notified);  // Initial answer always notifies.
}

// ---- k-edge-connectivity --------------------------------------------------

GraphSnapshot SnapshotOf(uint64_t n, uint64_t seed, int k,
                         const EdgeList& edges) {
  GraphZeppelinConfig config = BaseConfig(n, seed);
  config.rounds = RoundsForForests(n, k);
  GraphZeppelin gz(config);
  GZ_CHECK_OK(gz.Init());
  for (const Edge& e : edges) gz.Update({e, UpdateType::kInsert});
  return gz.Snapshot();
}

TEST(KConnectivityTest, PathCertifiesConnectivityOne) {
  const uint64_t n = 8;
  EdgeList edges;
  for (NodeId i = 0; i + 1 < n; ++i) edges.push_back(Edge(i, i + 1));
  const Result<KConnectivityResult> r =
      KEdgeConnectivity(SnapshotOf(n, 71, 2, edges), 2);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_FALSE(r.value().sketch_failed);
  EXPECT_EQ(r.value().certified_connectivity, 1);
  EXPECT_FALSE(r.value().is_k_edge_connected);
}

TEST(KConnectivityTest, CycleCertifiesConnectivityTwo) {
  const uint64_t n = 8;
  EdgeList edges;
  for (NodeId i = 0; i + 1 < n; ++i) edges.push_back(Edge(i, i + 1));
  edges.push_back(Edge(0, n - 1));
  {
    const Result<KConnectivityResult> r =
        KEdgeConnectivity(SnapshotOf(n, 73, 2, edges), 2);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().certified_connectivity, 2);
    EXPECT_TRUE(r.value().is_k_edge_connected);
  }
  {
    // Asking beyond the true connectivity: the exact cap shows through.
    const Result<KConnectivityResult> r =
        KEdgeConnectivity(SnapshotOf(n, 73, 3, edges), 3);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().certified_connectivity, 2);
    EXPECT_FALSE(r.value().is_k_edge_connected);
  }
}

TEST(KConnectivityTest, BridgedCliquesCertifyConnectivityOne) {
  // Two K4s joined by a single bridge: locally 3-edge-connected, but
  // the bridge caps the graph at 1 — the certificate must retain it.
  const uint64_t n = 8;
  EdgeList edges;
  for (NodeId u = 0; u < 4; ++u) {
    for (NodeId v = u + 1; v < 4; ++v) edges.push_back(Edge(u, v));
  }
  for (NodeId u = 4; u < 8; ++u) {
    for (NodeId v = u + 1; v < 8; ++v) edges.push_back(Edge(u, v));
  }
  edges.push_back(Edge(3, 4));
  const Result<KConnectivityResult> r =
      KEdgeConnectivity(SnapshotOf(n, 79, 2, edges), 2);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().certified_connectivity, 1);
  EXPECT_FALSE(r.value().is_k_edge_connected);
  // The certificate is small regardless of local density.
  EXPECT_LE(r.value().certificate.size(), 2 * (n - 1));
}

TEST(KConnectivityTest, DisconnectedCertifiesZero) {
  const uint64_t n = 8;
  const EdgeList edges = {Edge(0, 1), Edge(2, 3)};
  const Result<KConnectivityResult> r =
      KEdgeConnectivity(SnapshotOf(n, 83, 2, edges), 2);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().certified_connectivity, 0);
  EXPECT_FALSE(r.value().is_k_edge_connected);
}

TEST(KConnectivityTest, RejectsInvalidK) {
  const uint64_t n = 8;
  const EdgeList edges = {Edge(0, 1)};
  const GraphSnapshot snap = SnapshotOf(n, 89, 2, edges);
  EXPECT_EQ(KEdgeConnectivity(snap, 0).status().code(),
            StatusCode::kInvalidArgument);
  // Beyond the snapshot's round budget: rejected, not clamped.
  const int over = MaxForestsForRounds(n, snap.rounds()) + 1;
  EXPECT_EQ(KEdgeConnectivity(snap, over).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(KConnectivityTest, EdgeConnectivityHelperCapsAndHandlesIsolation) {
  // K4: lambda = 3.
  EdgeList k4;
  for (NodeId u = 0; u < 4; ++u) {
    for (NodeId v = u + 1; v < 4; ++v) k4.push_back(Edge(u, v));
  }
  EXPECT_EQ(EdgeConnectivityUpTo(4, k4, 5), 3);
  EXPECT_EQ(EdgeConnectivityUpTo(4, k4, 2), 2);  // The cap caps.
  // An isolated vertex separates for free.
  EXPECT_EQ(EdgeConnectivityUpTo(5, k4, 3), 0);
  // Single vertex: trivially infinite, capped.
  EXPECT_EQ(EdgeConnectivityUpTo(1, {}, 3), 3);
}

}  // namespace
}  // namespace gz
