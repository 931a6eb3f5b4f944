// Tests for the edge-set -> insert/delete stream transform and its
// paper guarantees (i)-(iv).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "stream/erdos_renyi_generator.h"
#include "stream/stream_transform.h"

namespace gz {
namespace {

StreamTransformResult MakeStream(uint64_t num_nodes, uint64_t seed,
                                 double churn = 0.05, double phantom = 0.05,
                                 int disconnect = 0) {
  EdgeList edges = RandomConnectedGraph(num_nodes, num_nodes * 3, seed);
  StreamTransformParams p;
  p.num_nodes = num_nodes;
  p.seed = seed;
  p.churn_fraction = churn;
  p.phantom_fraction = phantom;
  p.disconnect_count = disconnect;
  return BuildStream(edges, p);
}

TEST(StreamTransformTest, GuaranteeInsertBeforeDelete) {
  const StreamTransformResult r = MakeStream(200, 1);
  std::set<std::pair<NodeId, NodeId>> present;
  for (const GraphUpdate& u : r.updates) {
    const auto key = std::make_pair(u.edge.u, u.edge.v);
    if (u.type == UpdateType::kInsert) {
      EXPECT_TRUE(present.insert(key).second)
          << "double insert of " << u.edge.u << "-" << u.edge.v;
    } else {
      EXPECT_EQ(present.erase(key), 1u)
          << "delete of absent " << u.edge.u << "-" << u.edge.v;
    }
  }
}

TEST(StreamTransformTest, GuaranteeAlternatingTypesPerEdge) {
  const StreamTransformResult r = MakeStream(200, 2);
  std::map<std::pair<NodeId, NodeId>, UpdateType> last;
  for (const GraphUpdate& u : r.updates) {
    const auto key = std::make_pair(u.edge.u, u.edge.v);
    const auto it = last.find(key);
    if (it != last.end()) {
      EXPECT_NE(it->second, u.type)
          << "consecutive same-type updates for an edge";
    }
    last[key] = u.type;
  }
}

TEST(StreamTransformTest, GuaranteeFinalEdgeSetMatches) {
  const StreamTransformResult r = MakeStream(200, 3);
  std::set<std::pair<NodeId, NodeId>> present;
  for (const GraphUpdate& u : r.updates) {
    const auto key = std::make_pair(u.edge.u, u.edge.v);
    if (u.type == UpdateType::kInsert) {
      present.insert(key);
    } else {
      present.erase(key);
    }
  }
  std::set<std::pair<NodeId, NodeId>> expected;
  for (const Edge& e : r.final_edges) expected.insert({e.u, e.v});
  EXPECT_EQ(present, expected);
}

TEST(StreamTransformTest, GuaranteeDisconnectedNodesIsolated) {
  const StreamTransformResult r = MakeStream(200, 4);
  EXPECT_FALSE(r.disconnected_nodes.empty());
  std::set<NodeId> disconnected(r.disconnected_nodes.begin(),
                                r.disconnected_nodes.end());
  for (const Edge& e : r.final_edges) {
    EXPECT_EQ(disconnected.count(e.u), 0u);
    EXPECT_EQ(disconnected.count(e.v), 0u);
  }
}

TEST(StreamTransformTest, DisconnectCountHonored) {
  const StreamTransformResult r =
      MakeStream(200, 5, 0.05, 0.05, /*disconnect=*/7);
  EXPECT_EQ(r.disconnected_nodes.size(), 7u);
}

TEST(StreamTransformTest, DisconnectDisabled) {
  const StreamTransformResult r =
      MakeStream(100, 6, 0.0, 0.0, /*disconnect=*/-1);
  EXPECT_TRUE(r.disconnected_nodes.empty());
  // Without churn/phantoms/disconnection, the stream is pure inserts.
  for (const GraphUpdate& u : r.updates) {
    EXPECT_EQ(u.type, UpdateType::kInsert);
  }
}

TEST(StreamTransformTest, DefaultDisconnectLeavesANodeOnTwoNodes) {
  // The default disconnect count is capped at V - 1.
  StreamTransformParams p;
  p.num_nodes = 2;
  const StreamTransformResult r = BuildStream({Edge(0, 1)}, p);
  EXPECT_EQ(r.disconnected_nodes.size(), 1u);
  EXPECT_TRUE(r.final_edges.empty());
}

TEST(StreamTransformDeathTest, MorePhantomsThanNonEdgesFailsACheck) {
  // K4 minus one edge leaves one non-edge: one phantom fits, and a
  // request for two is a check failure rather than an endless draw.
  const EdgeList edges = {Edge(0, 1), Edge(0, 2), Edge(0, 3), Edge(1, 2),
                          Edge(1, 3)};
  StreamTransformParams p;
  p.num_nodes = 4;
  p.churn_fraction = 0.0;
  p.disconnect_count = -1;
  p.phantom_fraction = 0.2;  // floor(0.2 * 5) = 1 phantom.
  EXPECT_EQ(BuildStream(edges, p).updates.size(), edges.size() + 2);
  p.phantom_fraction = 0.4;  // 2 phantoms.
  EXPECT_DEATH(BuildStream(edges, p), "non-edges");
}

TEST(StreamTransformTest, ChurnAndPhantomsAddDeletes) {
  EdgeList edges = RandomConnectedGraph(300, 1200, 7);
  StreamTransformParams p;
  p.num_nodes = 300;
  p.seed = 7;
  p.churn_fraction = 0.2;
  p.phantom_fraction = 0.1;
  p.disconnect_count = -1;
  const StreamTransformResult r = BuildStream(edges, p);
  // Stream length > |E| because of churn triples and phantom pairs.
  EXPECT_GT(r.updates.size(), edges.size() + edges.size() / 10);
  size_t deletes = 0;
  for (const GraphUpdate& u : r.updates) {
    deletes += u.type == UpdateType::kDelete;
  }
  EXPECT_GT(deletes, 0u);
}

TEST(StreamTransformTest, PhantomEdgesNeverSurvive) {
  EdgeList edges = RandomConnectedGraph(150, 400, 8);
  std::set<std::pair<NodeId, NodeId>> input;
  for (const Edge& e : edges) input.insert({e.u, e.v});

  StreamTransformParams p;
  p.num_nodes = 150;
  p.seed = 8;
  p.phantom_fraction = 0.3;
  p.disconnect_count = -1;
  const StreamTransformResult r = BuildStream(edges, p);
  for (const Edge& e : r.final_edges) {
    EXPECT_TRUE(input.count({e.u, e.v}) > 0)
        << "phantom edge survived to the final graph";
  }
}

TEST(StreamTransformTest, FinalEdgesPreservedWithoutDisconnection) {
  // With disconnection off, churn and phantoms must not change the
  // final edge set: it equals the input exactly.
  EdgeList edges = RandomConnectedGraph(120, 500, 12);
  std::set<std::pair<NodeId, NodeId>> input;
  for (const Edge& e : edges) input.insert({e.u, e.v});

  StreamTransformParams p;
  p.num_nodes = 120;
  p.seed = 12;
  p.churn_fraction = 0.5;
  p.phantom_fraction = 0.5;
  p.disconnect_count = -1;
  const StreamTransformResult r = BuildStream(edges, p);
  std::set<std::pair<NodeId, NodeId>> final_set;
  for (const Edge& e : r.final_edges) final_set.insert({e.u, e.v});
  EXPECT_EQ(final_set, input);
}

TEST(StreamTransformTest, UpdateCountAccounting) {
  // Without churn/phantoms, every non-disconnected edge contributes one
  // update and every disconnected-incident edge two.
  EdgeList edges = RandomConnectedGraph(100, 400, 13);
  StreamTransformParams p;
  p.num_nodes = 100;
  p.seed = 13;
  p.churn_fraction = 0.0;
  p.phantom_fraction = 0.0;
  p.disconnect_count = 5;
  const StreamTransformResult r = BuildStream(edges, p);
  const size_t surviving = r.final_edges.size();
  const size_t removed = edges.size() - surviving;
  EXPECT_EQ(r.updates.size(), surviving + 2 * removed);
}

TEST(StreamTransformTest, EmptyInputYieldsEmptyStream) {
  StreamTransformParams p;
  p.num_nodes = 10;
  p.seed = 14;
  p.disconnect_count = -1;
  const StreamTransformResult r = BuildStream({}, p);
  EXPECT_TRUE(r.updates.empty());
  EXPECT_TRUE(r.final_edges.empty());
}

TEST(StreamTransformTest, DeterministicBySeed) {
  const StreamTransformResult a = MakeStream(100, 9);
  const StreamTransformResult b = MakeStream(100, 9);
  EXPECT_EQ(a.updates, b.updates);
  const StreamTransformResult c = MakeStream(100, 10);
  EXPECT_NE(a.updates, c.updates);
}

}  // namespace
}  // namespace gz
