#include "algos/bridges.h"

#include <algorithm>
#include <vector>

#include "util/check.h"

namespace gz {
namespace {

struct Arc {
  NodeId to;
  uint32_t edge_id;
};

// DFS stack frame for the iterative low-link computation.
struct Frame {
  NodeId node;
  uint32_t parent_edge;  // Edge id used to reach `node` (UINT32_MAX at roots).
  size_t next_arc;       // Index into adjacency[node] to resume from.
};

}  // namespace

EdgeList FindBridges(uint64_t num_nodes, const EdgeList& edges) {
  GZ_CHECK(edges.size() < UINT32_MAX);
  std::vector<std::vector<Arc>> adjacency(num_nodes);
  for (uint32_t id = 0; id < edges.size(); ++id) {
    const Edge& e = edges[id];
    GZ_CHECK(e.v < num_nodes);
    adjacency[e.u].push_back(Arc{e.v, id});
    adjacency[e.v].push_back(Arc{e.u, id});
  }

  constexpr uint32_t kUnvisited = UINT32_MAX;
  std::vector<uint32_t> disc(num_nodes, kUnvisited);
  std::vector<uint32_t> low(num_nodes, 0);
  uint32_t timer = 0;
  EdgeList bridges;
  std::vector<Frame> stack;

  for (NodeId root = 0; root < num_nodes; ++root) {
    if (disc[root] != kUnvisited) continue;
    stack.push_back(Frame{root, UINT32_MAX, 0});
    disc[root] = low[root] = timer++;
    while (!stack.empty()) {
      Frame& frame = stack.back();
      if (frame.next_arc < adjacency[frame.node].size()) {
        const Arc arc = adjacency[frame.node][frame.next_arc++];
        if (arc.edge_id == frame.parent_edge) continue;  // Tree edge back.
        if (disc[arc.to] == kUnvisited) {
          disc[arc.to] = low[arc.to] = timer++;
          stack.push_back(Frame{arc.to, arc.edge_id, 0});
        } else {
          // Back edge: pull the ancestor's discovery time into low.
          low[frame.node] = std::min(low[frame.node], disc[arc.to]);
        }
      } else {
        // Post-order: propagate low to the parent and test the tree
        // edge for bridge-ness.
        const Frame done = frame;
        stack.pop_back();
        if (!stack.empty()) {
          Frame& parent = stack.back();
          low[parent.node] = std::min(low[parent.node], low[done.node]);
          if (low[done.node] > disc[parent.node]) {
            bridges.push_back(edges[done.parent_edge]);
          }
        }
      }
    }
  }
  return bridges;
}

}  // namespace gz
