// Core graph-stream types: nodes, edges, updates, and the bijection
// between undirected edges and indices of the characteristic vector
// (length U·(U-1)/2) that the sketches compress.
#ifndef GZ_STREAM_STREAM_TYPES_H_
#define GZ_STREAM_STREAM_TYPES_H_

#include <cstdint>
#include <vector>

#include "util/check.h"

namespace gz {

using NodeId = uint32_t;
// Index into the characteristic vector of possible edges; up to
// U·(U-1)/2 - 1, so 64 bits.
using EdgeIndex = uint64_t;

// An undirected edge. Constructors normalize so that u < v.
struct Edge {
  NodeId u = 0;
  NodeId v = 0;

  Edge() = default;
  Edge(NodeId a, NodeId b) : u(a < b ? a : b), v(a < b ? b : a) {
    GZ_CHECK_MSG(a != b, "self-loop edge");
  }

  friend bool operator==(const Edge& a, const Edge& b) {
    return a.u == b.u && a.v == b.v;
  }
  friend bool operator<(const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  }
};

enum class UpdateType : uint8_t { kInsert = 0, kDelete = 1 };

// One stream element: ((u, v), Δ) with Δ ∈ {+1 (insert), -1 (delete)}.
struct GraphUpdate {
  Edge edge;
  UpdateType type = UpdateType::kInsert;

  friend bool operator==(const GraphUpdate& a, const GraphUpdate& b) {
    return a.edge == b.edge && a.type == b.type;
  }
};

// One endpoint's half of a stream update: edge {node, other} toggles in
// `node`'s sketch. Insert and delete are the same XOR toggle, so no type
// rides along. A GraphUpdate on (u, v) is the node updates {u, v} and
// {v, u}; a sharded cluster sends each to the shard owning its node.
struct NodeUpdate {
  NodeId node = 0;
  NodeId other = 0;
};

// Number of possible undirected edges among `num_nodes` vertices.
inline EdgeIndex NumPossibleEdges(uint64_t num_nodes) {
  return num_nodes * (num_nodes - 1) / 2;
}

// Maps edge {u, v} (u < v) among `num_nodes` vertices to its triangular
// index in [0, NumPossibleEdges(num_nodes)). Row-major over u.
inline EdgeIndex EdgeToIndex(const Edge& e, uint64_t num_nodes) {
  const uint64_t u = e.u;
  const uint64_t v = e.v;
  GZ_CHECK(u < v && v < num_nodes);
  return u * num_nodes - u * (u + 1) / 2 + (v - u - 1);
}

// Inverse of EdgeToIndex.
Edge IndexToEdge(EdgeIndex idx, uint64_t num_nodes);

// A list of edges, e.g. a spanning forest returned by a connectivity query.
using EdgeList = std::vector<Edge>;

}  // namespace gz

#endif  // GZ_STREAM_STREAM_TYPES_H_
