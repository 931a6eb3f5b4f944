// "Terrace-like" explicit dynamic-graph baseline: one hash set of
// neighbors per vertex. Fast point inserts/deletes, O(V + E) BFS
// connectivity, but Θ(E) memory with hash-table constant factors —
// the explicit-representation cost profile the paper contrasts
// GraphZeppelin against. It stands in for the Terrace system, an
// external C++ codebase this repository does not vendor.
#ifndef GZ_BASELINE_HASH_ADJACENCY_GRAPH_H_
#define GZ_BASELINE_HASH_ADJACENCY_GRAPH_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "core/connectivity.h"
#include "stream/stream_types.h"

namespace gz {

class HashAdjacencyGraph {
 public:
  explicit HashAdjacencyGraph(uint64_t num_nodes);

  void Update(const GraphUpdate& update);

  bool HasEdge(const Edge& e) const;
  uint64_t num_edges() const { return num_edges_; }

  // Connected components via BFS over the adjacency sets.
  ConnectivityResult ConnectedComponents() const;

  // Approximate heap footprint (buckets + nodes of the hash sets).
  size_t ByteSize() const;

 private:
  uint64_t num_nodes_;
  uint64_t num_edges_ = 0;
  std::vector<std::unordered_set<NodeId>> adjacency_;
};

}  // namespace gz

#endif  // GZ_BASELINE_HASH_ADJACENCY_GRAPH_H_
