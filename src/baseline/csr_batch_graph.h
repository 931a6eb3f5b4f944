// "Aspen-like" explicit dynamic-graph baseline: compressed sorted
// neighbor arrays per vertex, updated by applying sorted batches with a
// two-way merge (insert batches and delete batches, mirroring the
// batch-parallel model Aspen/Terrace are optimized for — see paper
// Section 6.2's batching protocol). It stands in for the Aspen system,
// an external C++ codebase this repository does not vendor. Memory is
// ~4 B per directed edge, the constant the paper quotes for Aspen.
#ifndef GZ_BASELINE_CSR_BATCH_GRAPH_H_
#define GZ_BASELINE_CSR_BATCH_GRAPH_H_

#include <cstdint>
#include <vector>

#include "core/connectivity.h"
#include "stream/stream_types.h"

namespace gz {

class CsrBatchGraph {
 public:
  // `batch_capacity` is the number of updates accumulated before a
  // merge pass (the paper uses 10^6 for Aspen/Terrace).
  CsrBatchGraph(uint64_t num_nodes, size_t batch_capacity);

  // Buffers the update; a full buffer of same-type updates triggers a
  // batch apply. Mixed streams cause a flush whenever the type flips,
  // exactly like the insertion/deletion arrays in Section 6.2.
  void Update(const GraphUpdate& update);

  // Applies any buffered updates immediately.
  void Flush();

  bool HasEdge(const Edge& e) const;
  uint64_t num_edges() const { return num_edges_; }

  // Connected components via BFS (flushes pending updates first).
  ConnectivityResult ConnectedComponents();

  size_t ByteSize() const;

 private:
  void ApplyBatch(const std::vector<Edge>& edges, bool is_insert);

  uint64_t num_nodes_;
  uint64_t num_edges_ = 0;
  size_t batch_capacity_;
  std::vector<std::vector<NodeId>> adjacency_;  // Sorted neighbor arrays.
  std::vector<Edge> pending_;
  bool pending_is_insert_ = true;
};

}  // namespace gz

#endif  // GZ_BASELINE_CSR_BATCH_GRAPH_H_
