// Converts a static edge set into a random insert/delete stream with the
// paper's guarantees (Section 6.1):
//   (i)   every deletion of e is preceded by an insertion of e;
//   (ii)  no edge receives two consecutive updates of the same type;
//   (iii) a small set of nodes (< 150) is disconnected from the rest of
//         the final graph, so the stream ends with non-trivial connected
//         components;
//   (iv)  the final edge set is exactly the input minus the edges
//         incident to the disconnected set.
// The transform also deliberately inserts-then-deletes "phantom" edges
// that are absent from the input graph and applies churn
// (insert/delete/insert) to a fraction of real edges, exercising
// interleaved deletions the way the paper's streams do.
#ifndef GZ_STREAM_STREAM_TRANSFORM_H_
#define GZ_STREAM_STREAM_TRANSFORM_H_

#include <cstdint>
#include <vector>

#include "stream/stream_types.h"

namespace gz {

struct StreamTransformParams {
  uint64_t num_nodes = 0;
  uint64_t seed = 1;
  // Fraction of surviving edges that get an extra delete+insert pair.
  double churn_fraction = 0.03;
  // Phantom (never-present-in-input) edges as a fraction of input edges;
  // each contributes an insert+delete pair.
  double phantom_fraction = 0.02;
  // Number of nodes to disconnect, below num_nodes; 0 picks the
  // paper-style default min(149, max(2, V/64), V - 1). Set negative to
  // disable disconnection.
  int disconnect_count = 0;
};

struct StreamTransformResult {
  std::vector<GraphUpdate> updates;
  // Nodes whose incident edges were deleted by the end of the stream.
  std::vector<NodeId> disconnected_nodes;
  // The exact final edge set (input minus disconnected-incident edges).
  EdgeList final_edges;
};

StreamTransformResult BuildStream(const EdgeList& input_edges,
                                  const StreamTransformParams& params);

}  // namespace gz

#endif  // GZ_STREAM_STREAM_TRANSFORM_H_
