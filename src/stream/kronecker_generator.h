// Graph500-flavored Kronecker graph generator (Section 6.1).
//
// The paper's kronNN inputs are *dense* simple undirected graphs
// (roughly half of all possible edges) produced from the Graph500
// Kronecker specification with duplicate edges and self-loops pruned.
// We generate the equivalent distribution directly: a Kronecker graph's
// edge probability is a product of per-bit initiator weights, so we
// visit each potential edge {u, v} once and keep it with probability
// min(1, scale · p_uv), calibrated so the expected edge count matches
// `density` · V(V-1)/2. This avoids the rejection blowup of sampling a
// dense graph edge-by-edge while preserving the Kronecker skew. The
// initiator matrix is Graph500's (A, B, C, D) = (0.57, 0.19, 0.19, 0.05).
#ifndef GZ_STREAM_KRONECKER_GENERATOR_H_
#define GZ_STREAM_KRONECKER_GENERATOR_H_

#include <cstdint>

#include "stream/stream_types.h"

namespace gz {

struct KroneckerParams {
  int scale = 10;        // V = 2^scale nodes.
  double density = 0.5;  // Target fraction of all possible edges.
  uint64_t seed = 1;
};

class KroneckerGenerator {
 public:
  explicit KroneckerGenerator(const KroneckerParams& params);

  uint64_t num_nodes() const { return uint64_t{1} << params_.scale; }

  // Generates the full edge list (simple, undirected, no self-loops).
  EdgeList Generate() const;

  // Unnormalized Kronecker affinity of the pair {u, v}.
  double PairWeight(NodeId u, NodeId v) const;

 private:
  KroneckerParams params_;
};

}  // namespace gz

#endif  // GZ_STREAM_KRONECKER_GENERATOR_H_
