// Edge-disjoint spanning-forest decomposition over linear sketches —
// the Ahn-Guha-McGregor peeling construction the paper points to for
// problems beyond connectivity (Section 3.1: edge connectivity,
// k-connectivity certificates).
//
// Phase i runs Boruvka over a dedicated window of sketch rounds to
// extract a spanning forest F_i of G \ (F_1 ∪ ... ∪ F_{i-1}), then
// toggles F_i's edges out of the remaining graph's sketches (linearity
// makes the deletion exact, not approximate). The union F_1 ∪ ... ∪ F_k
// is a k-edge-connectivity certificate of G: it preserves every cut of
// size <= k, so e.g. the bridges of G are exactly the bridges of the
// k=2 certificate.
#ifndef GZ_ALGOS_SPANNING_FORESTS_H_
#define GZ_ALGOS_SPANNING_FORESTS_H_

#include <vector>

#include "core/graph_snapshot.h"
#include "sketch/node_sketch.h"
#include "stream/stream_types.h"
#include "util/status.h"

namespace gz {

struct ForestDecomposition {
  // forests[i] is the i-th edge-disjoint spanning forest; later forests
  // may be empty once all edges are consumed.
  std::vector<EdgeList> forests;
  // True if any phase's Boruvka ran out of sketch rounds (probability
  // polynomially small when the snapshot has >= k * ceil(log_{3/2} V)
  // rounds).
  bool failed = false;

  // Union of all forests: the k-edge-connectivity certificate.
  EdgeList CertificateEdges() const;
};

// Number of sketch rounds a snapshot needs for a k-forest
// decomposition of a graph on `num_nodes` vertices.
int RoundsForForests(uint64_t num_nodes, int k);

// Largest k a snapshot with `rounds` rounds can decompose for
// `num_nodes` vertices (each phase needs a full Boruvka round budget);
// the k-validation bound of the extractors below.
int MaxForestsForRounds(uint64_t num_nodes, int rounds);

// Extracts up to `k` edge-disjoint spanning forests from the snapshot,
// which must carry at least RoundsForForests(V, k) rounds (configure
// the producing instance with `rounds = RoundsForForests(V, k)`). The
// snapshot itself is untouched: the peel writes a copy-on-write copy
// of it, which clones only the forests' endpoints.
//
// A lazy snapshot whose rounds fail to load returns that load's status
// (GraphSnapshot::load_status()), never a decomposition.
//
// `k` is validated, not trusted: k < 1, or a k whose per-phase round
// budget exceeds what the snapshot carries, is an InvalidArgument —
// the request often comes from a CLI or a wire query, so it must bounce
// as a Status rather than abort (and silently clamping would disguise
// an under-provisioned snapshot as a certified answer).
Result<ForestDecomposition> ExtractSpanningForests(
    const GraphSnapshot& snapshot, int k);

}  // namespace gz

#endif  // GZ_ALGOS_SPANNING_FORESTS_H_
