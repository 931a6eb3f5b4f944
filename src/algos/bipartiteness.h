// Streaming bipartiteness testing via the AGM doubled-graph reduction —
// one of the applications the paper lists for CubeSketch (Section 3.1).
//
// Reduction: build G' on 2V vertices where edge {u, v} of G becomes
// {u, v+V} and {v, u+V}. A connected component C of G is bipartite iff
// its doubled vertex set {u, u+V : u in C} splits into exactly two
// components of G'; an odd cycle fuses them into one. Both graphs are
// maintained as GraphZeppelin sketch streams, so inserts and deletes
// are supported and space stays O(V log^3 V).
#ifndef GZ_ALGOS_BIPARTITENESS_H_
#define GZ_ALGOS_BIPARTITENESS_H_

#include <memory>
#include <vector>

#include "core/connectivity.h"
#include "core/graph_snapshot.h"
#include "core/graph_zeppelin.h"
#include "stream/stream_types.h"
#include "util/status.h"

namespace gz {

struct BipartitenessResult {
  bool failed = false;       // Sketch failure in either underlying query.
  bool whole_graph_bipartite = false;
  // Per-component verdicts, aligned with `component_of` labels from the
  // primal connectivity result.
  std::vector<NodeId> component_of;       // Primal component labels.
  std::vector<bool> component_bipartite;  // Indexed by vertex id.
};

// The verdict computed from a (primal, doubled) snapshot pair — the
// query half of the reduction, decoupled from sketch maintenance so a
// remote reader (gz_query against two served clusters) can run it on
// snapshots it pulled over the wire. `doubled` must have exactly twice
// the primal node count and is checked; sketch failure in either
// connectivity query sets `failed`.
BipartitenessResult BipartitenessFromSnapshots(const GraphSnapshot& primal,
                                               const GraphSnapshot& doubled,
                                               int num_threads = 1);

// The same verdict from the two connectivity answers, for callers that
// run each query themselves (a reader session retries its own). The
// doubled answer must cover exactly twice the primal node count.
BipartitenessResult BipartitenessFromComponents(
    const ConnectivityResult& primal, const ConnectivityResult& doubled);

class BipartitenessSketch {
 public:
  // `config` describes the primal graph; the doubled instance derives
  // from it (2x nodes, independent seed).
  explicit BipartitenessSketch(const GraphZeppelinConfig& config);

  Status Init();

  // Ingests one primal stream update (insert or delete).
  void Update(const GraphUpdate& update);

  BipartitenessResult Query();

  uint64_t num_nodes() const { return num_nodes_; }

 private:
  uint64_t num_nodes_;
  std::unique_ptr<GraphZeppelin> primal_;
  std::unique_ptr<GraphZeppelin> doubled_;
};

}  // namespace gz

#endif  // GZ_ALGOS_BIPARTITENESS_H_
