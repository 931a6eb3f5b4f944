// Bridge finding on explicit edge lists (Tarjan low-link DFS).
// Combined with the k=2 spanning-forest certificate from
// algos/spanning_forests.h this answers 2-edge-connectivity queries on
// sketched graph streams: the certificate preserves all cuts of size
// <= 2, so its bridges are exactly the bridges of the streamed graph.
#ifndef GZ_ALGOS_BRIDGES_H_
#define GZ_ALGOS_BRIDGES_H_

#include <cstdint>

#include "stream/stream_types.h"

namespace gz {

// All bridges (cut edges) of the graph defined by `edges`.
EdgeList FindBridges(uint64_t num_nodes, const EdgeList& edges);

}  // namespace gz

#endif  // GZ_ALGOS_BRIDGES_H_
