// Boruvka-over-sketches connectivity computation (paper Figure 9).
//
// Each round samples one fresh subsketch per current component for cut
// edges, one per sketch column (up to `cols`, see
// SketchLayout::SampleColumns), and merges the endpoints' components in
// a DSU. The columns are independent samplers, so one round merges most
// components at once: sparse random graphs finish in 2-3 rounds
// (BENCH_multi_sample.json). A sample is wrong only if a bucket holding
// several indices passed its 32-bit checksum, so a component's samples
// carry at most cols * 2^-32 false-edge chance per round. The round
// budget (NodeSketch::DefaultRounds) is the worst-case guarantee, not
// the typical need. A component's round-r sketch is the XOR of its
// members' round-r subsketches (linearity makes the sum a sketch of the
// component's cut vector), so round r builds exactly those sums, for
// multi-member components only, and samples a singleton's own
// subsketch in place. The snapshot is only ever read, one round at a
// time.
//
// Summary first: each round starts from its summary, every node's
// 12-byte deterministic bucket (GraphSnapshot::Summary). The XOR of a
// component's members' buckets is the deterministic bucket of its sum
// (Ahn, Guha and McGregor's linear-sketch argument), and when that
// bucket is zero or a verified singleton it alone is the component's
// sample, exactly what SampleColumns returns on the whole sum
// (SketchLayout::SampleDeterministic). Only the components it leaves
// undecided build the whole round sum, and a round in which every live
// component is decided never reads the whole round
// (GraphSnapshot::Round). A query's last round, whose cuts are all
// empty, is such a round. So a reader snapshot pulls a whole round only
// where a summary did not decide, and a round-lazy capture of an
// on-disk store reads from the file only the rounds a query reaches.
// A snapshot that holds round 0's samples (GraphSnapshot::Samples: a
// reader's, sampled by the shards) answers round 0, where every node is
// a singleton, from them alone: each is exactly the SampleColumns
// result on the node's whole subsketch.
// Rounds use independent subsketches because query answers feed back
// into later merges (adaptivity).
//
// The engine parallelizes each round's heavy phases across a small
// thread pool — the summary XORs and the whole-sum XOR build of the
// component sketches, both over chunks of members, and per-component
// cut sampling — while keeping the round barrier and a deterministic
// merge order. XOR is order-free, so the result is bitwise identical
// for any thread count.
#ifndef GZ_CORE_CONNECTIVITY_H_
#define GZ_CORE_CONNECTIVITY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/graph_snapshot.h"
#include "sketch/node_sketch.h"
#include "stream/stream_types.h"
#include "util/status.h"

namespace gz {

struct ConnectivityResult {
  // True when the sketches could not complete Boruvka within the round
  // budget (probability polynomially small; Section 6.3 observes zero
  // failures in practice), or when a round of a lazy snapshot failed to
  // load (GraphSnapshot::load_status() then says why; rounds_used
  // counts that round).
  bool failed = false;
  EdgeList spanning_forest;
  // Component id (the DSU root) per node.
  std::vector<NodeId> component_of;
  // Number of connected components.
  size_t num_components = 0;
  // Boruvka rounds actually executed.
  int rounds_used = 0;

  // Point connectivity query against this result. Out-of-range node ids
  // are simply not connected to anything.
  bool Connected(NodeId u, NodeId v) const {
    if (u >= component_of.size() || v >= component_of.size()) return false;
    return component_of[u] == component_of[v];
  }
};

// The snapshot-facing query: computes the connected components and a
// spanning forest of the sketched graph. The snapshot is only read; it
// can be queried again, merged, or serialized afterwards.
//
// `num_threads`: 0 picks a small pool automatically (bounded by the
// hardware), 1 forces the sequential path, N uses N threads. Results
// are identical for every value.
ConnectivityResult Connectivity(const GraphSnapshot& snapshot,
                                int num_threads = 0);

// Resolution of num_threads = 0 ("auto"): min(hardware_concurrency, 8),
// at least 1. Exposed so benchmarks can report the pool size.
int ResolveQueryThreads(int num_threads);

// Connectivity() over a window of the snapshot's sketch rounds:
// `first_round`/`num_rounds` (default: all of them) let multi-phase
// algorithms — e.g. the spanning-forest decomposition in algos/ — give
// each phase fresh, adaptivity-safe rounds. num_rounds < 0 means
// "through the last round". `num_threads` as in Connectivity(), except
// that 0 is sequential here.
ConnectivityResult BoruvkaConnectivity(const GraphSnapshot& snapshot,
                                       int first_round = 0,
                                       int num_rounds = -1,
                                       int num_threads = 1);

// Groups nodes by component id. Helper for callers that want explicit
// component membership lists.
std::vector<std::vector<NodeId>> ComponentsFromLabels(
    const std::vector<NodeId>& component_of);

// Problem 1 of the paper asks for the spanning forest as an
// *insert-only edge stream*; this writes exactly that, reusing the
// binary stream-file format (every record an insertion).
Status WriteSpanningForestStream(const ConnectivityResult& result,
                                 uint64_t num_nodes,
                                 const std::string& path);

}  // namespace gz

#endif  // GZ_CORE_CONNECTIVITY_H_
