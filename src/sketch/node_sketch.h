// Node sketch ("supernode"): the per-vertex sketching state of
// StreamingCC / GraphZeppelin (paper Section 2.2). Each vertex keeps
// `rounds` independent CubeSketches of its characteristic vector — one
// per round of Boruvka's algorithm, because querying a sketch and then
// merging based on the answer makes later queries adaptive.
//
// All node sketches in one graph share hash seeds per (round, column):
// that is what makes cross-node merging (summing sketches of a connected
// component) yield a sketch of the component's cut vector. So the seeds
// live in one SketchLayout (cube_sketch.h) per graph, and a node sketch
// is one bucket block, its rounds laid out back to back exactly as in
// its serialized record, each padded to 8 bytes. Copying a node sketch
// is one allocation; sketches copied from one another share the layout.
#ifndef GZ_SKETCH_NODE_SKETCH_H_
#define GZ_SKETCH_NODE_SKETCH_H_

#include <cstddef>
#include <cstdint>

#include "sketch/cube_sketch.h"
#include "sketch/sketch_sample.h"

namespace gz {

struct NodeSketchParams {
  uint64_t num_nodes = 0;  // U: upper bound on the number of vertices.
  uint64_t seed = 0;       // Graph-level seed; shared by every vertex.
  int cols = 7;            // Columns per CubeSketch.
  int rounds = 0;          // 0 = DefaultRounds(num_nodes).

  friend bool operator==(const NodeSketchParams& a,
                         const NodeSketchParams& b) {
    return a.num_nodes == b.num_nodes && a.seed == b.seed &&
           a.cols == b.cols && a.rounds == b.rounds;
  }
};

class NodeSketch : public SketchBlock {
 public:
  // Builds the graph's layout, hashing every round's seeds. Code that
  // needs many sketches of one graph builds one and copies it.
  explicit NodeSketch(const NodeSketchParams& params);

  // Number of Boruvka rounds supported: ceil(log_{3/2} V), following the
  // paper's failure check in list_spanning_forest().
  static int DefaultRounds(uint64_t num_nodes);

  // Applies one edge-index toggle to every round.
  void Update(uint64_t edge_index);

  // Applies a batch of edge-index toggles: one span bounds check, then
  // the active SIMD kernel over the whole span, round by round. This is
  // the ingest path: SketchStore::ApplyBatch runs it on a node's sketch.
  void UpdateBatch(const uint64_t* indices, size_t count);

  // Samples an incident (cut) edge index from round `round`.
  SketchSample Query(int round) const;

  // Elementwise merge; both sketches must share params (and hence seeds).
  void Merge(const NodeSketch& other);

  int rounds() const { return params_.rounds; }
  const NodeSketchParams& params() const { return params_; }

  // Record size from params alone (no layout, no seeds); lets
  // deserializers validate sizes before allocating anything.
  static size_t SerializedSizeFor(const NodeSketchParams& params);

  friend bool operator==(const NodeSketch& a, const NodeSketch& b) {
    return a.params_ == b.params_ && a.bytes_ == b.bytes_;
  }

 private:
  NodeSketchParams params_;
};

}  // namespace gz

#endif  // GZ_SKETCH_NODE_SKETCH_H_
