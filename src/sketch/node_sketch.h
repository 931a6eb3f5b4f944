// Node sketch ("supernode"): the per-vertex sketching state of
// StreamingCC / GraphZeppelin (paper Section 2.2). Each vertex keeps
// `rounds` independent CubeSketches of its characteristic vector — one
// per round of Boruvka's algorithm, because querying a sketch and then
// merging based on the answer makes later queries adaptive.
//
// All node sketches in one graph share hash seeds per (round, column):
// that is what makes cross-node merging (summing sketches of a connected
// component) yield a sketch of the component's cut vector.
#ifndef GZ_SKETCH_NODE_SKETCH_H_
#define GZ_SKETCH_NODE_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

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

class NodeSketch {
 public:
  explicit NodeSketch(const NodeSketchParams& params);

  // Number of Boruvka rounds supported: ceil(log_{3/2} V), following the
  // paper's failure check in list_spanning_forest().
  static int DefaultRounds(uint64_t num_nodes);

  // Applies one edge-index toggle to every round's subsketch.
  void Update(uint64_t edge_index);

  // Applies a batch of edge-index toggles. Iterates subsketch-major so
  // each CubeSketch's buckets stay cache-resident across the batch
  // (this ordering is also the unit of the paper's sketch-level
  // parallelism). Bounds-checks the span once, then feeds each round's
  // CubeSketch the whole index span through the active SIMD sketch
  // kernel (sketch_kernel.h) — the ingest workers' delta sketches go
  // through exactly this path.
  void UpdateBatch(const uint64_t* indices, size_t count);

  // Samples an incident (cut) edge index from round `round`'s subsketch.
  SketchSample Query(int round) const;

  // Elementwise merge; both sketches must share params (and hence seeds).
  void Merge(const NodeSketch& other);

  // Merge with a serialized record of a same-params sketch (the
  // SerializeTo layout), XORed straight from the bytes: what
  // Merge(DeserializeFrom(in)) computes, without the scratch sketch.
  void MergeSerialized(const uint8_t* in);

  void Clear();

  int rounds() const { return static_cast<int>(subsketches_.size()); }
  const NodeSketchParams& params() const { return params_; }
  const CubeSketch& subsketch(int round) const { return subsketches_[round]; }
  CubeSketch& mutable_subsketch(int round) { return subsketches_[round]; }

  size_t ByteSize() const;

  // Flat serialization for the on-disk sketch store. Size depends only
  // on params, so every node's record has identical length.
  size_t SerializedSize() const;
  // Same, computed from params alone (no sketch construction); lets
  // deserializers validate sizes before allocating anything.
  static size_t SerializedSizeFor(const NodeSketchParams& params);
  void SerializeTo(uint8_t* out) const;
  void DeserializeFrom(const uint8_t* in);

  friend bool operator==(const NodeSketch& a, const NodeSketch& b) {
    return a.params_ == b.params_ && a.subsketches_ == b.subsketches_;
  }

 private:
  NodeSketchParams params_;
  std::vector<CubeSketch> subsketches_;
};

}  // namespace gz

#endif  // GZ_SKETCH_NODE_SKETCH_H_
