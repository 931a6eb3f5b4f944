#include "sketch/node_sketch.h"

#include <algorithm>
#include <cmath>

#include "stream/stream_types.h"
#include "util/check.h"
#include "util/xxhash.h"

namespace gz {

int NodeSketch::DefaultRounds(uint64_t num_nodes) {
  GZ_CHECK(num_nodes >= 2);
  // ceil(log_{3/2}(V)): Boruvka shrinks the component count by at least
  // 3/2 per successful round (paper Figure 9, line 8). The minimum of 2
  // leaves a confirmation round (all-cuts-empty) after the last merge.
  const double rounds =
      std::log(static_cast<double>(num_nodes)) / std::log(1.5);
  return std::max(2, static_cast<int>(std::ceil(rounds)));
}

NodeSketch::NodeSketch(const NodeSketchParams& params) : params_(params) {
  GZ_CHECK(params_.num_nodes >= 2);
  const int rounds = params_.rounds > 0 ? params_.rounds
                                        : DefaultRounds(params_.num_nodes);
  params_.rounds = rounds;
  subsketches_.reserve(rounds);
  const uint64_t vec_len = NumPossibleEdges(params_.num_nodes);
  for (int r = 0; r < rounds; ++r) {
    CubeSketchParams cp;
    cp.vector_len = vec_len;
    // Round seeds derive from the graph seed only, NOT the node id:
    // every vertex must share hash functions for merges to be linear.
    cp.seed = XxHash64Word(static_cast<uint64_t>(r) + 1, params_.seed);
    cp.cols = params_.cols;
    subsketches_.emplace_back(cp);
  }
}

void NodeSketch::Update(uint64_t edge_index) {
  for (CubeSketch& s : subsketches_) s.Update(edge_index);
}

void NodeSketch::UpdateBatch(const uint64_t* indices, size_t count) {
  if (count == 0) return;
  // One span-level bounds check covers every round's subsketch (they
  // all share vector_len), so the kernels run with no per-update or
  // per-round validation at all.
  const uint64_t vector_len = subsketches_.front().params().vector_len;
  uint64_t max_idx = 0;
  for (size_t i = 0; i < count; ++i) {
    max_idx = indices[i] > max_idx ? indices[i] : max_idx;
  }
  GZ_CHECK_MSG(max_idx < vector_len, "batch edge index out of range");
  for (CubeSketch& s : subsketches_) s.UpdateBatchPrechecked(indices, count);
}

SketchSample NodeSketch::Query(int round) const {
  GZ_CHECK(round >= 0 && round < rounds());
  return subsketches_[round].Query();
}

void NodeSketch::Merge(const NodeSketch& other) {
  GZ_CHECK_MSG(params_ == other.params_,
               "merging node sketches with different parameters");
  for (int r = 0; r < rounds(); ++r) {
    subsketches_[r].Merge(other.subsketches_[r]);
  }
}

void NodeSketch::MergeSerialized(const uint8_t* in) {
  for (CubeSketch& s : subsketches_) {
    s.MergeSerialized(in);
    in += s.SerializedSize();
  }
}

void NodeSketch::Clear() {
  for (CubeSketch& s : subsketches_) s.Clear();
}

size_t NodeSketch::ByteSize() const {
  size_t total = 0;
  for (const CubeSketch& s : subsketches_) total += s.ByteSize();
  return total;
}

size_t NodeSketch::SerializedSize() const {
  size_t total = 0;
  for (const CubeSketch& s : subsketches_) total += s.SerializedSize();
  return total;
}

size_t NodeSketch::SerializedSizeFor(const NodeSketchParams& params) {
  GZ_CHECK(params.num_nodes >= 2);
  const int rounds = params.rounds > 0 ? params.rounds
                                       : DefaultRounds(params.num_nodes);
  CubeSketchParams cp;
  cp.vector_len = NumPossibleEdges(params.num_nodes);
  cp.cols = params.cols;
  return static_cast<size_t>(rounds) * CubeSketch::SerializedSizeFor(cp);
}

void NodeSketch::SerializeTo(uint8_t* out) const {
  for (const CubeSketch& s : subsketches_) {
    s.SerializeTo(out);
    out += s.SerializedSize();
  }
}

void NodeSketch::DeserializeFrom(const uint8_t* in) {
  for (CubeSketch& s : subsketches_) {
    s.DeserializeFrom(in);
    in += s.SerializedSize();
  }
}

}  // namespace gz
