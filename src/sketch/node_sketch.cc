#include "sketch/node_sketch.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "stream/stream_types.h"
#include "util/check.h"
#include "util/xxhash.h"

namespace gz {
namespace {

NodeSketchParams Normalized(NodeSketchParams params) {
  GZ_CHECK(params.num_nodes >= 2);
  if (params.rounds <= 0) {
    params.rounds = NodeSketch::DefaultRounds(params.num_nodes);
  }
  return params;
}

std::shared_ptr<const SketchLayout> LayoutFor(const NodeSketchParams& params) {
  // Round seeds derive from the graph seed only, NOT the node id:
  // every vertex must share hash functions for merges to be linear.
  std::vector<uint64_t> round_seeds(params.rounds);
  for (int r = 0; r < params.rounds; ++r) {
    round_seeds[r] = XxHash64Word(static_cast<uint64_t>(r) + 1, params.seed);
  }
  return std::make_shared<const SketchLayout>(
      NumPossibleEdges(params.num_nodes), params.cols, round_seeds);
}

}  // namespace

int NodeSketch::DefaultRounds(uint64_t num_nodes) {
  GZ_CHECK(num_nodes >= 2);
  // ceil(log_{3/2}(V)): Boruvka shrinks the component count by at least
  // 3/2 per successful round (paper Figure 9, line 8). The minimum of 2
  // leaves a confirmation round (all-cuts-empty) after the last merge.
  const double rounds =
      std::log(static_cast<double>(num_nodes)) / std::log(1.5);
  return std::max(2, static_cast<int>(std::ceil(rounds)));
}

NodeSketch::NodeSketch(const NodeSketchParams& params)
    : SketchBlock(LayoutFor(Normalized(params))),
      params_(Normalized(params)) {}

void NodeSketch::Update(uint64_t edge_index) {
  UpdateRounds(SketchKernel::kScalar, &edge_index, 1,
               "edge index out of range");
}

void NodeSketch::UpdateBatch(const uint64_t* indices, size_t count) {
  UpdateRounds(ActiveSketchKernel(), indices, count,
               "batch edge index out of range");
}

SketchSample NodeSketch::Query(int round) const {
  GZ_CHECK(round >= 0 && round < rounds());
  return layout().Query(round, subsketch(round));
}

void NodeSketch::Merge(const NodeSketch& other) {
  GZ_CHECK_MSG(params_ == other.params_,
               "merging node sketches with different parameters");
  MergeBlock(other);
}

size_t NodeSketch::SerializedSizeFor(const NodeSketchParams& params) {
  const NodeSketchParams p = Normalized(params);
  return static_cast<size_t>(p.rounds) *
         SketchLayout::RoundBytes(NumPossibleEdges(p.num_nodes), p.cols);
}

}  // namespace gz
