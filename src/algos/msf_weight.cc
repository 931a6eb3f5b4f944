#include "algos/msf_weight.h"

#include "util/check.h"

namespace gz {

MsfWeightSketch::MsfWeightSketch(const GraphZeppelinConfig& config,
                                 uint32_t max_weight)
    : num_nodes_(config.num_nodes), max_weight_(max_weight) {
  GZ_CHECK(max_weight >= 1);
  levels_.reserve(max_weight);
  for (uint32_t i = 1; i <= max_weight; ++i) {
    levels_.push_back(std::make_unique<GraphZeppelin>(config));
  }
}

Status MsfWeightSketch::Init() {
  for (auto& level : levels_) {
    Status s = level->Init();
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

void MsfWeightSketch::Update(const Edge& e, uint32_t weight,
                             UpdateType type) {
  GZ_CHECK_MSG(weight >= 1 && weight <= max_weight_,
               "edge weight out of configured range");
  // Edge of weight w belongs to every level graph G_i with i >= w.
  for (uint32_t i = weight; i <= max_weight_; ++i) {
    levels_[i - 1]->Update({e, type});
  }
}

MsfWeightResult MsfWeightSketch::Query() {
  MsfWeightResult result;
  // cc(G_i) for i = 1..W; G_0 is empty so cc(G_0) = V. Each level is
  // queried through its snapshot.
  std::vector<size_t> level_components(max_weight_);
  for (uint32_t i = 0; i < max_weight_; ++i) {
    const ConnectivityResult cc = Connectivity(
        levels_[i]->Snapshot(), levels_[i]->config().query_threads);
    if (cc.failed) {
      result.failed = true;
      return result;
    }
    level_components[i] = cc.num_components;
  }
  const size_t cc_full = level_components[max_weight_ - 1];
  result.num_components = cc_full;
  // weight = sum_{i=0}^{W-1} (cc(G_i) - cc(G)); the i = 0 term is the
  // n - cc(G) tree-edge count.
  uint64_t weight = num_nodes_ - cc_full;
  for (uint32_t i = 1; i < max_weight_; ++i) {
    weight += level_components[i - 1] - cc_full;
  }
  result.weight = weight;
  return result;
}

}  // namespace gz
