#include "algos/bipartiteness.h"

#include <unordered_map>
#include <unordered_set>

#include "util/check.h"
#include "util/xxhash.h"

namespace gz {

BipartitenessSketch::BipartitenessSketch(const GraphZeppelinConfig& config)
    : num_nodes_(config.num_nodes) {
  GZ_CHECK(config.num_nodes >= 2);
  primal_ = std::make_unique<GraphZeppelin>(config);
  GraphZeppelinConfig doubled_config = config;
  doubled_config.num_nodes = 2 * config.num_nodes;
  doubled_config.seed = XxHash64Word(config.seed, 0x62697061ULL);
  doubled_ = std::make_unique<GraphZeppelin>(doubled_config);
}

Status BipartitenessSketch::Init() {
  Status s = primal_->Init();
  if (!s.ok()) return s;
  return doubled_->Init();
}

void BipartitenessSketch::Update(const GraphUpdate& update) {
  primal_->Update(update);
  const NodeId u = update.edge.u;
  const NodeId v = update.edge.v;
  const NodeId shift = static_cast<NodeId>(num_nodes_);
  doubled_->Update({Edge(u, static_cast<NodeId>(v + shift)), update.type});
  doubled_->Update({Edge(v, static_cast<NodeId>(u + shift)), update.type});
}

BipartitenessResult BipartitenessFromSnapshots(const GraphSnapshot& primal,
                                               const GraphSnapshot& doubled,
                                               int num_threads) {
  GZ_CHECK(doubled.params().num_nodes == 2 * primal.params().num_nodes);
  return BipartitenessFromComponents(Connectivity(primal, num_threads),
                                     Connectivity(doubled, num_threads));
}

BipartitenessResult BipartitenessFromComponents(
    const ConnectivityResult& primal_cc,
    const ConnectivityResult& doubled_cc) {
  BipartitenessResult result;
  if (primal_cc.failed || doubled_cc.failed) {
    result.failed = true;
    return result;
  }
  const uint64_t num_nodes = primal_cc.component_of.size();
  GZ_CHECK(doubled_cc.component_of.size() == 2 * num_nodes);
  result.component_of = primal_cc.component_of;
  result.component_bipartite.assign(num_nodes, true);

  // Component C is bipartite iff {u, u+V : u in C} spans exactly two
  // doubled components. Count distinct doubled labels per primal label.
  std::unordered_map<NodeId, std::unordered_set<NodeId>> doubled_labels;
  for (NodeId u = 0; u < num_nodes; ++u) {
    auto& labels = doubled_labels[primal_cc.component_of[u]];
    labels.insert(doubled_cc.component_of[u]);
    labels.insert(doubled_cc.component_of[u + num_nodes]);
  }

  result.whole_graph_bipartite = true;
  for (NodeId u = 0; u < num_nodes; ++u) {
    const auto& labels = doubled_labels[primal_cc.component_of[u]];
    // Singleton primal components have two isolated doubled vertices
    // (labels = 2) and are trivially bipartite; an odd cycle fuses the
    // doubled copies into one component (labels = 1).
    const bool bipartite = labels.size() == 2;
    result.component_bipartite[u] = bipartite;
    if (!bipartite) result.whole_graph_bipartite = false;
  }
  return result;
}

BipartitenessResult BipartitenessSketch::Query() {
  // Both instances are queried through their snapshots; the doubled
  // graph's snapshot could equally be shipped elsewhere and queried
  // there, since GraphSnapshot is self-describing — that is exactly
  // what gz_query does against a pair of served clusters.
  return BipartitenessFromSnapshots(primal_->Snapshot(), doubled_->Snapshot(),
                                    primal_->config().query_threads);
}

}  // namespace gz
