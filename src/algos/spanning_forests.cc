#include "algos/spanning_forests.h"

#include <string>

#include "core/connectivity.h"
#include "util/check.h"

namespace gz {

EdgeList ForestDecomposition::CertificateEdges() const {
  EdgeList all;
  for (const EdgeList& forest : forests) {
    all.insert(all.end(), forest.begin(), forest.end());
  }
  return all;
}

int RoundsForForests(uint64_t num_nodes, int k) {
  GZ_CHECK(k >= 1);
  return k * NodeSketch::DefaultRounds(num_nodes);
}

int MaxForestsForRounds(uint64_t num_nodes, int rounds) {
  return rounds / NodeSketch::DefaultRounds(num_nodes);
}

Result<ForestDecomposition> ExtractSpanningForests(
    const GraphSnapshot& snapshot, int k) {
  GZ_CHECK_MSG(snapshot.valid(), "decomposing an empty snapshot");
  // k arrives from CLIs and wire queries: validate, don't abort, and
  // never clamp (a clamped k would certify less than the caller asked
  // for while claiming otherwise).
  if (k < 1) {
    return Status::InvalidArgument("forest count k must be >= 1, got " +
                                   std::to_string(k));
  }
  const uint64_t num_nodes = snapshot.num_nodes();
  const int total_rounds = snapshot.rounds();
  if (k > MaxForestsForRounds(num_nodes, total_rounds)) {
    return Status::InvalidArgument(
        "snapshot has too few rounds for the requested k: k=" +
        std::to_string(k) + " wants >= " +
        std::to_string(RoundsForForests(num_nodes, k)) + " rounds, have " +
        std::to_string(total_rounds) + " (max k here: " +
        std::to_string(MaxForestsForRounds(num_nodes, total_rounds)) + ")");
  }
  const int rounds_per_phase = total_rounds / k;

  // The graph still to decompose. It starts as a copy-on-write copy of
  // the input, so the peel below clones only the forest endpoints and
  // the caller's snapshot is never written.
  GraphSnapshot remaining = snapshot;
  ForestDecomposition result;
  for (int phase = 0; phase < k; ++phase) {
    const ConnectivityResult cc = BoruvkaConnectivity(
        remaining, phase * rounds_per_phase, rounds_per_phase);
    if (cc.failed) {
      // A round that did not load (a reader whose cluster moved) is an
      // error, not a sketch failure.
      Status s = remaining.load_status();
      if (!s.ok()) return s;
      result.failed = true;
      break;
    }
    if (cc.spanning_forest.empty()) break;  // No edges left to peel.
    result.forests.push_back(cc.spanning_forest);
    if (phase + 1 == k) break;  // Nothing reads the graph after this.
    // Peel: toggle the forest's edges out of the remaining graph. The
    // first toggle loads a lazy snapshot's every round, or fails.
    for (const Edge& e : cc.spanning_forest) {
      Status s = remaining.ToggleEdge(e);
      if (!s.ok()) return s;
    }
  }
  return result;
}

}  // namespace gz
