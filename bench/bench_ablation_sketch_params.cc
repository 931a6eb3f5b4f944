// Ablation bench: the design choices behind CubeSketch and the
// ingestion pipeline (paper Sections 3.1 and 4.1).
//   (a) column count vs failure rate vs speed/size — the delta knob;
//   (b) Boruvka round budget vs query success;
//   (c) batch size vs node-sketch update throughput — why buffering
//       exists even in RAM.
#include <cstdio>
#include <set>
#include <vector>

#include "bench/bench_common.h"
#include "core/connectivity.h"
#include "sketch/cube_sketch.h"
#include "sketch/node_sketch.h"
#include "util/kwise_hash.h"
#include "util/random.h"
#include "util/timer.h"
#include "util/xxhash.h"

namespace gz {
namespace {

void AblateColumns() {
  std::printf("--- (a) CubeSketch columns: failure rate / speed / size ---\n");
  std::printf("%-8s %12s %14s %10s\n", "cols", "fail rate", "updates/s",
              "bytes");
  const uint64_t n = 1 << 20;
  const int trials = 800;
  for (int cols : {1, 2, 3, 5, 7, 9, 12}) {
    SplitMix64 rng(cols);
    int failures = 0;
    for (int t = 0; t < trials; ++t) {
      CubeSketchParams p;
      p.vector_len = n;
      p.seed = static_cast<uint64_t>(cols) * 100000 + t;
      p.cols = cols;
      CubeSketch s(p);
      const int support = 2 + static_cast<int>(rng.NextBelow(100));
      std::set<uint64_t> in;
      while (in.size() < static_cast<size_t>(support)) {
        in.insert(rng.NextBelow(n));
      }
      for (uint64_t idx : in) s.Update(idx);
      if (s.Query().kind == SampleKind::kFail) ++failures;
    }
    // Speed measurement.
    CubeSketchParams p;
    p.vector_len = n;
    p.seed = 1;
    p.cols = cols;
    CubeSketch s(p);
    std::vector<uint64_t> indices(200000);
    for (auto& idx : indices) idx = rng.NextBelow(n);
    WallTimer timer;
    s.UpdateBatch(indices.data(), indices.size());
    const double rate = static_cast<double>(indices.size()) / timer.Seconds();
    std::printf("%-8d %11.4f%% %14.0f %10zu\n", cols,
                100.0 * failures / trials, rate, s.ByteSize());
  }
}

void AblateRounds() {
  std::printf("\n--- (b) Boruvka round budget vs query success ---\n");
  std::printf("%-8s %12s %14s\n", "rounds", "successes", "of trials");
  const uint64_t n = 256;
  const int trials = 30;
  for (int rounds : {2, 4, 6, 8, 12, 0 /* default */}) {
    int successes = 0;
    for (int t = 0; t < trials; ++t) {
      const EdgeList edges = RandomConnectedGraph(n, n * 2, t + 1);
      NodeSketchParams p;
      p.num_nodes = n;
      p.seed = static_cast<uint64_t>(rounds) * 1000 + t;
      p.rounds = rounds;
      std::vector<NodeSketch> sketches;
      for (uint64_t i = 0; i < n; ++i) sketches.emplace_back(p);
      for (const Edge& e : edges) {
        const uint64_t idx = EdgeToIndex(e, n);
        sketches[e.u].Update(idx);
        sketches[e.v].Update(idx);
      }
      const ConnectivityResult r =
          BoruvkaConnectivity(GraphSnapshot(std::move(sketches), 0));
      if (!r.failed && r.num_components == 1) ++successes;
    }
    if (rounds == 0) {
      std::printf("%-8s %12d %14d\n", "default", successes, trials);
    } else {
      std::printf("%-8d %12d %14d\n", rounds, successes, trials);
    }
  }
}

void AblateBatchSize() {
  std::printf("\n--- (c) update locality: scattered vs per-node batches ---\n");
  std::printf("%-12s %14s\n", "batch size", "updates/s");
  // Many node sketches (the real ingestion working set): scattered
  // single updates touch a different ~tens-of-KB sketch every time,
  // while batching revisits one sketch's buckets while they are hot.
  const uint64_t num_nodes = 1 << 9;
  NodeSketchParams p;
  p.num_nodes = num_nodes;
  p.seed = 5;
  std::vector<NodeSketch> sketches;
  sketches.reserve(num_nodes);
  for (uint64_t i = 0; i < num_nodes; ++i) sketches.emplace_back(p);

  SplitMix64 rng(9);
  const size_t total_updates = 400000;
  std::vector<uint64_t> indices(total_updates);
  for (auto& idx : indices) idx = rng.NextBelow(NumPossibleEdges(num_nodes));

  for (size_t batch : {1UL, 16UL, 256UL, 2048UL}) {
    WallTimer timer;
    size_t start = 0;
    size_t node = 0;
    while (start < total_updates) {
      const size_t count = std::min(batch, total_updates - start);
      // batch=1 models unbuffered ingestion: every update lands on a
      // different node sketch (scattered). Larger batches model gutter
      // output: `count` consecutive updates to one node's sketch.
      sketches[node % num_nodes].UpdateBatch(indices.data() + start, count);
      ++node;
      start += count;
    }
    std::printf("%-12zu %14.0f\n", batch,
                static_cast<double>(total_updates) / timer.Seconds());
  }
  std::printf(
      "\nPer-node batches keep one sketch's buckets cache-resident for\n"
      "the whole batch -- the in-RAM motivation for gutters (paper\n"
      "section 6.5); on disk the same batching amortizes whole-sketch\n"
      "read-XOR-write cycles.\n");
}

void AblateHashFamily() {
  std::printf("\n--- (d) hash family: xxHash vs 2-wise polynomial ---\n");
  std::printf("%-14s %16s\n", "family", "hashes/s");
  const size_t n = 2000000;
  {
    WallTimer timer;
    uint64_t sink = 0;
    for (size_t i = 0; i < n; ++i) sink ^= XxHash64Word(i, 7);
    const double rate = static_cast<double>(n) / timer.Seconds();
    std::printf("%-14s %16.0f   (sink %llu)\n", "xxHash64", rate,
                static_cast<unsigned long long>(sink & 1));
  }
  {
    KWiseHash h(7, 2);
    WallTimer timer;
    uint64_t sink = 0;
    for (size_t i = 0; i < n; ++i) sink ^= h.Hash(i);
    const double rate = static_cast<double>(n) / timer.Seconds();
    std::printf("%-14s %16.0f   (sink %llu)\n", "poly 2-wise", rate,
                static_cast<unsigned long long>(sink & 1));
  }
  std::printf(
      "\nThe analysis only needs 2-wise independence; the system follows\n"
      "the paper in using xxHash for speed. This measures the tradeoff.\n");
}

}  // namespace
}  // namespace gz

int main() {
  gz::bench::PrintHeader("Ablation", "sketch and pipeline design knobs");
  gz::AblateColumns();
  gz::AblateRounds();
  gz::AblateBatchSize();
  gz::AblateHashFamily();
  return 0;
}
