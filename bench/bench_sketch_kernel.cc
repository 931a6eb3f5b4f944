// Sketch-kernel microbench: updates/sec per kernel (scalar vs AVX2 vs
// AVX-512), per-column hash throughput, and an ingest-shaped
// NodeSketch row. Emits one JSON object so BENCH_*.json trajectories
// can track the kernel across builds.
//
// Every SIMD result is GZ_CHECK'd bitwise-identical to the scalar
// sketch before its timing is reported — a wrong fast kernel must
// never publish a number. On multi-core AVX2 hardware the acceptance
// gate is best-kernel >= 1.5x scalar; on the 1-CPU CI container the
// gate is no-regression (same precedent as bench_query's parallel
// target).
//
// Env knobs: GZ_BENCH_SK_BATCH (default 4096 indices per batch),
// GZ_BENCH_SK_ITERS (default 400 batches per kernel).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "sketch/cube_sketch.h"
#include "sketch/node_sketch.h"
#include "sketch/sketch_kernel.h"
#include "util/random.h"
#include "util/xxhash.h"

int main() {
  using namespace gz;
  const size_t batch = bench::GetEnvInt("GZ_BENCH_SK_BATCH", 4096);
  const int iters = bench::GetEnvInt("GZ_BENCH_SK_ITERS", 400);
  const uint64_t num_nodes = 1 << 17;
  // Same edge-index domain for the cube and node rows, so one index
  // stream drives both.
  const uint64_t vector_len = NumPossibleEdges(num_nodes);
  const uint64_t seed = 42;

  std::vector<SketchKernel> kernels = {SketchKernel::kScalar};
  if (SketchKernelSupported(SketchKernel::kAvx2)) {
    kernels.push_back(SketchKernel::kAvx2);
  }
  if (SketchKernelSupported(SketchKernel::kAvx512)) {
    kernels.push_back(SketchKernel::kAvx512);
  }

  SplitMix64 rng(7);
  std::vector<uint64_t> indices(batch);
  for (uint64_t& idx : indices) idx = rng.NextBelow(vector_len);

  CubeSketchParams cp;
  cp.vector_len = vector_len;
  cp.seed = seed;

  // Reference sketch for the bitwise gate.
  CubeSketch reference(cp);
  for (int it = 0; it < iters; ++it) {
    reference.UpdateBatchWithKernel(SketchKernel::kScalar, indices.data(),
                                    batch);
  }

  struct Row {
    SketchKernel kernel;
    double cube_updates_per_sec = 0;
    double node_updates_per_sec = 0;
    double hash_mhashes_per_sec = 0;
  };
  std::vector<Row> rows;

  NodeSketchParams np;
  np.num_nodes = num_nodes;
  np.seed = seed;
  std::vector<uint64_t> hash_out(batch);

  for (SketchKernel k : kernels) {
    Row row;
    row.kernel = k;

    // Cube-sketch update throughput (the tentpole number).
    CubeSketch sketch(cp);
    WallTimer cube_timer;
    for (int it = 0; it < iters; ++it) {
      sketch.UpdateBatchWithKernel(k, indices.data(), batch);
    }
    const double cube_s = std::max(cube_timer.Seconds(), 1e-9);
    row.cube_updates_per_sec =
        static_cast<double>(batch) * iters / cube_s;
    GZ_CHECK_MSG(sketch == reference,
                 "kernel diverged from scalar; refusing to report timing");

    // Ingest-shaped: one NodeSketch (all rounds) through the forced
    // kernel, exactly what SketchStore::ApplyBatch runs per batch.
    ForceSketchKernel(k);
    NodeSketch node(np);
    const int node_iters = std::max(1, iters / 8);
    WallTimer node_timer;
    for (int it = 0; it < node_iters; ++it) {
      node.UpdateBatch(indices.data(), batch);
    }
    const double node_s = std::max(node_timer.Seconds(), 1e-9);
    row.node_updates_per_sec =
        static_cast<double>(batch) * node_iters / node_s;

    // Raw per-column hash throughput (millions of XxHash64Word/s).
    WallTimer hash_timer;
    for (int it = 0; it < iters * 4; ++it) {
      XxHash64WordBatch(k, indices.data(), batch, seed + it, hash_out.data());
    }
    const double hash_s = std::max(hash_timer.Seconds(), 1e-9);
    row.hash_mhashes_per_sec =
        static_cast<double>(batch) * iters * 4 / hash_s / 1e6;

    rows.push_back(row);
  }
  ForceSketchKernel(BestSupportedSketchKernel());

  const Row& scalar = rows.front();
  const Row* best = &rows.front();
  for (const Row& r : rows) {
    if (r.cube_updates_per_sec > best->cube_updates_per_sec) best = &r;
  }

  std::printf("{\n  \"bench\": \"sketch_kernel\",\n");
  std::printf("  \"vector_len\": %llu, \"cols\": %d, \"rows\": %d, "
              "\"batch\": %zu, \"iters\": %d,\n",
              static_cast<unsigned long long>(vector_len), cp.cols,
              CubeSketch(cp).rows(), batch, iters);
  std::printf("  \"kernels\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::printf("    {\"kernel\": \"%s\", \"cube_updates_per_sec\": %.0f, "
                "\"node_updates_per_sec\": %.0f, "
                "\"hash_mhashes_per_sec\": %.1f, "
                "\"speedup_vs_scalar\": %.3f}%s\n",
                SketchKernelName(r.kernel), r.cube_updates_per_sec,
                r.node_updates_per_sec, r.hash_mhashes_per_sec,
                r.cube_updates_per_sec / scalar.cube_updates_per_sec,
                i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"best_kernel\": \"%s\", \"best_speedup_vs_scalar\": %.3f\n",
              SketchKernelName(best->kernel),
              best->cube_updates_per_sec / scalar.cube_updates_per_sec);
  std::printf("}\n");
  return 0;
}
