// Sketch-kernel microbench: updates/sec per kernel (scalar vs AVX2 vs
// AVX-512) at fixed batch sizes, per-column hash throughput, and an
// ingest-shaped NodeSketch row. Emits one JSON object so BENCH_*.json
// trajectories can track the kernel across builds.
//
// Batch sizes sweep 1, 2, 4, 8, 16, 32, 64, 128 and 4096 updates: a
// query-time Flush() hands the kernel ~16 node updates per batch, a
// full gutter thousands. Every batch is a fresh slice of one index pool
// drawn before timing starts, so branch prediction cannot learn one
// array and flatter small batches.
//
// Every SIMD result, the CubeSketch row and the NodeSketch row alike,
// is GZ_CHECK'd bitwise-identical to a scalar sketch of the same pool
// before its timing is reported: a wrong fast kernel must never
// publish a number.
//
// Env knob: GZ_BENCH_SK_ITERS (default 400) sizes the pool at
// ITERS * 4096 indices. Each CubeSketch cell applies the whole pool,
// each NodeSketch cell its first eighth.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "sketch/cube_sketch.h"
#include "sketch/node_sketch.h"
#include "sketch/sketch_kernel.h"
#include "util/random.h"
#include "util/xxhash.h"

int main() {
  using namespace gz;
  const int iters = bench::GetEnvInt("GZ_BENCH_SK_ITERS", 400);
  const size_t kBatches[] = {1, 2, 4, 8, 16, 32, 64, 128, 4096};
  const size_t pool_size = static_cast<size_t>(iters) * 4096;
  const size_t node_pool_size = pool_size / 8;
  const uint64_t num_nodes = 1 << 17;
  // Same edge-index domain for the cube and node rows, so one index
  // pool drives both.
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
  std::vector<uint64_t> pool(pool_size);
  for (uint64_t& idx : pool) idx = rng.NextBelow(vector_len);

  CubeSketchParams cp;
  cp.vector_len = vector_len;
  cp.seed = seed;
  NodeSketchParams np;
  np.num_nodes = num_nodes;
  np.seed = seed;

  // Scalar references for the bitwise gates: the sketch of a pool does
  // not depend on how it is cut into batches.
  CubeSketch cube_reference(cp);
  for (uint64_t idx : pool) cube_reference.Update(idx);
  NodeSketch node_reference(np);
  for (size_t i = 0; i < node_pool_size; ++i) node_reference.Update(pool[i]);

  struct Cell {
    double cube_updates_per_sec = 0;
    double node_updates_per_sec = 0;
  };
  struct Row {
    SketchKernel kernel;
    std::vector<Cell> cells;  // One per kBatches entry.
    double hash_mhashes_per_sec = 0;
  };
  std::vector<Row> rows;
  std::vector<uint64_t> hash_out(pool_size);

  for (SketchKernel k : kernels) {
    Row row;
    row.kernel = k;
    ForceSketchKernel(k);
    for (size_t batch : kBatches) {
      Cell cell;
      // Cube-sketch update throughput: the kernel on one round.
      CubeSketch cube(cp);
      WallTimer cube_timer;
      for (size_t i = 0; i < pool_size; i += batch) {
        cube.UpdateBatchWithKernel(k, pool.data() + i,
                                   std::min(batch, pool_size - i));
      }
      cell.cube_updates_per_sec =
          pool_size / std::max(cube_timer.Seconds(), 1e-9);
      GZ_CHECK_MSG(cube == cube_reference,
                   "kernel diverged from scalar; refusing to report timing");

      // Ingest-shaped: one NodeSketch (all rounds) through the forced
      // kernel, exactly what SketchStore::ApplyBatch runs per batch.
      NodeSketch node(np);
      WallTimer node_timer;
      for (size_t i = 0; i < node_pool_size; i += batch) {
        node.UpdateBatch(pool.data() + i, std::min(batch, node_pool_size - i));
      }
      cell.node_updates_per_sec =
          node_pool_size / std::max(node_timer.Seconds(), 1e-9);
      GZ_CHECK_MSG(node == node_reference,
                   "node kernel diverged from scalar; refusing to report "
                   "timing");
      row.cells.push_back(cell);
    }

    // Raw per-column hash throughput (millions of XxHash64Word/s).
    WallTimer hash_timer;
    for (int rep = 0; rep < 4; ++rep) {
      XxHash64WordBatch(k, pool.data(), pool_size, seed + rep,
                        hash_out.data());
    }
    row.hash_mhashes_per_sec =
        4.0 * pool_size / std::max(hash_timer.Seconds(), 1e-9) / 1e6;
    rows.push_back(row);
  }
  ForceSketchKernel(BestSupportedSketchKernel());

  const Row& scalar = rows.front();
  std::printf("{\n  \"bench\": \"sketch_kernel\",\n");
  std::printf("  \"vector_len\": %llu, \"cols\": %d, \"rows\": %d, "
              "\"rounds\": %d, \"cube_updates_per_cell\": %zu, "
              "\"node_updates_per_cell\": %zu,\n",
              static_cast<unsigned long long>(vector_len), cp.cols,
              cube_reference.rows(), node_reference.rounds(), pool_size,
              node_pool_size);
  std::printf("  \"dispatched_kernel\": \"%s\",\n",
              SketchKernelName(ActiveSketchKernel()));
  std::printf("  \"kernels\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::printf("    {\"kernel\": \"%s\", \"hash_mhashes_per_sec\": %.1f, "
                "\"batches\": [\n",
                SketchKernelName(r.kernel), r.hash_mhashes_per_sec);
    for (size_t b = 0; b < r.cells.size(); ++b) {
      const Cell& c = r.cells[b];
      std::printf("      {\"batch\": %zu, \"cube_updates_per_sec\": %.0f, "
                  "\"node_updates_per_sec\": %.0f, "
                  "\"node_speedup_vs_scalar\": %.3f}%s\n",
                  kBatches[b], c.cube_updates_per_sec, c.node_updates_per_sec,
                  c.node_updates_per_sec /
                      scalar.cells[b].node_updates_per_sec,
                  b + 1 < r.cells.size() ? "," : "");
    }
    std::printf("    ]}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return 0;
}
